"""Slow reference implementations the fast code is checked against.

Everything here trades speed for obviousness: exhaustive permutation
search instead of backtracking, a reverse BFS over the modifications
instead of ancestor bitmasks, a full check of every version instead of a
check of the deltas, marks read off every modification instead of kept
from validation, and one report line or one whole ``json.dumps`` at a
time instead of streamed templates, so a bug in the real matcher,
merge-base table, validation, fold or renderer cannot hide in shared logic.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

from typing import Any, Mapping

from mvmodel import (
    InvalidVersion,
    Match,
    Model,
    ModelModification,
    ModelVersioning,
    Pattern,
    validate_model,
)
from mvmodel.reports import MergeConflictReport, MergeViolationReport, VersionedViolation


def brute_force_monomorphisms(pattern: Pattern, host: Model) -> list[Match]:
    q = pattern.graph
    q_nodes = sorted(q.node_set)
    q_edges = sorted(q.edge_set)
    h_nodes = sorted(host.node_set)
    found: list[Match] = []
    for combo in itertools.permutations(h_nodes, len(q_nodes)):
        node_map = dict(zip(q_nodes, combo))
        if any(host.store.elem_type(node_map[n]) != q.store.elem_type(n) for n in q_nodes):
            continue
        pools: list[list[str]] = []
        for e in q_edges:
            t = q.store.elem_type(e)
            s, g = q.store.endpoint(e)
            pool = sorted(
                h
                for h in host.edge_set
                if host.store.elem_type(h) == t
                and host.store.endpoint(h) == (node_map[s], node_map[g])
            )
            pools.append(pool)
        for edges in itertools.product(*pools):
            if len(set(edges)) != len(edges):
                continue
            found.append(Match.from_maps(node_map, dict(zip(q_edges, edges))))
    return sorted(found)


def predecessors(versioning: ModelVersioning, version_id: str) -> frozenset[str]:
    """All strict ancestors of a version (transitive, not reflexive)."""
    parents: dict[str, list[str]] = {}
    for a, b in versioning.modifications:
        parents.setdefault(b, []).append(a)
    seen: set[str] = set()
    queue = deque(parents.get(version_id, ()))
    seen.update(queue)
    while queue:
        for w in parents.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def preserved(mod: ModelModification) -> tuple[frozenset[str], frozenset[str]]:
    """The node and edge sets a modification keeps: what both ends hold."""
    return mod.source.node_set & mod.target.node_set, mod.source.edge_set & mod.target.edge_set


def latest_common_predecessors(versioning: ModelVersioning, i: str, j: str) -> frozenset[str]:
    """Maximal common strict ancestors of two distinct versions; empty when
    one is an ancestor of the other, since such pairs have nothing to merge."""
    pre_i = predecessors(versioning, i)
    pre_j = predecessors(versioning, j)
    if i in pre_j or j in pre_i:
        return frozenset()
    common = pre_i & pre_j
    # Maximal elements: not an ancestor of any other common ancestor.
    shadowed = set().union(*(predecessors(versioning, x) for x in common))
    return frozenset(common - shadowed)


def merge_triplets(versioning: ModelVersioning, lcp_mode: str) -> list[tuple[str, str, str]]:
    """Sorted (left, right, base) for every version pair i < j and each of
    its merge bases that lcp mode ``lcp_mode`` draws: all of them (``all``)
    or the least id (``single``)."""
    triplets = []
    for i, j in itertools.combinations(sorted(versioning.versions), 2):
        bases = sorted(latest_common_predecessors(versioning, i, j))
        triplets += ((i, j, c) for c in (bases if lcp_mode == "all" else bases[:1]))
    return triplets


def id_set_conflicts(m1: ModelModification, m2: ModelModification) -> list[tuple[str, str]]:
    """Sorted (edge, node) insert-delete conflicts from the spans' id sets:
    each side creates its target's edges that its source lacks, and
    deletes its source's nodes that its target lacks; a created edge
    conflicts with each of its endpoints that the other side deletes."""
    found = set()
    for a, b in ((m1, m2), (m2, m1)):
        created = a.target.edge_set - a.source.edge_set
        deleted = b.source.node_set - b.target.node_set
        found |= {(e, v) for e in created for v in a.source.store.endpoint(e) if v in deleted}
    return sorted(found)


def fold_marks(versioning: ModelVersioning):
    """The union's node and edge sets and the creation and deletion marks,
    read off every version and modification: the root creates its
    elements, and each modification (a, b) creates at b what b adds to a
    and deletes at b what b drops from a."""
    versions = dict(versioning.versions.items())  # each version built once
    nodes = set().union(*(m.node_set for m in versions.values()))
    edges = set().union(*(m.edge_set for m in versions.values()))
    root = versions[versioning.root]
    cv: dict[str, set[str]] = {x: {versioning.root} for x in root.node_set | root.edge_set}
    dv: dict[str, set[str]] = {}
    for a, b in sorted(versioning.modifications):
        ma, mb = versions[a], versions[b]
        for x in (mb.node_set - ma.node_set) | (mb.edge_set - ma.edge_set):
            cv.setdefault(x, set()).add(b)
        for x in (ma.node_set - mb.node_set) | (ma.edge_set - mb.edge_set):
            dv.setdefault(x, set()).add(b)
    return nodes, edges, cv, dv


def validate_each_version(versioning_args: Mapping[str, Any]) -> None:
    """Check every version of ``ModelVersioning(**versioning_args)`` in
    full, in id order, and raise InvalidVersion for the first invalid one.
    The checks on the shape of the DAG, which come after, are left out."""
    versions = versioning_args["versions"]
    for vid in sorted(versions):
        try:
            validate_model(versions[vid])
        except Exception as err:
            raise InvalidVersion(vid, err) from err


_KINDS = {
    VersionedViolation: "violation",
    MergeConflictReport: "conflict",
    MergeViolationReport: "merge-violation",
}


def render_line(name: str | None, report) -> str:
    """A report's text line: its kind, its pattern name when it has one,
    then its fields, with a Match split into ``nodes`` and ``edges``."""
    parts = [_KINDS[type(report)]]
    if name is not None:
        parts.append(f"pattern={name}")
    for field, value in zip(report._fields, report):
        if isinstance(value, Match):
            nodes = ",".join(map(":".join, value.nodes))
            edges = ",".join(map(":".join, value.edges))
            parts.append(f"nodes={nodes} edges={edges}")
        else:
            parts.append(f"{field}={value}")
    return " ".join(parts)


def render_text(groups) -> str:
    """A report command's whole text output, one line per report."""
    lines = [render_line(name, report) for name, reports in groups for report in reports]
    return "\n".join(lines + [f"total {len(lines)}"]) + "\n"


def _row(name: str | None, report) -> dict:
    """A report's JSON row, with the same keys as its text line."""
    row = {} if name is None else {"pattern": name}
    for field, value in zip(report._fields, report):
        if isinstance(value, Match):
            row["nodes"], row["edges"] = dict(value.nodes), dict(value.edges)
        else:
            row[field] = value
    return row


def render_json(command: str, key: str, groups) -> str:
    """A report command's whole ``--json`` output, from one ``json.dumps``."""
    rows = [_row(name, report) for name, reports in groups for report in reports]
    obj = {"format": "mv-report/1", "command": command, "total": len(rows), key: rows}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
