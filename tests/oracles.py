"""Slow reference implementations the fast code is checked against.

Everything here trades speed for obviousness: exhaustive permutation
search instead of backtracking, a reverse BFS over the modifications
instead of ancestor bitmasks, a full check of every version instead of a
check of the deltas, and one report line at a time instead of templates,
so a bug in the real matcher, merge-base table, validation or renderer
cannot hide in shared logic.
"""

from __future__ import annotations

import itertools
from collections import deque

from typing import Any, Mapping

from mvmodel import InvalidVersion, Match, Model, ModelVersioning, Pattern, validate_model
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
