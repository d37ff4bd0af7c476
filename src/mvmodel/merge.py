"""Three-way merge of two modifications sharing a source model.

The default merge rules are: keep what both sides keep, drop what either
side drops, add what either side adds. The one genuinely problematic
situation is an edge added by one side whose endpoint node the other
side dropped; every such conflict is resolved per conflict, either by
reverting the edge creation or by reverting the node deletion. Elements
dropped by both sides are reported too, but only as information: both
sides already agree.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .core import Model
from .errors import (
    ImproperResult,
    IncompleteStrategy,
    SourceMismatch,
    TooManyConflicts,
)
from .versioning import ModelModification


class ConflictKind(str, enum.Enum):
    INSERT_DELETE = "insert-delete"
    DELETE_DELETE = "delete-delete"


class Conflict(NamedTuple):
    """One conflict between two modifications.

    For insert-delete entries, ``edge`` is the created edge and ``node``
    the deleted endpoint. For delete-delete entries ``edge`` is empty and
    ``node`` holds the element both sides deleted (which may be an edge).
    """

    kind: ConflictKind
    edge: str
    node: str


class Decision(str, enum.Enum):
    REVERT_EDGE_CREATION = "revert-edge-creation"
    REVERT_NODE_DELETION = "revert-node-deletion"


@dataclass(frozen=True)
class Resolution:
    """Per-conflict decisions for the insert-delete conflicts of a merge."""

    decisions: tuple[tuple[tuple[str, str], Decision], ...]

    @classmethod
    def from_dict(cls, decisions: Mapping[tuple[str, str], Decision]) -> "Resolution":
        return cls(tuple(sorted(decisions.items())))

    def as_dict(self) -> dict[tuple[str, str], Decision]:
        return dict(self.decisions)


@dataclass(frozen=True)
class MergeResult:
    modification: ModelModification
    merged: Model
    applied: Resolution


def _check_sources(m1: ModelModification, m2: ModelModification) -> None:
    if m1.source.store is not m2.source.store or m1.source != m2.source:
        raise SourceMismatch("modifications do not share a source model")


def insert_delete_conflicts(m1: ModelModification, m2: ModelModification) -> list[Conflict]:
    """Just the conflicts that require a decision: ``mcheck``'s insert-delete entries."""
    _check_sources(m1, m2)
    store = m1.source.store
    found: set[tuple[str, str]] = set()
    for a, b in ((m1, m2), (m2, m1)):
        dropped = b.deleted_nodes
        for e in a.created_edges:
            src, tgt = store.endpoint(e)
            for v in {src, tgt}:
                if v in dropped:
                    found.add((e, v))
    return [Conflict(ConflictKind.INSERT_DELETE, e, v) for e, v in sorted(found)]


def mcheck(m1: ModelModification, m2: ModelModification) -> list[Conflict]:
    """Conflicts between two modifications of one source model.

    Insert-delete entries come first, sorted by (edge, node); an edge
    with both endpoints deleted by the other side yields one entry per
    endpoint. Delete-delete entries follow, sorted by element id.
    """
    out = insert_delete_conflicts(m1, m2)
    both = (m1.deleted_nodes | m1.deleted_edges) & (m2.deleted_nodes | m2.deleted_edges)
    out.extend(Conflict(ConflictKind.DELETE_DELETE, "", x) for x in sorted(both))
    return out


def merge(m1: ModelModification, m2: ModelModification, strategy: Resolution) -> MergeResult:
    """Merge two modifications under the given per-conflict decisions.

    The strategy must decide exactly the insert-delete conflicts of the
    pair. Reverting an edge creation removes that edge from the result;
    reverting a node deletion restores the node (and nothing else, so
    edges dropped alongside the node stay dropped). The source and both
    targets must be valid models: then the result conforms to the type
    graph, and only a dangling edge (the first in id order) can fail it.
    """
    _check_sources(m1, m2)
    source = m1.source
    conflicts = insert_delete_conflicts(m1, m2)
    keys = {(c.edge, c.node) for c in conflicts}
    decided = strategy.as_dict()
    if set(decided) != keys:
        missing = sorted(keys - set(decided))
        extra = sorted(set(decided) - keys)
        raise IncompleteStrategy(
            f"strategy must decide exactly the detected conflicts; missing={missing} extra={extra}"
        )
    nodes = (
        (source.node_set - m1.deleted_nodes - m2.deleted_nodes)
        | m1.created_nodes
        | m2.created_nodes
    )
    edges = (
        (source.edge_set - m1.deleted_edges - m2.deleted_edges)
        | m1.created_edges
        | m2.created_edges
    )
    nodes, edges = set(nodes), set(edges)
    for (edge, node), decision in decided.items():
        if decision is Decision.REVERT_EDGE_CREATION:
            edges.discard(edge)
        else:
            nodes.add(node)
    merged = Model(source.store, source.type_graph, nodes, edges)
    node_set, endpoint = merged.node_set, source.store.endpoint
    if not all(node_set.issuperset(endpoint(e)) for e in edges):
        dangling = next(e for e in sorted(edges) if not node_set.issuperset(endpoint(e)))
        raise ImproperResult(f"merge produced a dangling edge: {dangling!r}")
    target_id = f"merge({m1.target_id},{m2.target_id})"
    result_mod = ModelModification(source, merged, m1.source_id, target_id)
    return MergeResult(result_mod, merged, strategy)


def merge_min(m1: ModelModification, m2: ModelModification) -> MergeResult:
    """The deletion-prioritising merge: revert every conflicting edge creation.

    Always succeeds, and its result is contained in the result of every
    other valid strategy.
    """
    conflicts = insert_delete_conflicts(m1, m2)
    strategy = Resolution.from_dict(
        {(c.edge, c.node): Decision.REVERT_EDGE_CREATION for c in conflicts}
    )
    return merge(m1, m2, strategy)


def enumerate_strategies(
    m1: ModelModification, m2: ModelModification, bound: int = 16
) -> list[Resolution]:
    """All resolutions whose merge yields a proper graph.

    The decision space is two-valued per conflict, so the output has up
    to 2**k entries; k above the bound raises TooManyConflicts rather
    than silently expanding.
    """
    conflicts = insert_delete_conflicts(m1, m2)
    if len(conflicts) > bound:
        raise TooManyConflicts(len(conflicts), bound)
    keys = [(c.edge, c.node) for c in conflicts]
    out: list[Resolution] = []
    for combo in itertools.product(
        (Decision.REVERT_EDGE_CREATION, Decision.REVERT_NODE_DELETION), repeat=len(keys)
    ):
        strategy = Resolution.from_dict(dict(zip(keys, combo)))
        try:
            merge(m1, m2, strategy)
        except ImproperResult:
            continue
        out.append(strategy)
    return out
