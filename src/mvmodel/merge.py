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
from typing import Mapping, NamedTuple

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
    merged: Model
    applied: Resolution


def insert_delete_conflicts(m1: ModelModification, m2: ModelModification) -> list[Conflict]:
    """Just the conflicts that require a decision: ``mcheck``'s insert-delete entries."""
    if m1.source.store is not m2.source.store or m1.source != m2.source:
        raise SourceMismatch("modifications do not share a source model")
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


def _merged(
    m1: ModelModification, m2: ModelModification, decided: Mapping[tuple[str, str], Decision]
) -> Model:
    """The union of both spans' deltas over their shared source, without the
    reverted edge creations and with the reverted node deletions restored;
    the one builder behind every merge."""
    source = m1.source
    nodes = (
        (source.node_set - m1.deleted_nodes - m2.deleted_nodes)
        | m1.created_nodes
        | m2.created_nodes
        | {node for (_, node), d in decided.items() if d is Decision.REVERT_NODE_DELETION}
    )
    edges = (
        (source.edge_set - m1.deleted_edges - m2.deleted_edges)
        | m1.created_edges
        | m2.created_edges
    ) - {edge for (edge, _), d in decided.items() if d is Decision.REVERT_EDGE_CREATION}
    merged = Model(source.store, source.type_graph, nodes, edges)
    node_set, endpoint = merged.node_set, source.store.endpoint
    if not all(node_set.issuperset(endpoint(e)) for e in edges):
        dangling = next(e for e in sorted(edges) if not node_set.issuperset(endpoint(e)))
        raise ImproperResult(f"merge produced a dangling edge: {dangling!r}")
    return merged


def merge(m1: ModelModification, m2: ModelModification, strategy: Resolution) -> MergeResult:
    """Merge two modifications under the given per-conflict decisions.

    The strategy must decide exactly the insert-delete conflicts of the
    pair, which are detected once. Reverting an edge creation removes that
    edge from the result; reverting a node deletion restores the node (and
    nothing else, so edges dropped alongside the node stay dropped). The
    result holds the merged model and the strategy as ``applied``. The
    source and both targets must be valid models: then the merged model
    conforms to the type graph, and only a dangling edge (the first in id
    order) can fail it.
    """
    keys = {(c.edge, c.node) for c in insert_delete_conflicts(m1, m2)}
    decided = strategy.as_dict()
    if decided.keys() != keys:
        missing = sorted(keys - decided.keys())
        extra = sorted(decided.keys() - keys)
        raise IncompleteStrategy(
            f"strategy must decide exactly the detected conflicts; missing={missing} extra={extra}"
        )
    return MergeResult(_merged(m1, m2, decided), strategy)


def merge_min(m1: ModelModification, m2: ModelModification) -> MergeResult:
    """The deletion-prioritising merge: revert every conflicting edge creation.

    Detects the pair's conflicts once and builds the merge with every
    conflicting edge dropped; ``applied`` holds that all-revert strategy.
    Always succeeds on valid targets, and its result is contained in the
    result of every other valid strategy.
    """
    decided = {
        (c.edge, c.node): Decision.REVERT_EDGE_CREATION for c in insert_delete_conflicts(m1, m2)
    }
    return MergeResult(_merged(m1, m2, decided), Resolution.from_dict(decided))


def enumerate_strategies(
    m1: ModelModification, m2: ModelModification, bound: int = 16
) -> list[Resolution]:
    """All resolutions whose merge yields a proper graph.

    The decision space is two-valued per conflict, so the output has up
    to 2**k entries; k above the bound raises TooManyConflicts rather
    than silently expanding. The conflicts are detected once, not once
    per strategy.
    """
    conflicts = insert_delete_conflicts(m1, m2)
    if len(conflicts) > bound:
        raise TooManyConflicts(len(conflicts), bound)
    keys = [(c.edge, c.node) for c in conflicts]
    out: list[Resolution] = []
    for combo in itertools.product(
        (Decision.REVERT_EDGE_CREATION, Decision.REVERT_NODE_DELETION), repeat=len(keys)
    ):
        decided = dict(zip(keys, combo))
        try:
            _merged(m1, m2, decided)
        except ImproperResult:
            continue
        out.append(Resolution.from_dict(decided))
    return out
