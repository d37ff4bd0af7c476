"""Three-way merge of two modifications sharing a source model.

The default merge rules are: keep what both sides keep, drop what either
side drops, add what either side adds. The one genuinely problematic
situation is an edge added by one side whose endpoint node the other
side dropped. Each such conflict is a sorted (edge, node) key from
``insert_delete_conflicts``, and is resolved per key, either by
reverting the edge creation or by reverting the node deletion.
"""

from __future__ import annotations

import enum
import itertools
from typing import Mapping

from .core import Model
from .errors import (
    ImproperResult,
    IncompleteStrategy,
    SourceMismatch,
    TooManyConflicts,
)
from .versioning import ModelModification


class Decision(str, enum.Enum):
    REVERT_EDGE_CREATION = "revert-edge-creation"
    REVERT_NODE_DELETION = "revert-node-deletion"


def insert_delete_conflicts(m1: ModelModification, m2: ModelModification) -> list[tuple[str, str]]:
    """The conflicts that require a decision, as sorted (edge, node) keys:
    each created edge paired with each endpoint that the other side deleted."""
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
    return sorted(found)


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


def merge(
    m1: ModelModification, m2: ModelModification, strategy: Mapping[tuple[str, str], Decision]
) -> Model:
    """The merged model under the given per-conflict decisions.

    The strategy maps each (edge, node) key of the pair's insert-delete
    conflicts, which are detected once, to a decision, and must decide
    exactly those. Reverting an edge creation removes that edge from the
    result; reverting a node deletion restores the node (and nothing
    else, so edges dropped alongside the node stay dropped). The source
    and both targets must be valid models: then the merged model conforms
    to the type graph and no decision fails (see ``enumerate_strategies``).
    On improper targets a dangling edge, the first in id order, raises
    ImproperResult.
    """
    keys = set(insert_delete_conflicts(m1, m2))
    if strategy.keys() != keys:
        missing = sorted(keys - strategy.keys())
        extra = sorted(strategy.keys() - keys)
        raise IncompleteStrategy(
            f"strategy must decide exactly the detected conflicts; missing={missing} extra={extra}"
        )
    return _merged(m1, m2, strategy)


def merge_min(m1: ModelModification, m2: ModelModification) -> Model:
    """The deletion-prioritising merge: revert every conflicting edge creation.

    Detects the pair's conflicts once and builds the merge under the
    all-revert strategy, ``dict.fromkeys(insert_delete_conflicts(m1, m2),
    Decision.REVERT_EDGE_CREATION)``. Always succeeds on valid targets,
    and its result is contained in the result of every other strategy.
    """
    keys = insert_delete_conflicts(m1, m2)
    return _merged(m1, m2, dict.fromkeys(keys, Decision.REVERT_EDGE_CREATION))


def enumerate_strategies(
    m1: ModelModification, m2: ModelModification, bound: int = 16
) -> list[dict[tuple[str, str], Decision]]:
    """Every decision map over the pair's insert-delete conflicts.

    The decision space is two-valued per conflict, so the output has 2**k
    entries, in product order over the sorted keys; the first is
    ``merge_min``'s all-revert strategy. k above the bound raises
    TooManyConflicts rather than silently expanding. The conflicts are
    detected once, and no trial merge is built, because on valid spans
    every map merges properly: an edge that survives from the source is
    kept by both targets, and proper targets keep its endpoints; a
    created edge either gets reverted, or each of its endpoints that the
    other side deleted is a conflict key whose node is restored. On
    improper targets ``merge`` raises ImproperResult for each map whose
    result dangles.
    """
    keys = insert_delete_conflicts(m1, m2)
    if len(keys) > bound:
        raise TooManyConflicts(len(keys), bound)
    choices = (Decision.REVERT_EDGE_CREATION, Decision.REVERT_NODE_DELETION)
    return [dict(zip(keys, combo)) for combo in itertools.product(choices, repeat=len(keys))]
