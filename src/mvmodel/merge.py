"""Three-way merge of two modifications out of one base model.

Each merge takes the base once and two ``ModelModification`` spans from
it, the spans a history keeps or ``ModelModification.between`` builds.
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
from .errors import ImproperResult, IncompleteStrategy, TooManyConflicts
from .versioning import ModelModification


class Decision(str, enum.Enum):
    REVERT_EDGE_CREATION = "revert-edge-creation"
    REVERT_NODE_DELETION = "revert-node-deletion"


Strategy = Mapping[tuple[str, str], Decision]  # a decision per conflict key


def insert_delete_conflicts(
    base: Model, m1: ModelModification, m2: ModelModification
) -> list[tuple[str, str]]:
    """The conflicts that require a decision, as sorted (edge, node) keys:
    each created edge paired with each endpoint that the other side deleted.

    Each side's created edges are read once from the store's edge table,
    and both endpoints are tested against the other side's deleted nodes;
    a side whose partner deletes no node is skipped. A self-loop on a
    deleted node, or an edge that both sides create over a node that both
    delete, gives one key."""
    edge_decl = base.store._edges
    found: set[tuple[str, str]] = set()
    for a, b in ((m1, m2), (m2, m1)):
        dropped = b.deleted_nodes
        if not dropped:
            continue
        for e in a.created_edges:
            _, src, tgt = edge_decl[e]
            if src in dropped:
                found.add((e, src))
            if tgt in dropped:
                found.add((e, tgt))
    return sorted(found)


def _merged(base: Model, m1: ModelModification, m2: ModelModification, decided: Strategy) -> Model:
    """The union of both spans' deltas over their base, without the
    reverted edge creations and with the reverted node deletions restored;
    the one builder behind every merge."""
    nodes = (
        (base.node_set - m1.deleted_nodes - m2.deleted_nodes)
        | m1.created_nodes
        | m2.created_nodes
        | {node for (_, node), d in decided.items() if d is Decision.REVERT_NODE_DELETION}
    )
    edges = (
        (base.edge_set - m1.deleted_edges - m2.deleted_edges)
        | m1.created_edges
        | m2.created_edges
    ) - {edge for (edge, _), d in decided.items() if d is Decision.REVERT_EDGE_CREATION}
    merged = Model(base.store, base.type_graph, nodes, edges)
    node_set, edge_decl = merged.node_set, base.store._edges
    dangling = []
    for e in edges:
        _, src, tgt = edge_decl[e]
        if src not in node_set or tgt not in node_set:
            dangling.append(e)
    if dangling:
        raise ImproperResult(f"merge produced a dangling edge: {min(dangling)!r}")
    return merged


def merge(base: Model, m1: ModelModification, m2: ModelModification, strategy: Strategy) -> Model:
    """The merged model under the given per-conflict decisions.

    The strategy maps each (edge, node) key of the pair's insert-delete
    conflicts, which are detected once, to a ``Decision`` or its string
    value, and must decide exactly those; any other value raises
    IncompleteStrategy before the conflicts are detected. Reverting an edge
    creation removes that edge from the result; reverting a node deletion
    restores the node (and nothing else, so edges dropped alongside the node
    stay dropped). The base and both targets must be valid models: then the
    merged model conforms to the type graph and no decision fails (see
    ``enumerate_strategies``). On improper targets a dangling edge, the
    first in id order, raises ImproperResult.
    """
    decided = {}
    for key, value in strategy.items():
        try:
            decided[key] = Decision(value)
        except ValueError:
            raise IncompleteStrategy(f"{value!r} for {key!r} is not a Decision") from None
    keys = set(insert_delete_conflicts(base, m1, m2))
    if decided.keys() != keys:
        missing = sorted(keys - decided.keys())
        extra = sorted(decided.keys() - keys)
        raise IncompleteStrategy(
            f"strategy must decide exactly the detected conflicts; missing={missing} extra={extra}"
        )
    return _merged(base, m1, m2, decided)


def merge_min(base: Model, m1: ModelModification, m2: ModelModification) -> Model:
    """The deletion-prioritising merge: revert every conflicting edge creation.

    Detects the pair's conflicts once and builds the merge under the
    all-revert strategy, ``dict.fromkeys(insert_delete_conflicts(base, m1,
    m2), Decision.REVERT_EDGE_CREATION)``. Always succeeds on valid targets,
    and its result is contained in the result of every other strategy.
    """
    keys = insert_delete_conflicts(base, m1, m2)
    return _merged(base, m1, m2, dict.fromkeys(keys, Decision.REVERT_EDGE_CREATION))


def enumerate_strategies(
    base: Model, m1: ModelModification, m2: ModelModification, bound: int = 16
) -> list[dict[tuple[str, str], Decision]]:
    """Every decision map over the pair's insert-delete conflicts.

    The decision space is two-valued per conflict, so the output has 2**k
    entries, in product order over the sorted keys; the first is
    ``merge_min``'s all-revert strategy. k above the bound raises
    TooManyConflicts rather than silently expanding. The conflicts are
    detected once, and no trial merge is built, because on valid spans
    every map merges properly: an edge that survives from the base is
    kept by both targets, and proper targets keep its endpoints; a
    created edge either gets reverted, or each of its endpoints that the
    other side deleted is a conflict key whose node is restored. On
    improper targets ``merge`` raises ImproperResult for each map whose
    result dangles.
    """
    keys = insert_delete_conflicts(base, m1, m2)
    if len(keys) > bound:
        raise TooManyConflicts(len(keys), bound)
    choices = (Decision.REVERT_EDGE_CREATION, Decision.REVERT_NODE_DELETION)
    return [dict(zip(keys, combo)) for combo in itertools.product(choices, repeat=len(keys))]
