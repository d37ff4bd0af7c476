"""Typed graphs over a shared element registry, and monomorphism search.

Graphs here are plain sets of node and edge ids drawn from one
ElementStore. The store fixes each element's type and each edge's
endpoints once, at registration, so the same edge has the same endpoints
in every graph that contains it. Two graphs over one store are equal
exactly when their id sets are equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, overload

from .errors import (
    DanglingEdge,
    TypeGraphMismatch,
    TypeMismatch,
    UnknownType,
    ValidationError,
)

NodeId = str
EdgeId = str
TypeId = str
# The inputs that Model can read twice; it holds any other iterable first.
_REREADABLE = (list, tuple, set, frozenset)


class TypeGraph:
    """Node and edge type declarations.

    Each edge type fixes the node types of its source and target. Node
    type ids and edge type ids live in one namespace and must not collide.
    """

    __slots__ = ("_node_types", "_edge_types", "_key", "_hash")

    def __init__(
        self,
        node_types: Iterable[TypeId],
        edge_types: Mapping[TypeId, tuple[TypeId, TypeId]],
    ):
        self._node_types = frozenset(node_types)
        self._edge_types = {t: (s, g) for t, (s, g) in dict(edge_types).items()}
        shared = self._node_types & set(self._edge_types)
        if shared:
            raise ValueError(f"type ids declared as both node and edge types: {sorted(shared)}")
        for t, (src, tgt) in self._edge_types.items():
            if src not in self._node_types or tgt not in self._node_types:
                raise ValueError(f"edge type {t!r} references an undeclared node type")
        self._key = (self._node_types, tuple(sorted(self._edge_types.items())))
        self._hash = hash(self._key)

    @property
    def node_types(self) -> frozenset[TypeId]:
        return self._node_types

    @property
    def edge_types(self) -> Mapping[TypeId, tuple[TypeId, TypeId]]:
        return MappingProxyType(self._edge_types)

    def endpoint_types(self, edge_type: TypeId) -> tuple[TypeId, TypeId]:
        return self._edge_types[edge_type]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeGraph) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TypeGraph({len(self._node_types)} node types, {len(self._edge_types)} edge types)"


class ElementStore:
    """Registry of node and edge identities shared by many graphs.

    Ids are unique across both namespaces. Registration is append-only:
    an element's type, and an edge's endpoints, never change afterwards.
    Each id is held once: ``_own_nodes`` and ``_own_edges`` map every id
    to the store's own object for it, which an edge's endpoints and every
    model of the store hold, so their set algebra compares by identity.
    """

    __slots__ = ("_nodes", "_edges", "_own_nodes", "_own_edges")

    def __init__(self) -> None:
        self._nodes: dict[NodeId, TypeId] = {}
        self._edges: dict[EdgeId, tuple[TypeId, NodeId, NodeId]] = {}
        self._own_nodes: dict[NodeId, NodeId] = {}
        self._own_edges: dict[EdgeId, EdgeId] = {}

    def add_node(self, node_id: NodeId, node_type: TypeId) -> None:
        if node_id in self._nodes or node_id in self._edges:
            raise ValueError(f"duplicate element id {node_id!r}")
        self._nodes[node_id] = node_type
        self._own_nodes[node_id] = node_id

    def add_edge(self, edge_id: EdgeId, edge_type: TypeId, source: NodeId, target: NodeId) -> None:
        if edge_id in self._nodes or edge_id in self._edges:
            raise ValueError(f"duplicate element id {edge_id!r}")
        own = self._own_nodes
        if source not in own:
            raise ValueError(f"edge {edge_id!r}: source {source!r} is not a registered node")
        if target not in own:
            raise ValueError(f"edge {edge_id!r}: target {target!r} is not a registered node")
        self._edges[edge_id] = (edge_type, own[source], own[target])
        self._own_edges[edge_id] = edge_id

    def elem_type(self, elem_id: str) -> TypeId:
        if elem_id in self._nodes:
            return self._nodes[elem_id]
        return self._edges[elem_id][0]

    def endpoint(self, edge_id: EdgeId) -> tuple[NodeId, NodeId]:
        _, src, tgt = self._edges[edge_id]
        return src, tgt

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def edge_ids(self) -> Iterator[EdgeId]:
        return iter(self._edges)

    def snapshot(self) -> tuple:
        """Canonical content tuple, for value comparison across stores."""
        return (tuple(sorted(self._nodes.items())), tuple(sorted(self._edges.items())))

    def __len__(self) -> int:
        return len(self._nodes) + len(self._edges)

    def __repr__(self) -> str:
        return f"ElementStore({len(self._nodes)} nodes, {len(self._edges)} edges)"


class Model:
    """A typed graph: node and edge id sets over one store.

    Models are immutable. Equality requires the same store object and
    equal id sets; endpoints are invariant across all models of a store,
    so equal id sets mean equal graphs. A model holds the store's own id
    objects, not the ones it is given: the lookup that swaps each in is
    also the check that it is registered. An unregistered id raises
    ValueError naming the least one, nodes before edges; an unhashable
    one, the TypeError of a set of it.
    """

    __slots__ = ("store", "type_graph", "node_set", "edge_set", "_index")

    def __init__(
        self,
        store: ElementStore,
        type_graph: TypeGraph,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[EdgeId] = (),
    ):
        self.store = store
        self.type_graph = type_graph
        # A miss is reported from the inputs, so they must be read again.
        if not isinstance(nodes, _REREADABLE):
            nodes = tuple(nodes)
        try:
            self.node_set: frozenset[NodeId] = frozenset(map(store._own_nodes.__getitem__, nodes))
            if not isinstance(edges, _REREADABLE):
                edges = tuple(edges)
            self.edge_set: frozenset[EdgeId] = frozenset(map(store._own_edges.__getitem__, edges))
        except (KeyError, TypeError):
            # Sets of the inputs give an unhashable id's TypeError, nodes first.
            for kind, missing in (("node", frozenset(nodes).difference(store._nodes)),
                                  ("edge", frozenset(edges).difference(store._edges))):
                if missing:  # the least id, so that the message is the same under any hash seed
                    least = min(missing, key=str)
                    raise ValueError(f"{least!r} is not a registered {kind}") from None
            raise
        self._index: _ModelIndex | None = None

    @classmethod
    def _wrap(cls, store: ElementStore, type_graph: TypeGraph,
              node_set: frozenset[NodeId], edge_set: frozenset[EdgeId]) -> "Model":
        """A model over frozensets that already hold the store's own ids,
        taken as they are: no lookup, no copy."""
        model = cls.__new__(cls)
        model.store, model.type_graph = store, type_graph
        model.node_set, model.edge_set, model._index = node_set, edge_set, None
        return model

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Model)
            and self.store is other.store
            and self.type_graph == other.type_graph
            and self.node_set == other.node_set
            and self.edge_set == other.edge_set
        )

    def __hash__(self) -> int:
        return hash((id(self.store), self.type_graph, self.node_set, self.edge_set))

    def __repr__(self) -> str:
        return f"Model({len(self.node_set)} nodes, {len(self.edge_set)} edges)"

    def index(self) -> "_ModelIndex":
        # Built on first use and kept; svm_check drops it, and a rebuild is identical.
        if self._index is None:
            self._index = _ModelIndex(self)
        return self._index


class _ModelIndex:
    """Type, neighbour and edge-group indices for one model, used by the matcher.

    ``out_nbrs[(n, t)]`` lists the targets of n's outgoing t-edges and
    ``in_nbrs[(n, t)]`` the sources of its incoming ones, once per edge, so
    their lengths are n's per-type degrees; a key is there only when its
    list is not empty. ``edges_by_key[(t, s, g)]`` lists the parallel
    t-edges from s to g. No list is in any particular order. ``plan`` is
    the matcher's plan for this model as a pattern, made by ``_match_plan``
    on first use.
    """

    __slots__ = ("nodes_by_type", "out_nbrs", "in_nbrs", "edges_by_key", "plan")

    def __init__(self, model: Model):
        node_type, edge_decl = model.store._nodes, model.store._edges
        by_type: dict[str, list[str]] = {}
        out_nbrs: dict[tuple[str, str], list[str]] = {}
        in_nbrs: dict[tuple[str, str], list[str]] = {}
        by_key: dict[tuple[str, str, str], list[str]] = {}
        for n in model.node_set:
            by_type.setdefault(node_type[n], []).append(n)
        for e in model.edge_set:
            t, src, tgt = edge_decl[e]
            out_nbrs.setdefault((src, t), []).append(tgt)
            in_nbrs.setdefault((tgt, t), []).append(src)
            by_key.setdefault((t, src, tgt), []).append(e)
        self.nodes_by_type = by_type
        self.out_nbrs = out_nbrs
        self.in_nbrs = in_nbrs
        self.edges_by_key = by_key
        self.plan: tuple | None = None


def validate_model(model: Model) -> None:
    """Check properness and type conformance.

    Raises DanglingEdge, UnknownType, or TypeMismatch naming the first
    offending element in id order; properness is checked first.
    """
    store = model.store
    tg = model.type_graph
    for e in sorted(model.edge_set):
        src, tgt = store.endpoint(e)
        if src not in model.node_set or tgt not in model.node_set:
            raise DanglingEdge(e)
    for n in sorted(model.node_set):
        if store.elem_type(n) not in tg.node_types:
            raise UnknownType(n)
    for e in sorted(model.edge_set):
        t = store.elem_type(e)
        if t not in tg.edge_types:
            raise UnknownType(e)
        src, tgt = store.endpoint(e)
        if (store.elem_type(src), store.elem_type(tgt)) != tg.endpoint_types(t):
            raise TypeMismatch(e)


@dataclass(frozen=True)
class Pattern:
    """A forbidden configuration; a host that embeds it violates the constraint."""

    name: str
    graph: Model


def validate_pattern(pattern: Pattern) -> None:
    validate_model(pattern.graph)
    if not pattern.graph.node_set:
        raise ValidationError(f"pattern {pattern.name!r} is empty")


class Match(NamedTuple):
    """An injective, type and structure preserving embedding of a pattern.

    Stored as pairs sorted by pattern element id, which makes comparison
    of two matches of the same pattern a comparison of their images.
    """

    nodes: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def from_maps(cls, node_map: Mapping[str, str], edge_map: Mapping[str, str]) -> "Match":
        return cls(tuple(sorted(node_map.items())), tuple(sorted(edge_map.items())))

    @property
    def node_map(self) -> dict[str, str]:
        return dict(self.nodes)

    @property
    def edge_map(self) -> dict[str, str]:
        return dict(self.edges)


def _match_plan(q: Model) -> tuple:
    """The pattern-only part of ``find_monomorphisms``'s search, which
    holds no host object: the sorted node ids, the static order, one step
    per position in that order, each pattern edge's ends as its type and
    the indices of its source and target among the sorted node ids, and
    the sorted edge ids, which the ends follow. A step is the node's type,
    its per-type degrees as (side, type, count), its ties, and the (side,
    placed end, type) of its first tie that is not a self-loop, or None;
    side 0 reads a host node's outgoing neighbours and side 1 its incoming
    ones."""
    q_idx = q.index()
    q_nodes = sorted(q.node_set)
    degrees: dict[str, list[tuple[int, str, int]]] = {n: [] for n in q_nodes}
    for side, nbrs in enumerate((q_idx.out_nbrs, q_idx.in_nbrs)):
        for (n, t), ns in nbrs.items():
            degrees[n].append((side, t, len(ns)))
    # Static order: highest total degree first, id as tie-break.
    order = sorted(q_nodes, key=lambda n: (-sum(k for _, _, k in degrees[n]), n))
    position = {n: i for i, n in enumerate(order)}
    ties: list[list[tuple[str, str, str, int]]] = [[] for _ in order]
    for (t, src, tgt), members in q_idx.edges_by_key.items():
        ties[max(position[src], position[tgt])].append((t, src, tgt, len(members)))
    steps = []
    for qv, qv_ties in zip(order, ties):
        seed = next(((1, g, t) if s == qv else (0, s, t) for t, s, g, _ in qv_ties if s != g), None)
        steps.append((q.store.elem_type(qv), degrees[qv], qv_ties, seed))
    q_pos = {n: i for i, n in enumerate(q_nodes)}
    q_edges = sorted(q.edge_set)
    ends = [(t, q_pos[s], q_pos[g]) for t, s, g in map(q.store._edges.__getitem__, q_edges)]
    return q_nodes, order, steps, ends, q_edges


@overload
def find_monomorphisms(pattern: Pattern, host: Model) -> list[Match]: ...


@overload
def find_monomorphisms(
    pattern: Pattern, host: Model, presence: Callable[[str], int], start: int
) -> list[tuple[Match, int]]: ...


def find_monomorphisms(
    pattern: Pattern,
    host: Model,
    presence: Callable[[str], int] | None = None,
    start: int | None = None,
) -> list[Match] | list[tuple[Match, int]]:
    """Enumerate all embeddings of the pattern into the host.

    An embedding maps pattern nodes and edges injectively to host nodes
    and edges of the same types, preserving every edge's source and
    target. The result is sorted by the tuple of host images taken in
    pattern id order, so callers see a stable order.

    Backtracks over pattern nodes in static degree-descending order. A
    node's ties are the pattern's (type, source, target) edge groups
    whose later end in that order is the node, self-loops included;
    they, the node's type and its per-type degrees are planned once per
    pattern, kept on the pattern's index. Candidates are drawn from the
    host neighbours of one tie's placed end, or from all host nodes of
    the type. One filter, plain loops over the plan, keeps a candidate
    that is unused, has the type, and whose per-type out- and in-degrees
    and host edge group of every tie are at least as large as the
    pattern's.

    Edge images are assigned after the node map is complete, since they
    are only ambiguous between parallel edges: each pattern edge, in
    sorted id order, takes an edge from the host's group of its type
    between its mapped ends, and a choice in which two pattern edges take
    one host edge is skipped, so parallel pattern edges take distinct
    host edges. The ends are planned once per pattern, kept on the
    pattern's index; a match zips the sorted pattern node ids with their
    images, and the sorted pattern edge ids with the chosen host edges.

    With ``presence``, a map from each host element to a version mask,
    only embeddings that some version in ``start`` (a non-negative mask,
    given exactly when ``presence`` is; a ``ValueError`` otherwise) holds
    whole are kept, and each comes back as a ``(match, mask)`` pair whose
    mask is the AND of ``start`` and of the presences of every image,
    never 0. The search drops a partial embedding as soon as no version
    can hold it: each candidate carries the mask of the node placed
    before it, and the filter's tie loop, for each tie whose host edge
    group is large enough, ANDs in the OR of the group's presences,
    which bounds every choice among parallel edges, and drops the
    candidate once its mask reaches 0. An edge choice is kept only when
    ANDing its edges' presences leaves a mask. An edge's presence lies
    within its ends', so only the image of a pattern node without edges
    ANDs in its own, and the mask is exact. Without ``presence`` every
    candidate carries a constant mask and no presence is read.

    The matcher leaves no reference cycles: reference counting frees
    its working state on return, even with the cyclic garbage collector
    off. Only the indices it caches on the two models, and the plan on
    the pattern's index, outlive the call; the plan holds no host object.
    """
    q = pattern.graph
    if q.type_graph != host.type_graph:
        raise TypeGraphMismatch("pattern and host use different type graphs")
    if (presence is None) != (start is None) or (start is not None and start < 0):
        raise ValueError("presence and a non-negative start are given together or not at all")
    if (q.edge_set and not q.node_set) or start == 0:
        return []
    if not q.node_set:
        return [Match((), ())] if presence is None else [(Match((), ()), start)]
    if len(q.node_set) > len(host.node_set):
        return []

    q_idx = q.index()
    if q_idx.plan is None:
        q_idx.plan = _match_plan(q)
    q_nodes, order, steps, ends, q_edges = q_idx.plan
    h_idx = host.index()
    h_type = host.store._nodes
    h_out, h_in, h_edges = h_idx.out_nbrs, h_idx.in_nbrs, h_idx.edges_by_key
    # The plan's degrees bound to this host, as (host neighbour map, type, count).
    sides = (h_out, h_in)
    plan = [
        (qv_type, [(sides[side], t, k) for side, t, k in degrees], qv_ties, seed)
        for qv_type, degrees, qv_ties, seed in steps
    ]

    assignment: dict[str, str] = {}
    used: set[str] = set()
    node_maps: list[tuple[tuple[str, ...], int]] = []  # the images of q_nodes, with their mask

    def candidates(i: int, running: int) -> list[tuple[str, int]]:
        """The host nodes that can take the pattern node at i, each with
        ``running`` narrowed to the versions that can hold it there."""
        qv_type, degrees, qv_ties, seed = plan[i]
        if seed is None:
            pool = h_idx.nodes_by_type.get(qv_type, ())
        else:
            side, other, t = seed
            pool = set(sides[side][assignment[other], t])
        # The node at i is not assigned yet and every other tie end is,
        # so assignment.get(end, h) maps a tie end to its host image.
        out = []
        for h in pool:
            if h in used or h_type[h] != qv_type:
                continue
            for nbrs, t, k in degrees:
                if len(nbrs.get((h, t), ())) < k:
                    break
            else:
                # An edge's presence lies within its ends', so only a node
                # without edges needs its own.
                mask = running if degrees or presence is None else running & presence(h)
                for t, s, g, k in qv_ties:
                    group = h_edges.get((t, assignment.get(s, h), assignment.get(g, h)), ())
                    if len(group) < k:
                        break
                    if presence is not None:
                        held = 0
                        for e in group:
                            held |= presence(e)
                        mask &= held
                        if not mask:
                            break
                else:
                    if mask:
                        out.append((h, mask))
        return out

    # Depth-first search, holding one candidate iterator per pattern node
    # on the search path; an explicit stack, since a recursive closure
    # would refer to itself and leave a reference cycle behind each call.
    stack = [iter(candidates(0, -1 if start is None else start))]
    while stack:
        qv = order[len(stack) - 1]
        if qv in assignment:
            used.discard(assignment.pop(qv))
        h, mask = next(stack[-1], (None, 0))
        if h is None:
            stack.pop()
        else:
            assignment[qv] = h
            used.add(h)
            if len(stack) < len(order):
                stack.append(iter(candidates(len(stack), mask)))
            else:
                node_maps.append((tuple(map(assignment.__getitem__, q_nodes)), mask))

    # Assign edge images. The ties already checked that every group has
    # enough host edges, so every group is there and every node map yields.
    matches: list = []
    for images, node_mask in node_maps:
        node_pairs = tuple(zip(q_nodes, images))
        for combo in itertools.product(*[h_edges[t, images[s], images[g]] for t, s, g in ends]):
            if len(set(combo)) < len(combo):  # parallel pattern edges took one host edge
                continue
            if presence is None:
                matches.append(Match(node_pairs, tuple(zip(q_edges, combo))))
                continue
            mask = node_mask
            for e in combo:
                mask &= presence(e)
            if mask:
                matches.append((Match(node_pairs, tuple(zip(q_edges, combo))), mask))
    matches.sort()
    return matches


def pcheck(model: Model, pattern: Pattern) -> list[Match]:
    """All embeddings of the violation pattern; empty means the model conforms."""
    return find_monomorphisms(pattern, model)

