"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from mvmodel import Model, ModelVersioning, Pattern, TypeGraph, oo_type_graph
from conftest import build_store, make_pattern

# A small OO pool in which every constraint can be violated: class c1 can
# extend both c2 and c3, method m1 can return both t1 and t2, and m1
# overrides m2, which can return the other type.
POOL_NODES = {
    "c1": "Class", "c2": "Class", "c3": "Class",
    "m1": "Method", "m2": "Method",
    "t1": "TypeRef", "t2": "TypeRef",
}
POOL_EDGES = {
    "sup12": ("superclass", "c1", "c2"),
    "sup13": ("superclass", "c1", "c3"),
    "sup23": ("superclass", "c2", "c3"),
    "own1": ("owns", "c1", "m1"),
    "own2": ("owns", "c2", "m2"),
    "rt11": ("returnType", "m1", "t1"),
    "rt12": ("returnType", "m1", "t2"),
    "rt21": ("returnType", "m2", "t1"),
    "rt22": ("returnType", "m2", "t2"),
    "ovr": ("overrides", "m1", "m2"),
}


def drawn_history(draw, count: int, type_graph: TypeGraph, nodes, edges) -> tuple[dict, set, str]:
    """The models, modifications and root of a history of ``count``
    versions over a pool of nodes and edges.

    The modifications form a random DAG in which every version but the
    root has 1-3 parents among the versions drawn before it. Each version
    is an arbitrary endpoint-closed subset of the pool, so elements
    disappear and come back. Version ids are shuffled, so id order is
    not a topological order.
    """
    ids = draw(st.permutations([f"v{k}" for k in range(count)]))
    store = build_store(type_graph, nodes, edges)
    versions = {}
    modifications = set()
    for k, vid in enumerate(ids):
        held = draw(st.sets(st.sampled_from(sorted(nodes))))
        closed = [e for e, (_, s, g) in sorted(edges.items()) if {s, g} <= held]
        chosen = draw(st.sets(st.sampled_from(closed))) if closed else set()
        versions[vid] = Model(store, type_graph, held, chosen)
        if k:
            parents = draw(st.sets(st.sampled_from(ids[:k]), min_size=1, max_size=min(3, k)))
            modifications |= {(p, vid) for p in parents}
    return versions, modifications, ids[0]


@st.composite
def history_args(draw, max_versions: int = 8) -> tuple[dict, set, str]:
    """The models, modifications and root of an arbitrary valid history
    over the OO pool (see ``drawn_history``)."""
    count = draw(st.integers(2, max_versions))
    return drawn_history(draw, count, oo_type_graph(), POOL_NODES, POOL_EDGES)


@st.composite
def histories(draw, max_versions: int = 8) -> ModelVersioning:
    """An arbitrary valid history over the OO pool (see ``drawn_history``),
    drawn as ``history_args`` draws its arguments."""
    count = draw(st.integers(2, max_versions))
    return ModelVersioning(*drawn_history(draw, count, oo_type_graph(), POOL_NODES, POOL_EDGES))


def drawn_edge(draw, edge_type: str, end_types: tuple[str, str], nodes: dict[str, str]):
    """A (type, source, target) edge between drawn nodes of the end types,
    possibly a self-loop, or None when a type has no node."""
    pools = [[n for n, t in nodes.items() if t == end] for end in end_types]
    if all(pools):
        return (edge_type, *(draw(st.sampled_from(pool)) for pool in pools))
    return None


@st.composite
def typed_histories(draw, max_versions: int = 6) -> ModelVersioning:
    """An arbitrary valid history over a drawn type graph, as ``histories``
    draws one over the OO pool.

    The type graph has 1-3 node types and 1-4 edge types, and its first
    edge type is a self-loop type. The pool has 2-5 nodes and always two
    parallel self-loops of that type, on one node; its drawn edges may be
    further self-loops and parallel edges.
    """
    node_types = [f"N{k}" for k in range(draw(st.integers(1, 3)))]
    looped = draw(st.sampled_from(node_types))
    edge_types = {"E0": (looped, looped)}
    for k in range(1, draw(st.integers(1, 4))):
        edge_types[f"E{k}"] = (draw(st.sampled_from(node_types)), draw(st.sampled_from(node_types)))
    type_graph = TypeGraph(node_types, edge_types)
    kinds = [looped] + draw(st.lists(st.sampled_from(node_types), min_size=1, max_size=4))
    nodes = {f"n{k}": t for k, t in enumerate(kinds)}
    edges = {"x0": ("E0", "n0", "n0"), "x1": ("E0", "n0", "n0")}
    for k in range(2, 2 + draw(st.integers(0, 6))):
        t = draw(st.sampled_from(sorted(edge_types)))
        edge = drawn_edge(draw, t, edge_types[t], nodes)
        if edge:
            edges[f"x{k}"] = edge
    count = draw(st.integers(2, max_versions))
    return ModelVersioning(*drawn_history(draw, count, type_graph, nodes, edges))


@st.composite
def patterns(draw, type_graph: TypeGraph) -> Pattern:
    """A pattern over the type graph with 1-3 nodes and 0-3 edges, which
    may be self-loops or parallel: connected or not, with isolated nodes,
    or with no edge at all. A drawn edge type with no pattern node of its
    source or target type adds no edge."""
    kinds = draw(st.lists(st.sampled_from(sorted(type_graph.node_types)), min_size=1, max_size=3))
    nodes = {f"p{k}": t for k, t in enumerate(kinds)}
    edges = {}
    for k in range(draw(st.integers(0, 3))):
        t = draw(st.sampled_from(sorted(type_graph.edge_types)))
        edge = drawn_edge(draw, t, type_graph.endpoint_types(t), nodes)
        if edge:
            edges[f"q{k}"] = edge
    return make_pattern(f"drawn{len(nodes)}x{len(edges)}", type_graph, nodes, edges)
