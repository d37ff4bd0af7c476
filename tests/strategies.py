"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from mvmodel import Model, ModelVersioning, oo_type_graph
from conftest import build_store

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


@st.composite
def histories(draw, max_versions: int = 8) -> ModelVersioning:
    """An arbitrary valid history over the pool.

    The modifications form a random DAG in which every version but the
    root has 1-3 parents among the versions drawn before it. Each version
    is an arbitrary endpoint-closed subset of the pool, so elements
    disappear and come back. Version ids are shuffled, so id order is
    not a topological order.
    """
    count = draw(st.integers(2, max_versions))
    ids = draw(st.permutations([f"v{k}" for k in range(count)]))
    type_graph = oo_type_graph()
    store = build_store(type_graph, POOL_NODES, POOL_EDGES)
    versions = {}
    modifications = set()
    for k, vid in enumerate(ids):
        nodes = draw(st.sets(st.sampled_from(sorted(POOL_NODES))))
        closed = [e for e, (_, s, g) in sorted(POOL_EDGES.items()) if {s, g} <= nodes]
        edges = draw(st.sets(st.sampled_from(closed))) if closed else set()
        versions[vid] = Model(store, type_graph, nodes, edges)
        if k:
            parents = draw(st.sets(st.sampled_from(ids[:k]), min_size=1, max_size=min(3, k)))
            modifications |= {(p, vid) for p in parents}
    return ModelVersioning(versions, modifications, ids[0])
