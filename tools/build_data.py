#!/usr/bin/env python3
"""Rebuild everything under data/ from scratch.

The fixtures are committed, so this script only needs to run when the
corpus content changes. It asserts the analysis results each fixture is
expected to produce; a failing assert means the fixtures and the golden
tests have drifted apart.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

from mvmodel import (
    ElementStore,
    GeneratorParams,
    Model,
    ModelVersioning,
    Pattern,
    TypeGraph,
    comb,
    mcheck_mv,
    oo_constraint_patterns,
    oo_type_graph,
    pcheck_m_mv,
    pcheck_mv,
    write_constraints,
    write_corpus,
)
from mvmodel.bench import BENCH_FORMAT
from mvmodel.corpus import canonical_json

DATA = Path(__file__).resolve().parent.parent / "data"


def class_only_type_graph() -> TypeGraph:
    return TypeGraph(node_types={"Class"}, edge_types={"superclass": ("Class", "Class")})


def build_running_example() -> ModelVersioning:
    """Three versions of a four-class graph; M_2 and M_3 diverge from M_1."""
    tg = class_only_type_graph()
    store = ElementStore()
    for c in ("c1", "c2", "c3", "c4"):
        store.add_node(c, "Class")
    store.add_edge("sup_c1_c3", "superclass", "c1", "c3")
    store.add_edge("sup_c1_c2", "superclass", "c1", "c2")
    store.add_edge("sup_c4_c2", "superclass", "c4", "c2")
    versions = {
        "M_1": Model(store, tg, {"c1", "c2", "c3", "c4"}, set()),
        "M_2": Model(store, tg, {"c1", "c2", "c3"}, {"sup_c1_c3"}),
        "M_3": Model(store, tg, {"c1", "c2", "c3", "c4"}, {"sup_c1_c2", "sup_c4_c2"}),
    }
    return ModelVersioning(versions, {("M_1", "M_2"), ("M_1", "M_3")}, root="M_1")


def running_constraint() -> Pattern:
    tg = class_only_type_graph()
    store = ElementStore()
    for n in ("cls", "sup_a", "sup_b"):
        store.add_node(n, "Class")
    store.add_edge("ext_a", "superclass", "cls", "sup_a")
    store.add_edge("ext_b", "superclass", "cls", "sup_b")
    return Pattern(
        "unique-superclass", Model(store, tg, {"cls", "sup_a", "sup_b"}, {"ext_a", "ext_b"})
    )


def build_oo_project() -> ModelVersioning:
    """Six versions of a small class model, including a recorded merge.

    v0   two classes, B extends A, both own a method returning t_int
    v1   adds class C with method bar returning t_str
    v2   retypes B.foo to t_str (override now differs from A.foo)
    v3   gives C a second superclass
    v4   merge of v2 and v3 that also restores the t_int return type
    v5   drops class C again, starting from v2
    """
    tg = oo_type_graph()
    store = ElementStore()
    for n, t in (
        ("cls_a", "Class"), ("cls_b", "Class"), ("cls_c", "Class"),
        ("foo_a", "Method"), ("foo_b", "Method"), ("bar_c", "Method"),
        ("t_int", "TypeRef"), ("t_str", "TypeRef"),
    ):
        store.add_node(n, t)
    for e, t, s, g in (
        ("sup_b_a", "superclass", "cls_b", "cls_a"),
        ("sup_c_b", "superclass", "cls_c", "cls_b"),
        ("sup_c_a", "superclass", "cls_c", "cls_a"),
        ("owns_a_foo", "owns", "cls_a", "foo_a"),
        ("owns_b_foo", "owns", "cls_b", "foo_b"),
        ("owns_c_bar", "owns", "cls_c", "bar_c"),
        ("rt_afoo_int", "returnType", "foo_a", "t_int"),
        ("rt_bfoo_int", "returnType", "foo_b", "t_int"),
        ("rt_bfoo_str", "returnType", "foo_b", "t_str"),
        ("rt_cbar_str", "returnType", "bar_c", "t_str"),
        ("ovr_bfoo_afoo", "overrides", "foo_b", "foo_a"),
    ):
        store.add_edge(e, t, s, g)

    v0_nodes = {"cls_a", "cls_b", "foo_a", "foo_b", "t_int", "t_str"}
    v0_edges = {"sup_b_a", "owns_a_foo", "owns_b_foo", "rt_afoo_int", "rt_bfoo_int", "ovr_bfoo_afoo"}
    v1_nodes = v0_nodes | {"cls_c", "bar_c"}
    v1_edges = v0_edges | {"sup_c_b", "owns_c_bar", "rt_cbar_str"}
    v2_edges = (v1_edges - {"rt_bfoo_int"}) | {"rt_bfoo_str"}
    v3_edges = v1_edges | {"sup_c_a"}
    v4_edges = v1_edges | {"sup_c_a", "rt_bfoo_str"}
    v5_nodes = v1_nodes - {"cls_c", "bar_c"}
    v5_edges = v2_edges - {"sup_c_b", "owns_c_bar", "rt_cbar_str"}

    versions = {
        "v0": Model(store, tg, v0_nodes, v0_edges),
        "v1": Model(store, tg, v1_nodes, v1_edges),
        "v2": Model(store, tg, v1_nodes, v2_edges),
        "v3": Model(store, tg, v1_nodes, v3_edges),
        "v4": Model(store, tg, v1_nodes, v4_edges),
        "v5": Model(store, tg, v5_nodes, v5_edges),
    }
    mods = {("v0", "v1"), ("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v4"), ("v2", "v5")}
    return ModelVersioning(versions, mods, root="v0")


def check_running(versioning: ModelVersioning, pattern: Pattern) -> None:
    mvm = comb(versioning)
    assert pcheck_mv(mvm, pattern) == []
    conflicts = mcheck_mv(mvm)
    assert [(c.left, c.right, c.base, c.edge, c.node) for c in conflicts] == [
        ("M_2", "M_3", "M_1", "sup_c4_c2", "c4")
    ], conflicts
    merge_hits = pcheck_m_mv(mvm, pattern)
    assert len(merge_hits) == 2, merge_hits
    assert all(r.left == "M_2" and r.right == "M_3" and r.base == "M_1" for r in merge_hits)
    assert all(dict(r.match.nodes)["cls"] == "c1" for r in merge_hits)


def check_oo_project(versioning: ModelVersioning) -> None:
    mvm = comb(versioning)
    pats = {p.name: p for p in oo_constraint_patterns()}
    per_version: dict[str, int] = {}
    for p in pats.values():
        for hit in pcheck_mv(mvm, p):
            per_version[hit.version] = per_version.get(hit.version, 0) + 1
    assert per_version == {"v2": 1, "v3": 2, "v4": 5, "v5": 1}, per_version
    conflicts = mcheck_mv(mvm)
    assert [(c.left, c.right, c.base, c.edge, c.node) for c in conflicts] == [
        ("v3", "v5", "v1", "sup_c_a", "cls_c"),
        ("v4", "v5", "v2", "sup_c_a", "cls_c"),
    ], conflicts
    per_triplet: dict[tuple[str, str, str], int] = {}
    for p in pats.values():
        for r in pcheck_m_mv(mvm, p):
            key = (r.left, r.right, r.base)
            per_triplet[key] = per_triplet.get(key, 0) + 1
    assert per_triplet == {
        ("v2", "v3", "v1"): 3,
        ("v3", "v5", "v1"): 1,
        ("v4", "v5", "v2"): 3,
    }, per_triplet


def bench_params(corpus: GeneratorParams, tasks: list[str], constraints: str | None, lcp: str = "all") -> bytes:
    obj = {
        "format": BENCH_FORMAT,
        "corpus": asdict(corpus),
        "tasks": tasks,
        "lcp": lcp,
    }
    if constraints is not None:
        obj["constraints"] = constraints
    return canonical_json(obj)


def main() -> int:
    DATA.mkdir(exist_ok=True)

    running = build_running_example()
    pattern = running_constraint()
    check_running(running, pattern)
    (DATA / "running.corpus.json").write_bytes(write_corpus(running))
    (DATA / "running_constraints.json").write_bytes(write_constraints([pattern]))

    project = build_oo_project()
    check_oo_project(project)
    (DATA / "oo_project.corpus.json").write_bytes(write_corpus(project))
    (DATA / "oo_constraints.json").write_bytes(write_constraints(oo_constraint_patterns()))

    # Near-clean wide history: one fold amortises over 120 per-version scans.
    favoring = GeneratorParams(seed=3, base_size=1000, branch_factor=2, version_count=120,
                               edits_per_modification=2, deletion_bias=0.95)
    (DATA / "bench_check.params.json").write_bytes(
        bench_params(favoring, ["check"], "oo_constraints.json")
    )

    # Linear history, almost everything created after the root: nothing is
    # mergeable, so scanning every created element is pure overhead.
    adverse = GeneratorParams(seed=0, base_size=50, branch_factor=1, version_count=200,
                              edits_per_modification=8, deletion_bias=0.1)
    (DATA / "bench_conflicts.params.json").write_bytes(
        bench_params(adverse, ["conflicts"], None)
    )

    small = GeneratorParams(seed=0, base_size=10, branch_factor=2, version_count=6,
                            edits_per_modification=4, deletion_bias=0.5)
    (DATA / "bench_small_all.params.json").write_bytes(
        bench_params(small, ["check", "conflicts", "merge-check"], "oo_constraints.json")
    )

    # Merge-heavy branching history: many concurrent pairs, each merged and
    # checked by the per-version route, which still finishes in seconds.
    merge_heavy = GeneratorParams(seed=0, base_size=200, branch_factor=3, version_count=100,
                                  edits_per_modification=4, deletion_bias=0.5)
    (DATA / "bench_merge.params.json").write_bytes(
        bench_params(merge_heavy, ["conflicts", "merge-check"], "oo_constraints.json")
    )

    for f in sorted(DATA.iterdir()):
        print(f"{f.relative_to(DATA.parent)}  {f.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
