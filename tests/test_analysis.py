"""Folded analyses against per-version baselines, plus frozen examples."""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from itertools import permutations
from time import perf_counter

import pytest

from mvmodel import (
    GeneratorParams,
    Match,
    MergeConflictReport,
    MergeViolationReport,
    Model,
    ModelVersioning,
    TypeGraph,
    VersionedViolation,
    comb,
    find_monomorphisms,
    generate_versioning,
    mcheck_mv,
    oo_constraint_patterns,
    oo_type_graph,
    parse_corpus,
    pcheck_m_mv,
    pcheck_mv,
    svm_check,
    svm_conflicts,
    svm_merge_check,
)
from mvmodel.oo import unique_return_type_pattern
from mvmodel.versioning import LCP_MODES, VersionDag, bits, check_lcp_mode
from conftest import build_store, make_pattern, merge_history
from oracles import brute_force_monomorphisms, latest_common_predecessors

CLS_TG = TypeGraph({"Class"}, {"superclass": ("Class", "Class")})


def unique_superclass_pattern():
    return make_pattern(
        "unique-superclass",
        CLS_TG,
        {"cls": "Class", "sup_a": "Class", "sup_b": "Class"},
        {"ext_a": ("superclass", "cls", "sup_a"), "ext_b": ("superclass", "cls", "sup_b")},
    )


def running_example() -> ModelVersioning:
    store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class", "c4": "Class"},
        {
            "sup_c1_c3": ("superclass", "c1", "c3"),
            "sup_c1_c2": ("superclass", "c1", "c2"),
            "sup_c4_c2": ("superclass", "c4", "c2"),
        },
    )
    versions = {
        "M_1": Model(store, CLS_TG, {"c1", "c2", "c3", "c4"}, set()),
        "M_2": Model(store, CLS_TG, {"c1", "c2", "c3"}, {"sup_c1_c3"}),
        "M_3": Model(store, CLS_TG, {"c1", "c2", "c3", "c4"}, {"sup_c1_c2", "sup_c4_c2"}),
    }
    v = ModelVersioning(versions, {("M_1", "M_2"), ("M_1", "M_3")}, root="M_1")
    v.validate()
    return v


def acceptance_params(seed: int, base: int = 8) -> GeneratorParams:
    return GeneratorParams(
        seed=seed,
        base_size=base,
        branch_factor=1 + seed % 3,
        version_count=1 + seed % 8,
        edits_per_modification=seed % 5,
        deletion_bias=(seed % 4) * 0.25,
    )


def test_lcp_mode_is_checked():
    check_lcp_mode("all")
    check_lcp_mode("single")
    with pytest.raises(ValueError):
        check_lcp_mode("first")


def test_no_version_violates_in_the_fork_example():
    versioning = running_example()
    pattern = unique_superclass_pattern()
    assert pcheck_mv(comb(versioning), pattern) == []
    assert svm_check(versioning, [pattern]) == [[]]


def test_fork_example_has_exactly_one_conflict():
    versioning = running_example()
    expected = [
        MergeConflictReport(
            left="M_2", right="M_3", base="M_1", edge="sup_c4_c2", node="c4"
        )
    ]
    assert mcheck_mv(comb(versioning)) == expected
    assert mcheck_mv(comb(versioning), "single") == expected
    assert svm_conflicts(versioning) == expected


def test_fork_example_merge_violations_root_at_c1():
    versioning = running_example()
    pattern = unique_superclass_pattern()
    expected = [
        MergeViolationReport(
            left="M_2",
            right="M_3",
            base="M_1",
            match=Match(
                nodes=(("cls", "c1"), ("sup_a", "c2"), ("sup_b", "c3")),
                edges=(("ext_a", "sup_c1_c2"), ("ext_b", "sup_c1_c3")),
            ),
        ),
        MergeViolationReport(
            left="M_2",
            right="M_3",
            base="M_1",
            match=Match(
                nodes=(("cls", "c1"), ("sup_a", "c3"), ("sup_b", "c2")),
                edges=(("ext_a", "sup_c1_c3"), ("ext_b", "sup_c1_c2")),
            ),
        ),
    ]
    assert pcheck_m_mv(comb(versioning), pattern) == expected
    assert svm_merge_check(versioning, [pattern]) == [expected]


def test_pcheck_mv_reports_per_version():
    store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    clean = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12"})
    dirty = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12", "e13"})
    versioning = ModelVersioning(
        {"r": clean, "bad": dirty}, {("r", "bad")}, root="r"
    )
    versioning.validate()
    hits = pcheck_mv(comb(versioning), unique_superclass_pattern())
    assert [h.version for h in hits] == ["bad", "bad"]
    assert all(isinstance(h, VersionedViolation) for h in hits)
    assert [hits] == svm_check(versioning, [unique_superclass_pattern()])


def test_pcheck_mv_ignores_matches_spanning_versions():
    """Pattern parts that never coexist in one version must not be reported."""
    store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    base = Model(store, CLS_TG, {"c1", "c2", "c3"}, set())
    only12 = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12"})
    only13 = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e13"})
    versioning = ModelVersioning(
        {"r": base, "a": only12, "b": only13},
        {("r", "a"), ("r", "b")},
        root="r",
    )
    versioning.validate()
    mvm = comb(versioning)
    # both edges are in the union of the versions, so the match on it exists
    assert "e12" in mvm.union.edge_set and "e13" in mvm.union.edge_set
    assert pcheck_mv(mvm, unique_superclass_pattern()) == []
    assert svm_check(versioning, [unique_superclass_pattern()]) == [[]]


def test_empty_pattern_is_reported_in_every_version():
    """The empty pattern has one embedding, which touches no element, so
    the AND of no presence masks holds it in every version, and it
    survives the merge of every mergeable pair over each drawn base."""
    versioning = merge_history(0)
    empty = make_pattern("empty", versioning.type_graph, {}, {})
    assert find_monomorphisms(empty, versioning.version(versioning.root)) == [Match((), ())]
    want = [VersionedViolation(v, Match((), ())) for v in versioning.ids]
    assert pcheck_mv(comb(versioning), empty) == want
    assert svm_check(versioning, [empty]) == [want]
    table = versioning.latest_common_predecessor_table()
    for mode in LCP_MODES:
        merged = [
            MergeViolationReport(i, j, base, Match((), ()))
            for (i, j), bases in sorted(table.items())
            for base in versioning.ids_of(bases)[: 1 if mode == "single" else None]
        ]
        assert merged
        assert pcheck_m_mv(comb(versioning), empty, mode) == merged
        assert svm_merge_check(versioning, [empty], mode) == [merged]


def test_a_tie_is_held_by_any_of_its_parallel_edges():
    """Two parallel self-loops, each held by one version: the search must
    bound a tie by the OR of its edge group's presences, not by any one
    edge's, or it loses the version that holds the other edge."""
    tg = TypeGraph({"Node"}, {"loop": ("Node", "Node")})
    store = build_store(tg, {"n": "Node"}, {"x": ("loop", "n", "n"), "y": ("loop", "n", "n")})
    versioning = ModelVersioning(
        {"r": Model(store, tg, {"n"}, {"x"}), "a": Model(store, tg, {"n"}, {"y"})},
        {("r", "a")},
        root="r",
    )
    pattern = make_pattern("loop", tg, {"p": "Node"}, {"q": ("loop", "p", "p")})
    assert [pcheck_mv(comb(versioning), pattern)] == svm_check(versioning, [pattern]) == [[
        VersionedViolation("a", Match((("p", "n"),), (("q", "y"),))),
        VersionedViolation("r", Match((("p", "n"),), (("q", "x"),))),
    ]]


def churn_chain(count: int) -> ModelVersioning:
    """A chain of ``count`` versions in which one Method's returnType moves
    to a fresh TypeRef in every version: the union holds ``count`` return
    types of the method, and no version holds two."""
    tg = oo_type_graph()
    refs = [f"t{k:04d}" for k in range(count)]
    store = build_store(
        tg,
        {"m": "Method", **dict.fromkeys(refs, "TypeRef")},
        {f"r{t}": ("returnType", "m", t) for t in refs},
    )
    versions = {f"v{k:04d}": Model(store, tg, {"m", t}, {f"r{t}"}) for k, t in enumerate(refs)}
    return ModelVersioning(versions, {(f"v{k - 1:04d}", f"v{k:04d}") for k in range(1, count)}, "v0000")


def test_churn_chain_search_drops_what_no_version_holds():
    """Unmasked, the union embeds the pattern on every ordered pair of the
    method's return types; with the fold's presence, no version holds
    both edges, so the search returns nothing."""
    versioning = churn_chain(30)
    mvm, pattern = comb(versioning), unique_return_type_pattern()
    pairs = [(m.node_map["ret_a"], m.node_map["ret_b"]) for m in find_monomorphisms(pattern, mvm.union)]
    assert sorted(pairs) == list(permutations(sorted(mvm.union.node_set - {"m"}), 2))
    assert find_monomorphisms(pattern, mvm.union, mvm.presence, (1 << 30) - 1) == []
    assert [pcheck_mv(mvm, pattern)] == svm_check(versioning, [pattern]) == [[]]


def test_churn_chain_check_is_not_paid_per_union_embedding():
    """At 800 versions the union has 639,200 embeddings of the pattern.
    Listing them all took 5.7-8 s; the search that drops each at its
    second return type takes 0.5-1.3 s (a shared 2-core x86-64 machine,
    Python 3.11). The 5 s bound leaves the search about 4x room and is
    still below what listing took."""
    versioning = churn_chain(800)
    mvm, pattern = comb(versioning), unique_return_type_pattern()
    began = perf_counter()
    assert pcheck_mv(mvm, pattern) == []
    assert perf_counter() - began < 5.0
    assert svm_check(versioning, [pattern]) == [[]]


def test_matcher_takes_presence_and_start_together(data_dir):
    """A presence without a start mask, a start mask without a presence, or
    a negative start mask, is refused rather than read as "keep nothing",
    ignored, or as a mask whose bits never end; a start of 0 with a
    presence is a legal empty search."""
    mvm = comb(parse_corpus((data_dir / "oo_project.corpus.json").read_bytes()))
    full = (1 << len(mvm.dag.ids)) - 1
    for pattern in oo_constraint_patterns():
        assert find_monomorphisms(pattern, mvm.union)
        assert find_monomorphisms(pattern, mvm.union, mvm.presence, 0) == []
        with pytest.raises(ValueError):
            find_monomorphisms(pattern, mvm.union, mvm.presence)
        with pytest.raises(ValueError):
            find_monomorphisms(pattern, mvm.union, start=full)
    empty = make_pattern("empty", mvm.union.type_graph, {}, {})
    with pytest.raises(ValueError):
        find_monomorphisms(empty, mvm.union, mvm.presence, -1)


def test_merge_preview_applies_deletions_before_matching():
    """A violation avoided by one side's deletion must not be predicted."""
    store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    base = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12"})
    drop = Model(store, CLS_TG, {"c1", "c2", "c3"}, set())
    add = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12", "e13"})
    versioning = ModelVersioning(
        {"r": base, "a": drop, "b": add}, {("r", "a"), ("r", "b")}, root="r"
    )
    versioning.validate()
    # merged result keeps only e13: a deleted e12, b created e13
    assert pcheck_m_mv(comb(versioning), unique_superclass_pattern()) == []
    assert svm_merge_check(versioning, [unique_superclass_pattern()]) == [[]]


@pytest.mark.parametrize("seed", range(25))
def test_folded_check_equals_per_version_check(seed):
    versioning = generate_versioning(acceptance_params(seed))
    mvm, patterns = comb(versioning), oo_constraint_patterns()
    assert [pcheck_mv(mvm, p) for p in patterns] == svm_check(versioning, patterns)


@pytest.mark.parametrize("source", ["oo_project", "generated"])
def test_svm_check_builds_each_version_index_once_and_lets_it_go(data_dir, monkeypatch, source):
    """The per-version check visits each version once for all patterns:
    it builds exactly one matcher index per version during the call, no
    version model it built is reachable when it returns, and every list is
    what the brute-force matcher finds in each version, in id order."""
    if source == "oo_project":
        versioning = parse_corpus((data_dir / "oo_project.corpus.json").read_bytes())
    else:
        versioning = generate_versioning(acceptance_params(13))
    patterns = oo_constraint_patterns()
    store = versioning.store
    builds = 0
    index = Model.index

    def counted(model):
        nonlocal builds
        if model._index is None and model.store is store:
            builds += 1
        return index(model)

    monkeypatch.setattr(Model, "index", counted)
    found = svm_check(versioning, patterns)
    monkeypatch.undo()
    assert builds == len(versioning.ids)
    gc.collect()
    alive = [x for x in gc.get_objects() if isinstance(x, Model) and x.store is store]
    assert alive == [versioning.union]
    assert found == [
        [VersionedViolation(v, m) for v, model in versioning.versions.items()
         for m in brute_force_monomorphisms(pattern, model)]
        for pattern in patterns
    ]
    assert any(found)


@pytest.mark.parametrize("history", ["generated-4", "generated-22", "merges-10", "merges-12"])
def test_per_version_routes_hold_each_distinct_match_once(history):
    """Matches that several versions, or several merged models, hold are
    one object in the rows of both routes, and the per-version rows still
    equal the folded ones. Each history has more rows than distinct matches
    in both analyses; the merges ones rename their versions, and on
    merges-12 the lcp modes differ."""
    kind, seed = history.split("-")
    if kind == "merges":
        versioning = merge_history(int(seed))
    else:
        versioning = generate_versioning(acceptance_params(int(seed)))
    mvm, patterns = comb(versioning), oo_constraint_patterns()

    def assert_shared(groups):
        rows = [r for found in groups for r in found]
        assert len({id(r.match) for r in rows}) == len({r.match for r in rows}) < len(rows)

    runs = [(svm_check(versioning, patterns), [pcheck_mv(mvm, p) for p in patterns])]
    runs += [(svm_merge_check(versioning, patterns, mode),
              [pcheck_m_mv(mvm, p, mode) for p in patterns]) for mode in LCP_MODES]
    for per_version, folded in runs:
        assert per_version == folded
        assert_shared(per_version)
        assert_shared(folded)


def test_per_version_check_result_is_held_like_the_folded_one():
    """On a chain like the benchmark's chain-dense shape, where each match
    is held by many versions, the per-version check's result takes no more
    than 1.5x the memory of the folded check's (a fresh Match per version
    would take about 5.8x). Each route runs once unmeasured, so that
    the union's matcher index is not counted; a full collection after the
    call empties the interpreter's free lists of the duplicates it dropped."""
    params = GeneratorParams(seed=0, base_size=50, branch_factor=1, version_count=60,
                             edits_per_modification=8, deletion_bias=0.1)
    versioning = generate_versioning(params)
    mvm, patterns = comb(versioning), oo_constraint_patterns()

    def held(fn):
        fn()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, result
        finally:
            tracemalloc.stop()

    svm_bytes, svm_found = held(lambda: svm_check(versioning, patterns))
    mvm_bytes, mvm_found = held(lambda: [pcheck_mv(mvm, p) for p in patterns])
    assert svm_found == mvm_found and sum(map(len, svm_found)) == 8715
    assert svm_bytes <= 1.5 * mvm_bytes


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("mode", ["all", "single"])
def test_folded_conflicts_equal_pairwise_conflicts(seed, mode):
    versioning = generate_versioning(acceptance_params(seed))
    mvm = comb(versioning)
    assert mcheck_mv(mvm, mode) == svm_conflicts(versioning, mode)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("mode", ["all", "single"])
def test_folded_merge_check_equals_pairwise_merge_check(seed, mode):
    versioning = generate_versioning(acceptance_params(seed))
    mvm = comb(versioning)
    patterns = oo_constraint_patterns()
    assert [pcheck_m_mv(mvm, p, mode) for p in patterns] == svm_merge_check(
        versioning, patterns, mode
    )


def test_single_mode_picks_one_base_in_criss_cross():
    """With two merge bases, single mode must use the lexicographic least."""
    store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    plain = Model(store, CLS_TG, {"c1", "c2", "c3"}, set())
    both = Model(store, CLS_TG, {"c1", "c2", "c3"}, {"e12", "e13"})
    versioning = ModelVersioning(
        {"r": plain, "a": plain, "b": plain, "c": both, "d": plain},
        {("r", "a"), ("r", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")},
        root="r",
    )
    versioning.validate()
    assert latest_common_predecessors(versioning, "c", "d") == {"a", "b"}
    mvm = comb(versioning)
    pattern = unique_superclass_pattern()
    for mode in ("all", "single"):
        got = pcheck_m_mv(mvm, pattern, mode)
        assert [got] == svm_merge_check(versioning, [pattern], mode)
        assert {r.base for r in got} == ({"a", "b"} if mode == "all" else {"a"})


def test_conflict_over_two_bases_is_listed_per_base_in_id_order():
    """A conflict that holds over two merge bases is one report per base,
    bases in id order; single mode keeps the least id. Topological order
    and id order disagree here, so the bases and the pair must be ordered
    by id, not by the order in which the DAG visits them."""
    store = build_store(CLS_TG, {"n1": "Class", "n2": "Class"}, {"e": ("superclass", "n1", "n2")})
    plain = Model(store, CLS_TG, {"n1", "n2"}, set())
    versioning = ModelVersioning(
        {
            "zz": plain,
            "x": plain,
            "y": plain,
            "b": Model(store, CLS_TG, {"n1", "n2"}, {"e"}),
            "a": Model(store, CLS_TG, {"n1"}, set()),
        },
        {("zz", "x"), ("zz", "y"), ("x", "a"), ("y", "a"), ("x", "b"), ("y", "b")},
        root="zz",
    )
    at = {v: k for k, v in enumerate(versioning.order)}
    assert at["y"] < at["x"] and at["b"] < at["a"]
    mvm = comb(versioning)
    both = [MergeConflictReport("a", "b", base, "e", "n2") for base in ("x", "y")]
    for mode, want in (("all", both), ("single", both[:1])):
        assert mcheck_mv(mvm, mode) == svm_conflicts(versioning, mode) == want


@pytest.mark.parametrize("mode", LCP_MODES)
def test_conflicts_draw_each_partner_pair_at_most_once(monkeypatch, mode):
    """mcheck_mv draws the bases of a pair of merge partners at most once,
    on a history with several merge bases per pair."""
    versioning = generate_versioning(
        GeneratorParams(
            seed=3,
            base_size=20,
            branch_factor=3,
            version_count=30,
            edits_per_modification=4,
            deletion_bias=0.5,
        )
    )
    assert any(bases.bit_count() > 1 for bases in versioning.latest_common_predecessor_table().values())
    partner_pairs = {
        frozenset((a, b)) for a, mask in enumerate(versioning.merge_partners) for b in bits(mask)
    }
    draws: Counter[frozenset[int]] = Counter()
    drawn_bases = VersionDag.drawn_bases

    def counted_bases(self, lcp_mode):
        draw = drawn_bases(self, lcp_mode)

        def counted(a, b):
            draws[frozenset((a, b))] += 1
            return draw(a, b)

        return counted

    monkeypatch.setattr(VersionDag, "drawn_bases", counted_bases)
    got = mcheck_mv(comb(versioning), mode)
    assert got and got == svm_conflicts(versioning, mode)
    assert set(draws) <= partner_pairs
    assert max(draws.values()) == 1


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("mode", ["all", "single"])
def test_folded_merge_analyses_equal_baseline_off_topological_order(seed, mode):
    versioning = merge_history(seed)
    versioning.validate()
    mvm = comb(versioning)
    assert mcheck_mv(mvm, mode) == svm_conflicts(versioning, mode)
    patterns = oo_constraint_patterns()
    assert [pcheck_m_mv(mvm, p, mode) for p in patterns] == svm_merge_check(
        versioning, patterns, mode
    )


@pytest.mark.parametrize("seed", [5, 10, 12, 14])
def test_folded_merge_analyses_build_no_merge_base_table(monkeypatch, seed):
    """The folded route reads partners and bases off the ancestor masks:
    with the pair table made to raise, both merge analyses still give the
    per-version route's reports, in both lcp modes. These seeds have
    conflicts and merge violations; on 12 and 14 the two modes differ."""
    versioning = merge_history(seed)
    patterns = oo_constraint_patterns()
    want = {
        mode: (
            svm_conflicts(versioning, mode),
            svm_merge_check(versioning, patterns, mode),
        )
        for mode in LCP_MODES
    }
    assert all(conflicts and any(violations) for conflicts, violations in want.values())

    def refuse(self):
        raise AssertionError("the folded route built the merge-base table")

    monkeypatch.setattr(ModelVersioning, "latest_common_predecessor_table", refuse)
    mvm = comb(versioning)
    for mode, (conflicts, violations) in want.items():
        assert mcheck_mv(mvm, mode) == conflicts
        assert [pcheck_m_mv(mvm, p, mode) for p in patterns] == violations
