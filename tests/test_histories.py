"""Arbitrary valid histories: the fold recovers every version, both
engines agree on every task, the encoding export is a typed graph that
carries the fold's marks, the fold's union and marks equal the reference
fold's, every version-set mask numbers its bits in id order, the
descendant masks, the presence and deletion-reach masks and the drawn
merge bases decode to what they stand for, every span's deltas are the
plain set differences, the history keeps the merges' spans, the matcher
finds what the exhaustive oracle finds in every version, the streamed text
and JSON writers give the reference bytes, and both routes return
sorted lists without duplicates, the folded ones of their report types.
The same histories with one broken version fail validation as the full
per-version check does."""

from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mvmodel import (
    ElementStore,
    InvalidVersion,
    Model,
    ModelModification,
    ModelVersioning,
    MultiVersionModel,
    Pattern,
    VersionDag,
    comb,
    find_monomorphisms,
    mcheck_mv,
    merge_min,
    oo_constraint_patterns,
    oo_type_graph,
    pcheck_m_mv,
    pcheck_mv,
    write_mv_encoding,
)
from mvmodel.baseline import svm_check, svm_conflicts, svm_merge_check
from mvmodel.reports import (
    MergeConflictReport,
    MergeViolationReport,
    VersionedViolation,
    write_json,
    write_text,
)
from mvmodel.versioning import LCP_MODES, bits
from mvmodel.tasks import TASKS
from conftest import assert_one_numbering, build_store, read_encoding
from oracles import (
    brute_force_monomorphisms,
    fold_marks,
    predecessors,
    render_json,
    render_text,
    validate_each_version,
)
from strategies import POOL_EDGES, POOL_NODES, histories, patterns, typed_histories

PATTERNS = oo_constraint_patterns()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_arbitrary_histories_fold_agree_and_export(versioning):
    mvm = comb(versioning)
    # The same fold over a bare DAG, which holds no version's model.
    over_dag = MultiVersionModel(
        versioning.union,
        VersionDag(versioning.versions, versioning.modifications, versioning.root),
        versioning.cv,
        versioning.dv,
    )
    for vid, model in versioning.versions.items():
        got = mvm.proj(vid)
        assert (got.node_set, got.edge_set) == (model.node_set, model.edge_set)
    for task in TASKS.values():
        for lcp in LCP_MODES if task.lcp else (None,):
            folded = task.mvm(mvm, PATTERNS, lcp)
            assert folded == task.svm(versioning, PATTERNS, lcp)
            assert task.mvm(over_dag, PATTERNS, lcp) == folded
    encoding = write_mv_encoding(mvm)
    assert write_mv_encoding(over_dag) == encoding
    doc = json.loads(encoding)
    read_encoding(doc)
    marks: dict[str, dict[str, set[str]]] = {"cv": {}, "dv": {}}
    for eid, edge in doc["edges"].items():
        kind = eid.split(":")[0]
        if kind in marks:
            x, version = edge["source"], edge["target"].removeprefix("version:")
            assert eid == f"{kind}:{x}:{version}"
            assert edge["type"] == f"{kind}_{doc['nodes'][x]}"
            marks[kind].setdefault(x, set()).add(version)
    ids_of = versioning.ids_of
    assert marks["cv"] == {x: set(ids_of(vs)) for x, vs in mvm.cv.items()}
    assert marks["dv"] == {x: set(ids_of(vs)) for x, vs in mvm.dv.items()}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_presence_and_deletion_reach_are_the_closed_form(versioning):
    """The masks decode to what the versions hold: presence is the versions
    with the element, and the deletion reach is the versions without it
    that have a strict ancestor with it."""
    mvm = comb(versioning)
    ids_of, position = versioning.ids_of, versioning.position
    ancestors = {v: predecessors(versioning, v) for v in versioning.versions}
    for x in mvm.union.node_set | mvm.union.edge_set:
        holding = {v for v, m in versioning.versions.items() if x in m.node_set | m.edge_set}
        assert ids_of(mvm.presence(x)) == sorted(holding)
        dropped = {v for v in versioning.versions if v not in holding and ancestors[v] & holding}
        reach = versioning.reach(mvm.dv.get(x, 0), mvm.cv[x])
        assert ids_of(reach) == sorted(dropped)
        assert ids_of(sum(1 << position[v] for v in holding)) == sorted(holding)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_fold_wraps_the_reference_union_and_marks(versioning):
    mvm = comb(versioning)
    nodes, edges, cv, dv = fold_marks(versioning)
    assert (mvm.union.node_set, mvm.union.edge_set) == (nodes, edges)
    ids_of = versioning.ids_of
    assert {x: set(ids_of(vs)) for x, vs in mvm.cv.items()} == cv
    assert {x: set(ids_of(vs)) for x, vs in mvm.dv.items()} == dv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_drawn_bases_are_the_masks_of_the_analysed_bases(versioning):
    """The closed-form partners are the pairs with a merge base in the
    table, and each partner pair draws all its bases or their least id."""
    ids_of, ids = versioning.ids_of, versioning.ids
    table = versioning.latest_common_predecessor_table()
    partners = versioning.merge_partners
    pairs = {(a, b) for a, mask in enumerate(partners) for b in bits(mask)}
    ranked = {tuple(sorted((ids[a], ids[b]))): (a, b) for a, b in pairs}
    assert len(ranked) * 2 == len(pairs)
    assert ranked.keys() == {pair for pair, bases in table.items() if bases}
    for mode, want in (("all", sorted), ("single", lambda bases: [min(bases)])):
        draw = versioning.drawn_bases(mode)
        for pair, (a, b) in ranked.items():
            assert ids_of(draw(a, b)) == ids_of(draw(b, a)) == want(table[pair])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_descendants_are_the_versions_with_the_ancestor(versioning):
    assert_one_numbering(versioning)
    for k, v in enumerate(versioning.ids):
        below = {w for w in versioning.versions if v in predecessors(versioning, w)}
        assert versioning.ids_of(versioning.descendants(1 << k)) == sorted({v} | below)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_matcher_agrees_with_brute_force_on_every_version(versioning):
    """The OO patterns, the 4-node consistent-override one included,
    against the exhaustive oracle; both engines share the matcher, so the
    engine sweeps cannot catch a matcher fault."""
    for model in versioning.versions.values():
        for pattern in PATTERNS:
            assert find_monomorphisms(pattern, model) == brute_force_monomorphisms(pattern, model)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(typed_histories(), st.data())
def test_drawn_type_graphs_and_patterns_fold_agree(versioning, data):
    """Over drawn type graphs whose pools hold self-loops and parallel
    edges, with drawn patterns: every task's folded route equals the
    per-version route in both lcp modes, and the folded check, and the
    matcher on the union with presence masks and a drawn start mask, equal
    the exhaustive matcher run on each version; the matcher without masks
    equals the exhaustive matcher on the union."""
    drawn = data.draw(st.lists(patterns(versioning.type_graph), min_size=1, max_size=3))
    start = data.draw(st.integers(1, (1 << len(versioning.ids)) - 1))
    mvm = comb(versioning)
    for task in TASKS.values():
        for lcp in LCP_MODES if task.lcp else (None,):
            assert task.mvm(mvm, drawn, lcp) == task.svm(versioning, drawn, lcp)
    for pattern in drawn:
        held: dict = {}  # match -> the versions that hold it
        for k, v in enumerate(versioning.ids):
            for m in brute_force_monomorphisms(pattern, versioning.version(v)):
                held[m] = held.get(m, 0) | 1 << k
        want = [VersionedViolation(v, m) for k, v in enumerate(versioning.ids)
                for m in sorted(held) if held[m] >> k & 1]
        assert pcheck_mv(mvm, pattern) == want
        assert find_monomorphisms(pattern, mvm.union) == brute_force_monomorphisms(pattern, mvm.union)
        assert find_monomorphisms(pattern, mvm.union, mvm.presence, start) == sorted(
            (m, mask & start) for m, mask in held.items() if mask & start
        )


# Appended to every id and pattern name: a format field, a %-conversion,
# braces, a quote, a backslash and non-ASCII characters.
ODD = '{0}%s"\\é€}'


def odd_model(model: Model, store: ElementStore) -> Model:
    return Model(store, model.type_graph, {n + ODD for n in model.node_set},
                 {e + ODD for e in model.edge_set})


def odd_store(store: ElementStore) -> ElementStore:
    odd = ElementStore()
    for n in sorted(store.node_ids()):
        odd.add_node(n + ODD, store.elem_type(n))
    for e in sorted(store.edge_ids()):
        source, target = store.endpoint(e)
        odd.add_edge(e + ODD, store.elem_type(e), source + ODD, target + ODD)
    return odd


def odd_history(versioning: ModelVersioning) -> ModelVersioning:
    store = odd_store(versioning.store)
    versions = {v + ODD: odd_model(m, store) for v, m in versioning.versions.items()}
    modifications = {(a + ODD, b + ODD) for a, b in versioning.modifications}
    return ModelVersioning(versions, modifications, versioning.root + ODD)


def odd_patterns() -> list[Pattern]:
    """The OO patterns and a pattern with no edges (any TypeRef), all with
    odd ids and names."""
    type_graph = oo_type_graph()
    lone = Model(build_store(type_graph, {"t": "TypeRef"}, {}), type_graph, {"t"}, set())
    return [
        Pattern(p.name + ODD, odd_model(p.graph, odd_store(p.graph.store)))
        for p in PATTERNS + [Pattern("type-ref", lone)]
    ]


def streamed(writer, *args) -> str:
    parts: list[str] = []
    writer(*args, parts.append)
    return "".join(parts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_reports_come_sorted_and_render_as_the_reference_lines(versioning):
    """``pcheck_mv`` builds its reports in report order without sorting,
    and on both routes of every task, in both lcp modes, the streamed text
    and JSON writers give the bytes that rendering one report at a time and
    one whole ``json.dumps`` give: with odd ids and names, with a pattern
    that has no edges, and with no patterns, so no findings."""
    versioning = odd_history(versioning)
    mvm = comb(versioning)
    patterns = odd_patterns()
    for pattern in patterns:
        found = pcheck_mv(mvm, pattern)
        assert found == sorted(found)
    for command, task in TASKS.items():
        key = "violations" if task.patterns else "conflicts"
        for lcp in LCP_MODES if task.lcp else (None,):
            for chosen in (patterns, []):
                for groups in (task.mvm(mvm, chosen, lcp), task.svm(versioning, chosen, lcp)):
                    assert streamed(write_text, groups) == render_text(groups)
                    json_bytes = streamed(write_json, groups, command, key)
                    assert json_bytes == render_json(command, key, groups)


def damaged(versioning: ModelVersioning, defect: str, draw) -> dict:
    """The constructor arguments of ``versioning`` with ``defect`` put
    into one drawn version."""
    versions = dict(versioning.versions)
    victim = draw(st.sampled_from(sorted(versions)))
    model = versions[victim]
    store, nodes, edges = model.store, set(model.node_set), set(model.edge_set)
    if defect == "dangling":
        edge = draw(st.sampled_from(sorted(POOL_EDGES)))
        edges.add(edge)
        nodes.discard(draw(st.sampled_from(POOL_EDGES[edge][1:])))
    elif defect == "undeclared" and draw(st.booleans()):
        store.add_node("ghost", "Ghost")
        nodes.add("ghost")
    elif defect == "undeclared":
        store.add_edge("haunts", "haunts", "c1", "c2")
        nodes |= {"c1", "c2"}
        edges.add("haunts")
    elif defect == "mismatch":
        # owns runs from a Class to a Method, not to a TypeRef
        store.add_edge("owns_t1", "owns", "c1", "t1")
        nodes |= {"c1", "t1"}
        edges.add("owns_t1")
    versions[victim] = Model(store, model.type_graph, nodes, edges)
    return {"versions": versions, "modifications": versioning.modifications, "root": versioning.root}


def assert_fails_like_the_full_check(args: dict) -> None:
    with pytest.raises(InvalidVersion) as expected:
        validate_each_version(args)
    with pytest.raises(InvalidVersion) as got:
        ModelVersioning(**args)
    want, err = expected.value, got.value
    assert (type(err.cause), str(err), err.version_id) == (
        type(want.cause), str(want), want.version_id
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_span_deltas_are_the_plain_set_differences(versioning):
    # Every ordered pair, not only the modifications: the span derives one
    # delta's size from the other's and may skip the second difference.
    for source, target in product(versioning.versions.values(), repeat=2):
        span = ModelModification.between(source, target)
        assert span.created_nodes == target.node_set - source.node_set
        assert span.created_edges == target.edge_set - source.edge_set
        assert span.deleted_nodes == source.node_set - target.node_set
        assert span.deleted_edges == source.edge_set - target.edge_set


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_the_history_spans_are_the_merge_spans(versioning):
    """A history keeps, per modification, the span that the merges read:
    the one ``max_preserving_mod`` and the fold's ``proj_delta`` build, and
    merging it with itself over its source gives its target."""
    mvm = comb(versioning)
    for a, b in sorted(versioning.modifications):
        span = versioning.spans[a, b]
        assert span == versioning.max_preserving_mod(a, b) == mvm.proj_delta(a, b)
        assert merge_min(versioning.version(a), span, span) == versioning.version(b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(histories(), st.sampled_from(["none", "dangling", "undeclared", "mismatch"]), st.data())
def test_delta_validation_fails_as_the_full_check_does(versioning, defect, data):
    args = damaged(versioning, defect, data.draw)
    if defect == "none":
        validate_each_version(args)
        assert ModelVersioning(**args) == versioning
    else:
        assert_fails_like_the_full_check(args)


@pytest.mark.parametrize("modifications", [
    {("r", "a"), ("a", "b"), ("b", "a")},  # a cycle through the broken version
    {("r", "a")},  # the broken version is not a descendant of the root
])
def test_an_invalid_version_wins_over_a_bad_shape(modifications):
    type_graph = oo_type_graph()
    store = build_store(type_graph, POOL_NODES, POOL_EDGES)
    good = Model(store, type_graph, {"c1", "c2"}, {"sup12"})
    broken = Model(store, type_graph, {"c1"}, {"sup12"})
    args = {"versions": {"r": good, "a": good, "b": broken}, "modifications": modifications, "root": "r"}
    assert_fails_like_the_full_check(args)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(histories())
def test_svm_routes_return_sorted_lists_without_duplicates(versioning):
    # What lets the reference routes collect their reports in lists, not sets.
    found = svm_check(versioning, PATTERNS)
    for mode in LCP_MODES:
        found += [svm_conflicts(versioning, mode), *svm_merge_check(versioning, PATTERNS, mode)]
    for reports in found:
        assert reports == sorted(set(reports))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(histories(), st.booleans())
def test_folded_routes_return_sorted_lists_of_their_report_type(versioning, odd):
    """In both lcp modes, with plain and odd ids, each folded analysis
    returns a sorted list without duplicates whose every element has its
    report type (a plain tuple would compare equal to the named one), and
    every merge report orders its pair by id."""
    patterns = odd_patterns() if odd else PATTERNS
    mvm = comb(odd_history(versioning) if odd else versioning)
    found = [(VersionedViolation, pcheck_mv(mvm, p)) for p in patterns]
    for mode in LCP_MODES:
        found.append((MergeConflictReport, mcheck_mv(mvm, mode)))
        found += [(MergeViolationReport, pcheck_m_mv(mvm, p, mode)) for p in patterns]
    for kind, reports in found:
        assert reports == sorted(set(reports))
        assert all(type(r) is kind for r in reports)
        assert kind is VersionedViolation or all(r.left < r.right for r in reports)
