"""Arbitrary valid histories: the fold recovers every version, both
engines agree on every task, the encoding export is a typed graph that
carries the fold's marks, the presence and deletion-reach masks decode
to what the versions hold, and the streamed text and JSON writers give
the reference bytes. The same histories with one broken version fail
validation as the full per-version check does."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from mvmodel import (
    ElementStore,
    InvalidVersion,
    Model,
    ModelVersioning,
    Pattern,
    comb,
    oo_constraint_patterns,
    oo_type_graph,
    pcheck_mv,
    write_mv_encoding,
)
from mvmodel.reports import LCP_MODES, write_json, write_text
from mvmodel.tasks import TASKS
from conftest import build_store, read_encoding
from oracles import predecessors, render_json, render_text, validate_each_version
from strategies import POOL_EDGES, POOL_NODES, histories

PATTERNS = oo_constraint_patterns()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_arbitrary_histories_fold_agree_and_export(versioning):
    mvm = comb(versioning)
    for vid, model in versioning.versions.items():
        got = mvm.proj(vid)
        assert (got.node_set, got.edge_set) == (model.node_set, model.edge_set)
    for task in TASKS.values():
        for lcp in LCP_MODES if task.lcp else (None,):
            assert task.mvm(mvm, PATTERNS, lcp) == task.svm(versioning, PATTERNS, lcp)
    doc = json.loads(write_mv_encoding(mvm))
    read_encoding(doc)
    marks: dict[str, dict[str, set[str]]] = {"cv": {}, "dv": {}}
    for eid, edge in doc["edges"].items():
        kind = eid.split(":")[0]
        if kind in marks:
            x, version = edge["source"], edge["target"].removeprefix("version:")
            assert eid == f"{kind}:{x}:{version}"
            assert edge["type"] == f"{kind}_{doc['nodes'][x]}"
            marks[kind].setdefault(x, set()).add(version)
    assert marks["cv"] == mvm.cv
    assert marks["dv"] == mvm.dv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_presence_and_deletion_reach_are_the_closed_form(versioning):
    """The masks decode to what the versions hold: presence is the versions
    with the element, and the deletion reach is the versions without it
    that have a strict ancestor with it."""
    mvm = comb(versioning)
    mask, ids_of = versioning.mask, versioning.ids_of
    ancestors = {v: predecessors(versioning, v) for v in versioning.versions}
    for x in mvm.node_elements + mvm.edge_elements:
        holding = {v for v, m in versioning.versions.items() if x in m.node_set | m.edge_set}
        assert ids_of(mvm.presence(x)) == sorted(holding)
        dropped = {v for v in versioning.versions if v not in holding and ancestors[v] & holding}
        reach = mvm.reach(mask(mvm.dv.get(x, ())), mask(mvm.cv[x]))
        assert ids_of(reach) == sorted(dropped)
        assert ids_of(mask(holding)) == sorted(holding)


# Appended to every id and pattern name: a format field, braces, a quote,
# a backslash and non-ASCII characters.
ODD = '{0}"\\é€}'


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
