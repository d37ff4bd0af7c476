"""Arbitrary valid histories: the fold recovers every version, both
engines agree on every task, the encoding export is a typed graph that
carries the fold's marks, the presence and deletion-reach masks decode
to what the versions hold, and the text renderer writes the reference
lines. The same histories with one broken version fail validation as
the full per-version check does."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from mvmodel import (
    InvalidVersion,
    Model,
    ModelVersioning,
    comb,
    oo_constraint_patterns,
    oo_type_graph,
    pcheck_mv,
    write_mv_encoding,
)
from mvmodel.cli import _lines
from mvmodel.reports import LCP_MODES
from mvmodel.tasks import TASKS
from conftest import build_store, read_encoding
from oracles import predecessors, render_line, validate_each_version
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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_reports_come_sorted_and_render_as_the_reference_lines(versioning):
    """``pcheck_mv`` builds its reports in report order without sorting,
    and ``_lines`` writes, on both routes of every task, the lines that
    rendering one report at a time writes."""
    mvm = comb(versioning)
    for pattern in PATTERNS:
        found = pcheck_mv(mvm, pattern)
        assert found == sorted(found)
    for task in TASKS.values():
        for lcp in LCP_MODES if task.lcp else (None,):
            for found in (task.mvm(mvm, PATTERNS, lcp), task.svm(versioning, PATTERNS, lcp)):
                assert _lines(found) == [render_line(n, r) for n, r in found]


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
