"""Arbitrary valid histories: the fold recovers every version, both
engines agree on every task, the encoding export is a typed graph that
carries the fold's marks, and the presence and deletion-reach masks
decode to what the versions hold."""

from __future__ import annotations

import json

from hypothesis import given, settings

from mvmodel import comb, oo_constraint_patterns, write_mv_encoding
from mvmodel.reports import LCP_MODES
from mvmodel.tasks import TASKS
from conftest import read_encoding
from oracles import predecessors
from strategies import histories

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
