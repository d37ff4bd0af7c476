"""Folding a version history into one graph and reading it back."""

from __future__ import annotations

import json

import pytest

from mvmodel import (
    ElementStore,
    GeneratorParams,
    Model,
    ModelVersioning,
    NotStructural,
    TypeGraph,
    UnknownVersion,
    ValidationError,
    comb,
    generate_versioning,
    validate_model,
    write_mv_encoding,
)
from mvmodel.corpus import SUC_EDGE_TYPE, VERSION_NODE_TYPE
from conftest import build_store, full_model, read_encoding
from oracles import preserved

CLS_TG = TypeGraph({"Class"}, {"superclass": ("Class", "Class")})


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


def export(type_graph: TypeGraph, nodes=None, edges=None, versions=("r",)) -> dict:
    """The mv-encoding/1 document of a history whose versions all hold the
    same model, every successor forking from the first version."""
    store = build_store(type_graph, nodes or {}, edges or {})
    model = full_model(store, type_graph)
    root, *rest = versions
    versioning = ModelVersioning(dict.fromkeys(versions, model), {(root, v) for v in rest}, root)
    return json.loads(write_mv_encoding(comb(versioning)))


def test_adapted_type_graph_shape():
    base = TypeGraph(
        {"A", "B"}, {"x": ("A", "A"), "y": ("A", "B"), "z": ("B", "B")}
    )
    type_graph = export(base)["type_graph"]
    # one node type per base element type, plus the version bookkeeping type
    assert type_graph["node_types"] == sorted(
        ["A_mv", "B_mv", "x_mv", "y_mv", "z_mv", VERSION_NODE_TYPE]
    )
    edge_types = {t: (d["source"], d["target"]) for t, d in type_graph["edge_types"].items()}
    assert set(edge_types) == {
        "x_src", "x_tgt", "y_src", "y_tgt", "z_src", "z_tgt",
        SUC_EDGE_TYPE,
        "cv_A_mv", "dv_A_mv", "cv_B_mv", "dv_B_mv",
        "cv_x_mv", "dv_x_mv", "cv_y_mv", "dv_y_mv", "cv_z_mv", "dv_z_mv",
    }
    assert edge_types["y_src"] == ("y_mv", "A_mv")
    assert edge_types["y_tgt"] == ("y_mv", "B_mv")
    assert edge_types["cv_A_mv"] == ("A_mv", VERSION_NODE_TYPE)
    assert edge_types[SUC_EDGE_TYPE] == (VERSION_NODE_TYPE, VERSION_NODE_TYPE)


def test_adapt_rejects_colliding_names():
    # the edge type cv_A adapts to node type cv_A_mv, which the creation
    # bookkeeping for node type A also claims as an edge type name
    with pytest.raises(ValidationError, match="collide with the reserved mv naming scheme"):
        export(TypeGraph({"A"}, {"cv_A": ("A", "A")}))


def test_adapt_suffixes_avoid_reserved_names():
    # a base type called "version" is fine; it adapts to version_mv
    doc = export(TypeGraph({"version"}, {}), {"n": "version"})
    assert doc["nodes"]["n"] == "version_mv"
    assert {"version_mv", VERSION_NODE_TYPE} <= set(doc["type_graph"]["node_types"])


def test_trans_mv_turns_edges_into_nodes():
    doc = export(
        CLS_TG,
        {"c1": "Class", "c2": "Class"},
        {"e": ("superclass", "c1", "c2")},
        versions=("r", "s"),
    )
    # every base element is a node; the versions are nodes of their own
    assert doc["nodes"] == {
        "c1": "Class_mv", "c2": "Class_mv", "e": "superclass_mv",
        "version:r": VERSION_NODE_TYPE, "version:s": VERSION_NODE_TYPE,
    }
    assert doc["origin"] == {"c1": "c1", "c2": "c2", "e": "e"}
    edges = {e: (d["type"], d["source"], d["target"]) for e, d in doc["edges"].items()}
    assert edges["src:e"] == ("superclass_src", "e", "c1")
    assert edges["tgt:e"] == ("superclass_tgt", "e", "c2")
    assert edges["suc:r:s"] == (SUC_EDGE_TYPE, "version:r", "version:s")
    assert edges["cv:e:r"] == ("cv_superclass_mv", "e", "version:r")
    assert set(edges) == {"src:e", "tgt:e", "suc:r:s", "cv:c1:r", "cv:c2:r", "cv:e:r"}
    # the whole document, version nodes and marks included, is a valid typed graph
    assert len(read_encoding(doc).node_set) == 5


def test_comb_builds_expected_encoding():
    mvm = comb(running_example())
    s = mvm.union
    # 4 classes and 3 superclass edges from the union of all versions
    assert len(s.node_set) == 4
    assert len(s.edge_set) == 3
    assert mvm.dag.order[0] == "M_1"
    assert sorted(mvm.dag.order) == ["M_1", "M_2", "M_3"]
    assert mvm.dag.successors("M_1") == ("M_2", "M_3")
    assert mvm.dag.successors("M_2") == ()
    validate_model(s)
    # everything alive at the root is recorded as created there
    ids_of = mvm.dag.ids_of
    for c in ("c1", "c2", "c3", "c4"):
        assert ids_of(mvm.cv[c]) == ["M_1"]
    assert ids_of(mvm.cv["sup_c1_c3"]) == ["M_2"]
    assert ids_of(mvm.cv["sup_c1_c2"]) == ["M_3"]
    assert ids_of(mvm.dv["c4"]) == ["M_2"]
    assert ids_of(mvm.dv.get("c1", 0)) == []


def test_presence_walks_succession_and_stops_at_deletion():
    mvm = comb(running_example())
    ids_of = mvm.dag.ids_of
    assert ids_of(mvm.presence("c4")) == ["M_1", "M_3"]
    assert ids_of(mvm.presence("c1")) == ["M_1", "M_2", "M_3"]
    assert ids_of(mvm.presence("sup_c4_c2")) == ["M_3"]
    assert ids_of(mvm.presence("sup_c1_c3")) == ["M_2"]


def test_presence_rejects_non_structural_id():
    mvm = comb(running_example())
    with pytest.raises(NotStructural):
        mvm.presence("src:sup_c1_c3")
    with pytest.raises(NotStructural):
        mvm.presence("nope")


def test_folds_of_one_history_share_its_union():
    """A fold wraps the union that validation built; it builds no model of
    its own, and two folds of one history agree on every presence."""
    versioning = running_example()
    one, two = comb(versioning), comb(versioning)
    assert one.union is versioning.union and two.union is versioning.union
    for x in versioning.union.node_set | versioning.union.edge_set:
        assert one.presence(x) == two.presence(x)


def test_proj_reproduces_each_version():
    versioning = running_example()
    mvm = comb(versioning)
    for vid in versioning.ids:
        assert mvm.proj(vid) == versioning.version(vid)
    with pytest.raises(UnknownVersion):
        mvm.proj("M_9")


def test_proj_delta_matches_direct_span():
    versioning = running_example()
    mvm = comb(versioning)
    for i in versioning.ids:
        for j in versioning.ids:
            if i == j:
                continue
            got = mvm.proj_delta(i, j)
            want = versioning.max_preserving_mod(i, j)
            assert preserved(got) == preserved(want)
            assert got.created_nodes == want.created_nodes
            assert got.created_edges == want.created_edges
            assert got.deleted_nodes == want.deleted_nodes
            assert got.deleted_edges == want.deleted_edges


def test_single_version_history_is_all_root():
    tg = TypeGraph({"N"}, {})
    store = ElementStore()
    store.add_node("x", "N")
    only = Model(store, tg, {"x"}, set())
    v = ModelVersioning({"r": only}, set(), root="r")
    v.validate()
    mvm = comb(v)
    assert mvm.dag.ids_of(mvm.cv["x"]) == ["r"]
    assert mvm.dag.ids_of(mvm.presence("x")) == ["r"]
    assert mvm.proj("r") == only


@pytest.mark.parametrize("seed", range(10))
def test_presence_equals_membership_on_generated_corpora(seed):
    """p(v) must agree exactly with which versions contain the element."""
    params = GeneratorParams(
        seed=seed,
        base_size=6 + seed,
        branch_factor=1 + seed % 3,
        version_count=2 + seed % 7,
        edits_per_modification=seed % 5,
        deletion_bias=(seed % 4) * 0.25,
    )
    versioning = generate_versioning(params)
    mvm = comb(versioning)
    for element in mvm.union.node_set | mvm.union.edge_set:
        member = [
            vid
            for vid, model in versioning.versions.items()
            if element in model.node_set or element in model.edge_set
        ]
        assert versioning.ids_of(mvm.presence(element)) == member, element
