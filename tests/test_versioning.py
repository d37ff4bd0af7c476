"""Version DAG validation, predecessor sets, and merge-base computation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

import mvmodel.corpus
from mvmodel import (
    CycleDetected,
    GeneratorParams,
    Model,
    ModelModification,
    ModelVersioning,
    NoCommonRoot,
    InvalidVersion,
    StoreMismatch,
    TypeGraph,
    UnknownVersion,
    ValidationError,
    VersionDag,
    comb,
    generate_versioning,
    parse_corpus,
    write_corpus,
)
from mvmodel.corpus import _parse_document
from conftest import assert_one_numbering, build_store, merge_history, rename_versions
from oracles import latest_common_predecessors, predecessors, preserved
from strategies import history_args

TG = TypeGraph({"N"}, {"link": ("N", "N")})
WIDER_TG = TypeGraph({"N", "M"}, {"link": ("N", "N")})  # TG plus an unused node type


def simple_store():
    return build_store(
        TG,
        {"n1": "N", "n2": "N", "n3": "N"},
        {"e12": ("link", "n1", "n2"), "e23": ("link", "n2", "n3")},
    )


# The shape checks hold for a versioning and for a bare DAG of the same ids.
SHAPE_CHECKED = (ModelVersioning, VersionDag)


def versioning_from_shape(shape: dict[str, set[str]], mods, root="r", make=ModelVersioning):
    """All versions share the same content; only the DAG shape matters.
    ``make`` is ``ModelVersioning`` or ``VersionDag``: both take the
    versions, read by the DAG as its ids, the modifications and the root."""
    store = simple_store()
    versions = {
        vid: Model(store, TG, nodes, set()) for vid, nodes in shape.items()
    }
    return make(versions, mods, root)


def test_validate_accepts_small_dag():
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1", "n2"}, "b": {"n1", "n3"}},
        {("r", "a"), ("r", "b")},
    )
    v.validate()
    assert v.ids == ("a", "b", "r")
    assert v.successors("r") == ("a", "b")


def test_version_dag_takes_each_id_once():
    dag = VersionDag(["r", "a", "r"], {("r", "a")}, "r")
    assert (dag.ids, dag.order, dag.position) == (("a", "r"), ("r", "a"), {"a": 0, "r": 1})


def test_unknown_version_lookup():
    v = versioning_from_shape({"r": {"n1"}}, set())
    with pytest.raises(UnknownVersion):
        v.version("missing")


def test_validate_rejects_unknown_root():
    for make in SHAPE_CHECKED:
        with pytest.raises(UnknownVersion):
            versioning_from_shape({"a": {"n1"}}, set(), root="zzz", make=make)


def test_validate_rejects_unknown_modification_endpoint():
    for make in SHAPE_CHECKED:
        with pytest.raises(UnknownVersion):
            versioning_from_shape({"r": {"n1"}}, {("r", "ghost")}, make=make)


def test_validate_rejects_self_modification():
    for make in SHAPE_CHECKED:
        with pytest.raises(CycleDetected):
            versioning_from_shape({"r": {"n1"}}, {("r", "r")}, make=make)


def test_validate_rejects_cycle():
    for make in SHAPE_CHECKED:
        with pytest.raises(CycleDetected):
            versioning_from_shape(
                {"r": {"n1"}, "a": {"n1"}, "b": {"n1"}},
                {("r", "a"), ("a", "b"), ("b", "a")},
                make=make,
            )


def test_validate_rejects_unreachable_version():
    for make in SHAPE_CHECKED:
        with pytest.raises(NoCommonRoot) as exc:
            versioning_from_shape(
                {"r": {"n1"}, "a": {"n1"}, "island": {"n2"}},
                {("r", "a")},
                make=make,
            )
        assert "island" in exc.value.unreachable


def test_validate_wraps_broken_version_content():
    store = simple_store()
    # e12 needs n2, which this version does not include
    broken = Model(store, TG, {"n1"}, {"e12"})
    with pytest.raises(InvalidVersion) as exc:
        ModelVersioning({"r": broken}, set(), root="r")
    assert exc.value.version_id == "r"


def test_validate_rejects_mixed_stores():
    s1, s2 = simple_store(), simple_store()
    with pytest.raises(StoreMismatch):
        ModelVersioning(
            {"r": Model(s1, TG, {"n1"}, set()), "a": Model(s2, TG, {"n1"}, set())},
            {("r", "a")},
            root="r",
        )


def test_validate_rejects_versions_over_different_type_graphs():
    store = simple_store()
    with pytest.raises(InvalidVersion):
        ModelVersioning(
            {"r": Model(store, TG, {"n1"}, set()), "a": Model(store, WIDER_TG, {"n1"}, set())},
            {("r", "a")},
            root="r",
        )


BROKEN_A = "version 'a' is invalid: edge 'e12' lacks an endpoint node in the graph"


def _precedence_cases() -> dict[str, tuple]:
    """Per case: the versions, modifications and root given, and the type
    and message of the error they raise. The ids are checked first, then
    each given model's store and type graph, then every version in full,
    and only then the shape: a broken version wins over a bad shape."""
    s1, s2 = simple_store(), simple_store()
    ok, broken = Model(s1, TG, {"n1"}, set()), Model(s1, TG, {"n1"}, {"e12"})
    elsewhere, wider = Model(s2, TG, {"n1"}, set()), Model(s1, WIDER_TG, {"n1"}, set())
    cycle = [("r", "a"), ("a", "b"), ("b", "a")]
    return {
        "no-versions": ({}, [], "r", ValidationError, "a versioning needs at least one version"),
        "unknown-root+mixed-stores": ({"a": ok, "r": elsewhere}, [("r", "a")], "zzz",
                                      UnknownVersion, "unknown version 'zzz'"),
        "unknown-end+broken-version": ({"a": broken, "r": ok}, [("r", "a"), ("a", "ghost")], "r",
                                       UnknownVersion, "unknown version 'ghost'"),
        "mixed-stores+broken-version": ({"a": broken, "r": elsewhere}, [("r", "a")], "r",
                                        StoreMismatch, "version 'r' uses a different element store"),
        "type-graph+later-store": ({"a": ok, "b": wider, "c": elsewhere}, [("a", "b"), ("a", "c")], "a",
                                   InvalidVersion, "version 'b' is invalid: type graph differs between versions"),
        "cycle+broken-version": ({"a": broken, "b": ok, "r": ok}, cycle, "r", InvalidVersion, BROKEN_A),
        "cycle+mixed-stores": ({"a": ok, "b": elsewhere, "r": ok}, cycle, "r",
                               StoreMismatch, "version 'b' uses a different element store"),
        "orphan+broken-version": ({"a": broken, "island": ok, "r": ok}, [("r", "a")], "r",
                                  InvalidVersion, BROKEN_A),
        "orphan": ({"a": ok, "island": ok, "r": ok}, [("r", "a")], "r",
                   NoCommonRoot, "versions not descended from the root: island"),
        "cycle": ({"a": ok, "b": ok, "r": ok}, cycle, "r", CycleDetected, "modification cycle: a -> b -> a"),
        "broken-root": ({"a": ok, "r": broken}, [("r", "a")], "r", InvalidVersion,
                        "version 'r' is invalid: edge 'e12' lacks an endpoint node in the graph"),
        "broken-version": ({"a": broken, "r": ok}, [("r", "a")], "r", InvalidVersion, BROKEN_A),
    }


PRECEDENCE = _precedence_cases()


@pytest.mark.parametrize("one_shot", [False, True], ids=["set", "iterator"])
@pytest.mark.parametrize("case", PRECEDENCE)
def test_the_first_error_of_combined_defects_is_fixed(case, one_shot):
    """Whichever defects a history combines, the public constructor raises
    the same first error, whether its modifications come as a set or as a
    one-shot iterator."""
    versions, mods, root, error, message = PRECEDENCE[case]
    with pytest.raises(error) as exc:
        ModelVersioning(versions, iter(mods) if one_shot else set(mods), root)
    assert type(exc.value) is error and str(exc.value) == message


def test_modifications_may_come_as_a_one_shot_iterator():
    store = simple_store()
    versions = {"r": Model(store, TG, {"n1"}, set()), "a": Model(store, TG, {"n1", "n2"}, {"e12"})}
    history = ModelVersioning(versions, iter([("r", "a")]), "r")
    assert history.modifications == {("r", "a")}
    assert history == ModelVersioning(versions, {("r", "a")}, "r")
    assert history.version("a") == versions["a"]


def _corpus(versions: dict[str, tuple[list, list]], mods: list, root: str = "r") -> str:
    """A corpus over ``simple_store``'s elements with the given versions'
    node and edge lists."""
    return json.dumps({
        "format": "mv-corpus/1",
        "type_graph": {"node_types": ["N"], "edge_types": {"link": {"source": "N", "target": "N"}}},
        "elements": {"nodes": {"n1": "N", "n2": "N", "n3": "N"},
                     "edges": {"e12": {"type": "link", "source": "n1", "target": "n2"},
                               "e23": {"type": "link", "source": "n2", "target": "n3"}}},
        "root": root,
        "versions": {vid: {"nodes": nodes, "edges": edges} for vid, (nodes, edges) in versions.items()},
        "modifications": [list(pair) for pair in mods],
    }, indent=2, sort_keys=True)


@pytest.mark.parametrize("versions, mods", [
    ({"a": (["n1"], ["e12"]), "b": (["n1"], []), "r": (["n1"], [])}, [("a", "b"), ("b", "a"), ("r", "a")]),
    ({"a": (["n1"], ["e12"]), "island": (["n1"], []), "r": (["n1"], [])}, [("r", "a")]),
], ids=["cycle", "orphan"])
@pytest.mark.parametrize("parse", [parse_corpus, _parse_document], ids=["parse_corpus", "_parse_document"])
def test_a_read_broken_version_wins_over_a_bad_shape(versions, mods, parse):
    with pytest.raises(InvalidVersion) as exc:
        parse(_corpus(versions, mods))
    assert str(exc.value) == BROKEN_A


def test_every_route_into_a_history_validates_it_once(monkeypatch):
    """perfbench's tracer counts ``versioning.validate.calls`` by patching
    ``ModelVersioning.validate`` on the class, so every way of building a
    history must call it there, once: the public constructor, the
    version-at-a-time reader, the whole-document reader and the generator."""
    params = GeneratorParams(seed=3, base_size=8, branch_factor=3, version_count=12)
    generated = generate_versioning(params)
    data = write_corpus(generated)
    validate, calls = ModelVersioning.validate, []

    def counted(self):
        calls.append(self)
        validate(self)

    def not_streamed(data):
        raise AssertionError("parse_corpus fell back to the whole-document reader")

    monkeypatch.setattr(ModelVersioning, "validate", counted)
    monkeypatch.setattr(mvmodel.corpus, "_parse_document", not_streamed)
    routes = {
        "public constructor": lambda: ModelVersioning(
            dict(generated.versions.items()), iter(generated.modifications), generated.root),
        "parse_corpus": lambda: parse_corpus(data),
        "_parse_document": lambda: _parse_document(data),
        "generate_versioning": lambda: generate_versioning(params),
    }
    for route, build in routes.items():
        calls.clear()
        history = build()
        assert history == generated and calls == [history], route


def test_successors_of_an_unknown_version():
    v = versioning_from_shape({"r": {"n1"}}, set())
    with pytest.raises(UnknownVersion):
        v.successors("missing")


# Each entry changes one part of EQ_BASE, so the two histories differ in it.
EQ_BASE = {
    "root": "r",
    "mods": {("r", "a"), ("r", "b")},
    "versions": {"r": ({"n1", "n2"}, {"e12"}), "a": ({"n1", "n2", "n3"}, {"e12", "e23"}),
                 "b": ({"n1"}, set())},
    "type_graph": TG,
    "extra_node": False,
}
EQ_CHANGES = {
    "root": {"root": "a", "mods": {("a", "r"), ("r", "b")}},
    "modifications": {"mods": {("r", "a"), ("a", "b")}},
    "version ids": {"mods": {("r", "a"), ("r", "c")},
                    "versions": {"r": ({"n1", "n2"}, {"e12"}), "a": ({"n1", "n2", "n3"}, {"e12", "e23"}),
                                 "c": ({"n1"}, set())}},
    "version nodes": {"versions": {**EQ_BASE["versions"], "b": ({"n1", "n3"}, set())}},
    "version edges": {"versions": {**EQ_BASE["versions"], "a": ({"n1", "n2", "n3"}, {"e12"})}},
    "type graph": {"type_graph": WIDER_TG},
    "store content": {"extra_node": True},
}


def eq_history(root, mods, versions, type_graph, extra_node) -> ModelVersioning:
    store = simple_store()
    if extra_node:
        store.add_node("n4", "N")
    models = {vid: Model(store, type_graph, *members) for vid, members in versions.items()}
    return ModelVersioning(models, mods, root)


@pytest.mark.parametrize("change", EQ_CHANGES)
def test_histories_that_differ_in_one_part_are_unequal(change):
    base = eq_history(**EQ_BASE)
    assert base == eq_history(**EQ_BASE)
    other = eq_history(**{**EQ_BASE, **EQ_CHANGES[change]})
    assert base != other and other != base


def test_predecessors_are_strict_and_transitive():
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1"}, "b": {"n1"}, "c": {"n1"}},
        {("r", "a"), ("a", "b"), ("b", "c")},
    )
    assert predecessors(v, "r") == frozenset()
    assert predecessors(v, "a") == {"r"}
    assert predecessors(v, "c") == {"r", "a", "b"}


def test_lcp_empty_for_comparable_pair():
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1"}}, {("r", "a")}
    )
    assert latest_common_predecessors(v, "r", "a") == frozenset()


def test_lcp_simple_fork():
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1"}, "b": {"n1"}},
        {("r", "a"), ("r", "b")},
    )
    assert latest_common_predecessors(v, "a", "b") == {"r"}


def test_lcp_criss_cross_has_two_bases():
    """Two merge commits crossing over give two maximal common ancestors."""
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1"}, "b": {"n1"}, "c": {"n1"}, "d": {"n1"}},
        {("r", "a"), ("r", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")},
    )
    v.validate()
    assert latest_common_predecessors(v, "c", "d") == {"a", "b"}
    assert min(latest_common_predecessors(v, "c", "d")) == "a"


def test_lcp_table_covers_every_unordered_pair():
    v = versioning_from_shape(
        {"r": {"n1"}, "a": {"n1"}, "b": {"n1"}},
        {("r", "a"), ("r", "b")},
    )
    table = v.latest_common_predecessor_table()
    assert set(table) == {("a", "b"), ("a", "r"), ("b", "r")}
    assert v.ids_of(table[("a", "b")]) == ["r"]
    assert table[("a", "r")] == 0


def test_max_preserving_mod_is_componentwise_intersection():
    store = simple_store()
    src = Model(store, TG, {"n1", "n2"}, {"e12"})
    tgt = Model(store, TG, {"n2", "n3"}, {"e23"})
    v = ModelVersioning({"s": src, "t": tgt}, {("s", "t")}, root="s")
    mod = v.max_preserving_mod("s", "t")
    kept = (src.node_set - mod.deleted_nodes, src.edge_set - mod.deleted_edges)
    assert kept == preserved(src, tgt) == ({"n2"}, set())
    assert mod.deleted_nodes == {"n1"}
    assert mod.deleted_edges == {"e12"}
    assert mod.created_nodes == {"n3"}
    assert mod.created_edges == {"e23"}


@pytest.mark.parametrize("source, target", [
    (({"n1", "n2"}, {"e12"}), ({"n1", "n2"}, {"e12"})),  # identical
    (({"n1"}, set()), ({"n1", "n2", "n3"}, {"e12", "e23"})),  # creation only
    (({"n1", "n2", "n3"}, {"e12", "e23"}), ({"n2"}, set())),  # deletion only
    (({"n1", "n2"}, set()), ({"n2", "n3"}, set())),  # equal sizes: one node swapped
    (({"n1", "n2", "n3"}, {"e12"}), ({"n1", "n2", "n3"}, {"e23"})),  # one edge swapped
    (({"n1", "n2"}, {"e12"}), ({"n3"}, set())),  # shrinks, and creates too
    (({"n1"}, set()), ({"n2", "n3"}, {"e23"})),  # grows, and deletes too
], ids=["identical", "creation-only", "deletion-only", "node-swap", "edge-swap",
        "shrink-and-create", "grow-and-delete"])
def test_modification_deltas_are_the_plain_set_differences(source, target):
    store = simple_store()
    src, tgt = Model(store, TG, *source), Model(store, TG, *target)
    mod = ModelModification.between(src, tgt)
    assert (mod.created_nodes, mod.created_edges) == (target[0] - source[0], target[1] - source[1])
    assert (mod.deleted_nodes, mod.deleted_edges) == (source[0] - target[0], source[1] - target[1])


def test_modification_rejects_mixed_stores():
    s1, s2 = simple_store(), simple_store()
    with pytest.raises(StoreMismatch):
        ModelModification.between(Model(s1, TG, {"n1"}, set()), Model(s2, TG, {"n1"}, set()))


def test_modification_rejects_mixed_type_graphs():
    store = simple_store()
    with pytest.raises(ValidationError):
        ModelModification.between(
            Model(store, TG, {"n1"}, set()), Model(store, WIDER_TG, {"n1"}, set())
        )


def test_modification_preserved_edges_keep_their_endpoints():
    # an edge survives only if both endpoints survive with it
    store = simple_store()
    src = Model(store, TG, {"n1", "n2"}, {"e12"})
    tgt = Model(store, TG, {"n1", "n2"}, {"e12"})
    mod = ModelModification.between(src, tgt)
    assert src.edge_set - mod.deleted_edges == preserved(src, tgt)[1] == {"e12"}
    assert mod.created_edges == set() and mod.deleted_edges == set()


@pytest.mark.parametrize("seed", range(12))
def test_generated_corpora_validate_and_have_sane_ancestry(seed):
    params = GeneratorParams(
        seed=seed,
        base_size=8,
        branch_factor=1 + seed % 3,
        version_count=1 + seed % 8,
        edits_per_modification=seed % 5,
        deletion_bias=(seed % 4) * 0.25,
    )
    v = generate_versioning(params)
    v.validate()
    ids = v.ids
    assert v.root == "v000"
    for vid in ids:
        pre = predecessors(v, vid)
        assert vid not in pre
        if vid != v.root:
            assert v.root in pre
        for parent in (a for a, b in v.modifications if b == vid):
            assert parent in pre
            assert pre >= predecessors(v, parent)
    table = v.latest_common_predecessor_table()
    assert len(table) == len(ids) * (len(ids) - 1) // 2
    for (i, j), mask in table.items():
        assert i < j
        bases = frozenset(v.ids_of(mask))
        for c in bases:
            assert c in predecessors(v, i) and c in predecessors(v, j)
            # maximality: no other common ancestor sits strictly above c
            others = (bases - {c}) | (predecessors(v, i) & predecessors(v, j) - bases)
            assert all(c not in predecessors(v, x) or x not in bases for x in others)
        assert bases == latest_common_predecessors(v, i, j)


def is_merge_version(v: ModelVersioning, vid: str) -> bool:
    return sum(1 for _, b in v.modifications if b == vid) == 2


@pytest.mark.parametrize("seed", range(16))
def test_lcp_table_and_partners_match_the_reference_off_topological_order(seed):
    v = merge_history(seed)
    v.validate()
    ids = v.ids
    assert ids[-1] == v.root and any(is_merge_version(v, x) for x in ids)
    assert_one_numbering(v)
    table = v.latest_common_predecessor_table()
    partners = {v.ids[k]: set(v.ids_of(m)) for k, m in enumerate(v.merge_partners)}
    assert len(table) == len(ids) * (len(ids) - 1) // 2
    draw = v.drawn_bases("all")
    for (i, j), bases in table.items():
        assert i < j
        assert frozenset(v.ids_of(bases)) == latest_common_predecessors(v, i, j)
        a, b = v.position[i], v.position[j]
        assert bases == (draw(a, b) if j in partners[i] else 0)
        assert (j in partners[i]) == bool(bases)
    assert set(partners) == set(ids)
    assert v.ids_of(v.mergeable) == sorted(i for i, ps in partners.items() if ps)
    for i, ps in partners.items():
        assert i not in ps
        assert all(i in partners[j] for j in ps)


@pytest.mark.parametrize("seed", range(4))
def test_linear_chain_has_no_merge_partners(seed):
    params = GeneratorParams(seed=seed, base_size=6, branch_factor=1, version_count=15)
    v = rename_versions(generate_versioning(params), seed)
    assert all(not b for b in v.latest_common_predecessor_table().values())
    assert v.merge_partners == [0] * len(v.ids)
    assert v.mergeable == 0


def _given_and_parsed(seed: int) -> tuple[dict, ModelVersioning]:
    """A generated history parsed back, with the models that its corpus
    document lists, built over the parsed history's store."""
    doc = write_corpus(merge_history(seed))
    versioning = parse_corpus(doc)
    store, tg = versioning.store, versioning.type_graph
    given = {v: Model(store, tg, m["nodes"], m["edges"])
             for v, m in json.loads(doc)["versions"].items()}
    return given, versioning


def assert_views_the_models(versioning: ModelVersioning, given: dict) -> None:
    """The versions view holds exactly ``given``, in id order, however it
    is read."""
    view = versioning.versions
    assert list(view) == sorted(given) and len(view) == len(given)
    assert [v for v, _ in view.items()] == sorted(given)
    assert dict(view.items()) == given
    assert list(view.values()) == [given[v] for v in sorted(given)]
    for v, m in given.items():
        assert v in view
        assert view[v] == m
        assert versioning.version(v) == m


@settings(max_examples=100, deadline=None)
@given(history_args())
def test_the_versions_view_builds_the_given_models(args):
    models, mods, root = args
    versioning = ModelVersioning(models, mods, root)
    assert_views_the_models(versioning, models)
    # A kind that a span leaves alone shares its parent's set.
    by_id = dict(versioning.versions.items())
    for (a, b), delta in versioning.spans.items():
        if not delta.created_nodes and not delta.deleted_nodes and versioning._pred[b][0] == a:
            assert by_id[b].node_set is by_id[a].node_set


@pytest.mark.parametrize("seed", range(4))
def test_the_versions_view_builds_renamed_histories_off_topological_order(seed):
    given, versioning = _given_and_parsed(seed)
    assert versioning.ids[-1] == versioning.root  # id order is not topological
    assert_views_the_models(versioning, given)
    renamed = rename_versions(versioning, seed + 1)
    mvm = comb(renamed)
    built = dict(renamed.versions.items())
    assert sorted(built) == list(renamed.ids)
    for v, m in built.items():
        assert renamed.version(v) == m == mvm.proj(v)
    assert sorted(map(members, built.values())) == sorted(map(members, given.values()))


def members(model: Model) -> tuple[list[str], list[str]]:
    return sorted(model.node_set), sorted(model.edge_set)


def test_the_versions_view_rejects_unknown_ids():
    given, versioning = _given_and_parsed(0)
    with pytest.raises(KeyError):
        versioning.versions["x"]
    with pytest.raises(UnknownVersion):
        versioning.version("x")
    assert "x" not in versioning.versions
    assert versioning.versions.get("x") is None


def test_a_built_history_validates_again_unchanged():
    given, versioning = _given_and_parsed(1)
    spans, union = versioning.spans, versioning.union
    versioning.validate()
    assert versioning.spans == spans and versioning.union == union
    assert_views_the_models(versioning, given)


def test_history_equality_compares_the_deltas():
    versioning = merge_history(2)
    data = write_corpus(versioning)
    assert parse_corpus(data) == versioning
    # Drop one edge from one version that no other version descends from:
    # the history stays valid, and only the deltas of the spans into it change.
    doc = json.loads(data)
    parents = {a for a, _ in doc["modifications"]}
    leaf = next(v for v in sorted(doc["versions"]) if v not in parents and doc["versions"][v]["edges"])
    doc["versions"][leaf]["edges"].pop()
    changed = parse_corpus(json.dumps(doc))
    assert changed != versioning
    assert changed.root == versioning.root and changed.modifications == versioning.modifications
    differ = [k for k in versioning.spans if changed.spans[k] != versioning.spans[k]]
    assert differ and all(b == leaf for _, b in differ)
