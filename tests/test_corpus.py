"""File formats: canonical JSON round trips and the corpus generator."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmodel import (
    CorpusSyntaxError,
    ElementStore,
    GeneratorParams,
    Model,
    ModelVersioning,
    ParamError,
    UnknownVersion,
    ValidationError,
    comb,
    generate_versioning,
    oo_constraint_patterns,
    parse_constraints,
    pcheck_mv,
    parse_corpus,
    parse_generator_params,
    svm_check,
    svm_conflicts,
    write_constraints,
    write_corpus,
    write_generator_params,
    write_model,
    write_mv_encoding,
    oo_type_graph,
)
from mvmodel.bench import parse_bench_params
from mvmodel.cli import main
from mvmodel.corpus import canonical_json
from strategies import histories

ROOT = Path(__file__).resolve().parent.parent


def small_params(seed: int = 1) -> GeneratorParams:
    return GeneratorParams(
        seed=seed,
        base_size=9,
        branch_factor=2,
        version_count=5,
        edits_per_modification=3,
        deletion_bias=0.5,
    )


def test_corpus_round_trip_is_byte_stable():
    versioning = generate_versioning(small_params())
    data = write_corpus(versioning)
    back = parse_corpus(data)
    assert back == versioning
    assert write_corpus(back) == data


def _members_by_sorting(versioning: ModelVersioning) -> dict:
    return {vid: {"nodes": sorted(m.node_set), "edges": sorted(m.edge_set)}
            for vid, m in versioning.versions.items()}


@settings(max_examples=150, deadline=None)
@given(histories())
def test_corpus_lists_each_version_in_id_order(versioning):
    # Ids are shuffled, so id order is not the order the history was built in.
    assert json.loads(write_corpus(versioning))["versions"] == _members_by_sorting(versioning)


def test_corpus_lists_versions_in_id_order_across_long_deltas():
    # Spans from one edit to 80, each applied to the parent's sorted list;
    # c10 sorts before c9.
    tg = oo_type_graph()
    store = ElementStore()
    for k in range(120):
        store.add_node(f"c{k}", "Class")
    members = {
        "root": range(10),
        "wide": range(90),              # 80 created
        "narrow": [*range(20, 90), 95], # 20 deleted, 1 created from wide
        "small": [*range(10), 100],
        "both": range(100, 120),        # merge of wide and small
    }
    versions = {v: Model(store, tg, [f"c{k}" for k in ks]) for v, ks in members.items()}
    mods = [("root", "wide"), ("wide", "narrow"), ("root", "small"), ("wide", "both"),
            ("small", "both")]
    versioning = ModelVersioning(versions, mods, "root")
    assert json.loads(write_corpus(versioning))["versions"] == _members_by_sorting(versioning)


def test_shipped_corpora_are_canonical(data_dir):
    for name in ("running.corpus.json", "oo_project.corpus.json"):
        raw = (data_dir / name).read_bytes()
        assert write_corpus(parse_corpus(raw)) == raw, name


def test_shipped_constraints_are_canonical(data_dir):
    raw = (data_dir / "oo_constraints.json").read_bytes()
    patterns = parse_constraints(raw, oo_type_graph())
    assert [p.name for p in patterns] == [
        "consistent-override", "unique-return-type", "unique-superclass",
    ]
    assert write_constraints(patterns) == raw


def test_corpus_rejects_bad_json():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus(b"{not json")


def test_corpus_rejects_wrong_format_marker():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus(json.dumps({"format": "mv-corpus/999"}).encode())


def test_corpus_rejects_missing_keys():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus(json.dumps({"format": "mv-corpus/1"}).encode())


def corpus_obj() -> dict:
    return {
        "format": "mv-corpus/1",
        "type_graph": {
            "node_types": ["Class"],
            "edge_types": {"superclass": {"source": "Class", "target": "Class"}},
        },
        "elements": {
            "nodes": {"c1": "Class", "c2": "Class"},
            "edges": {"e": {"type": "superclass", "source": "c1", "target": "c2"}},
        },
        "root": "r",
        "versions": {
            "r": {"nodes": ["c1", "c2"], "edges": []},
            "v": {"nodes": ["c1", "c2"], "edges": ["e"]},
        },
        "modifications": [["r", "v"]],
    }


def test_corpus_accepts_minimal_document():
    versioning = parse_corpus(json.dumps(corpus_obj()).encode())
    assert versioning.root == "r"
    assert versioning.version("v").edge_set == {"e"}


WIDE_RARE_LIKE = GeneratorParams(seed=3, base_size=100, branch_factor=2, version_count=12,
                                 edits_per_modification=2, deletion_bias=0.95)


@pytest.mark.parametrize("source", ["running", "oo_project", "wide-rare-like"])
def test_a_parsed_history_holds_each_element_id_once(source):
    """Every id that the parsed history holds, in the models its versions
    view builds, its union, its spans' deltas and its edges' endpoints, is
    the object that the store registered, so the decoded copies are gone
    and the set algebra meets identical objects."""
    if source == "wide-rare-like":  # big models, few edits, at a tenth of the size
        data = write_corpus(generate_versioning(WIDE_RARE_LIKE))
    else:
        data = (ROOT / "data" / f"{source}.corpus.json").read_bytes()
    versioning = parse_corpus(data)
    store = versioning.store
    registered = {x: x for x in (*store.node_ids(), *store.edge_ids())}
    held = [*versioning.union.node_set, *versioning.union.edge_set]
    for m in versioning.versions.values():
        held += [*m.node_set, *m.edge_set]
    for delta in versioning.spans.values():
        held += [*delta.created_nodes, *delta.deleted_nodes,
                 *delta.created_edges, *delta.deleted_edges]
    for e in store.edge_ids():
        held += store.endpoint(e)
    assert all(x is registered[x] for x in held)
    assert len({id(x) for x in (*registered, *held)}) == len(store)


def _models_reached(start: object, stop: tuple) -> list[Model]:
    """Every Model reachable from ``start`` over ``gc.get_referents``,
    not going through ``stop``, classes, modules or functions."""
    opaque = (type, types.ModuleType, types.FunctionType)
    seen = {id(x) for x in (start, *stop)}
    todo, found = [start], []
    while todo:
        x = todo.pop()
        if isinstance(x, Model):
            found.append(x)
        for y in gc.get_referents(x):
            if id(y) not in seen and not isinstance(y, opaque):
                seen.add(id(y))
                todo.append(y)
    return found


@pytest.mark.parametrize("source", ["parsed", "generated"])
def test_a_history_holds_no_model_but_its_union(source):
    """A history holds its deltas, not its versions: after construction,
    and after both per-version routes have read its versions, the union
    is the only model reachable from it."""
    versioning = generate_versioning(WIDE_RARE_LIKE)
    if source == "parsed":
        versioning = parse_corpus(write_corpus(versioning))
    patterns = oo_constraint_patterns()
    assert svm_check(versioning, patterns) == [pcheck_mv(comb(versioning), p) for p in patterns]
    svm_conflicts(versioning)
    stop = (versioning.store, versioning.type_graph)
    assert _models_reached(versioning, stop) == [versioning.union]


def test_a_parsed_wide_rare_history_holds_under_2_mib():
    """perfbench's wide-rare shape: 120 versions of about 2,000 elements.
    Its version models would hold over 7 MiB; the history holds its store,
    its union, the root's members and the spans' deltas."""
    data = write_corpus(generate_versioning(GeneratorParams(**_perfbench_run().SHAPES["wide-rare"])))
    gc.collect()
    tracemalloc.start()
    try:
        versioning = parse_corpus(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(versioning.ids) == 120
    assert held < 2 * 2**20


def test_corpus_rejects_unknown_element_in_version():
    obj = corpus_obj()
    obj["versions"]["v"]["nodes"].append("ghost")
    with pytest.raises(ValidationError):
        parse_corpus(json.dumps(obj).encode())


NOT_STRINGS = (CorpusSyntaxError, "versions.v: element ids must be strings")


@pytest.mark.parametrize("key", ["nodes", "edges"])
@pytest.mark.parametrize("bad, expected", [
    ([1], NOT_STRINGS),
    ([True], NOT_STRINGS),
    ([None], NOT_STRINGS),
    ([[]], NOT_STRINGS),
    ([{}], NOT_STRINGS),
    (["ghost"], (ValidationError, "versions.v: 'ghost' is not a registered {kind}")),
    (["ghost", 1], NOT_STRINGS),
    ([[], "ghost"], NOT_STRINGS),
], ids=["int", "true", "null", "list", "object", "unregistered", "int-and-unregistered",
        "list-and-unregistered"])
def test_corpus_pins_the_error_for_each_bad_element_id(key, bad, expected):
    # A non-string id is a syntax error, whatever else the list holds; an
    # unregistered string id is a validation error naming it.
    obj = corpus_obj()
    obj["versions"]["v"][key] += bad
    kind, message = expected
    with pytest.raises(kind) as err:
        parse_corpus(json.dumps(obj).encode())
    assert type(err.value) is kind
    assert str(err.value) == message.format(kind=key[:-1])


def test_validate_reports_a_non_string_element_id_on_one_line(capsys, tmp_path):
    obj = corpus_obj()
    obj["versions"]["v"]["edges"].append(7)
    path = tmp_path / "bad.corpus.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: versions.v: element ids must be strings\n")


def test_corpus_rejects_edge_with_unknown_endpoint():
    obj = corpus_obj()
    obj["elements"]["edges"]["bad"] = {
        "type": "superclass", "source": "c1", "target": "ghost",
    }
    with pytest.raises(ValidationError):
        parse_corpus(json.dumps(obj).encode())


def test_corpus_rejects_unknown_modification_target():
    obj = corpus_obj()
    obj["modifications"].append(["v", "ghost"])
    with pytest.raises(UnknownVersion):
        parse_corpus(json.dumps(obj).encode())


def test_corpus_rejects_mistyped_modification():
    obj = corpus_obj()
    obj["modifications"].append("r->v")
    with pytest.raises(CorpusSyntaxError):
        parse_corpus(json.dumps(obj).encode())


def test_constraints_reject_empty_pattern():
    doc = {
        "format": "mv-constraints/1",
        "patterns": {"empty": {"nodes": {}, "edges": {}}},
    }
    with pytest.raises(ValidationError):
        parse_constraints(json.dumps(doc).encode(), oo_type_graph())


def test_constraint_round_trip():
    patterns = oo_constraint_patterns()
    data = write_constraints(patterns)
    back = parse_constraints(data, oo_type_graph())
    assert [p.name for p in back] == [p.name for p in patterns]
    for a, b in zip(back, patterns):
        assert a.graph.node_set == b.graph.node_set
        assert a.graph.edge_set == b.graph.edge_set
    assert write_constraints(back) == data


def test_mv_encoding_lists_structure_and_origins():
    versioning = parse_corpus_file()
    mvm = comb(versioning)
    doc = json.loads(write_mv_encoding(mvm).decode())
    assert doc["format"] == "mv-encoding/1"
    assert doc["nodes"]["sup_c1_c3"] == "superclass_mv"
    assert doc["edges"]["src:sup_c1_c3"]["source"] == "sup_c1_c3"
    assert doc["edges"]["src:sup_c1_c3"]["target"] == "c1"
    assert doc["nodes"]["version:M_1"] == "version"
    assert doc["edges"]["suc:M_1:M_2"]["type"] == "suc"
    assert doc["edges"]["cv:c4:M_1"]["type"] == "cv_Class_mv"
    assert doc["edges"]["dv:c4:M_2"]["type"] == "dv_Class_mv"
    assert doc["origin"]["sup_c1_c3"] == "sup_c1_c3"
    # stable bytes
    assert write_mv_encoding(mvm) == write_mv_encoding(comb(versioning))


def parse_corpus_file():
    from conftest import DATA_DIR

    return parse_corpus((DATA_DIR / "running.corpus.json").read_bytes())


# Characters json escapes, and lone surrogates, which only an ASCII
# writer can write at all.
JSON_CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€\U0001f600'),
)
JSON_TEXT = st.text(JSON_CHARS, max_size=8)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([True, False, 1, 0, float("nan"), float("inf"), float("-inf"), -0.0, 1e16]),
    JSON_TEXT,
    st.sampled_from([[], {}, ()]),
)
# json converts these keys to strings: bools and None to their JSON
# texts, numbers as float.__repr__ and int.__repr__ write them. One kind
# per object, or the sort by key fails.
JSON_OTHER_KEYS = st.one_of(
    st.dictionaries(st.one_of(st.integers(), st.booleans(), st.floats()), st.none(), max_size=4),
    st.dictionaries(st.none(), JSON_TEXT, max_size=1),
)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, JSON_OTHER_KEYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        # All strings: the writer joins these in one go.
        st.lists(JSON_TEXT, max_size=4),
        st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps_with_two_space_indent_and_sorted_keys(obj):
    assert canonical_json(obj) == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("obj", [
    {1, 2},
    ["a", {"x"}],
    {"a": "b", "c": {"d"}},
    [{"a": [[], {"b": frozenset()}]}],
    {"a": {1: "b", "c": "d"}},
    {(1,): "a"},
], ids=["set", "in-a-list-of-strings", "in-an-object-of-strings", "nested", "mixed-keys",
        "tuple-key"])
def test_canonical_json_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as err:
        canonical_json(obj)
    assert str(err.value) == str(expected.value)


def test_write_model_is_canonical():
    versioning = parse_corpus_file()
    rendered = write_model(versioning.version("M_2"), "M_2")
    doc = json.loads(rendered.decode())
    assert doc["format"] == "mv-model/1"
    assert doc["version"] == "M_2"
    assert set(doc["nodes"]) == {"c1", "c2", "c3"}
    assert set(doc["edges"]) == {"sup_c1_c3"}
    assert write_model(versioning.version("M_2"), "M_2") == rendered


# -- generator --------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_versioning(small_params())
    b = generate_versioning(small_params())
    assert a == b
    assert write_corpus(a) == write_corpus(b)


def _perfbench_run():
    """perfbench/run.py as a module, for its SHAPES and EXPECTED tables."""
    here = ROOT / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(here))  # run.py imports its tracer module by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(here))
    return module


def _bench_corpus_params(name: str) -> dict:
    return json.loads((ROOT / "data" / f"bench_{name}.params.json").read_text())["corpus"]


# Name -> (generator parameters, sha256 of write_corpus(generate_versioning(...))):
# generation and the writer may get faster, never different. Ids do not
# sort in creation order past 9,999 elements (n10000 < n9999) and past
# 999 versions (v1000 < v101). data/bench_check.params.json's corpus is
# the wide-rare shape, pinned with the other shapes below.
GENERATED = {
    "bench_conflicts": (_bench_corpus_params("conflicts"),
                        "6b051dc54d01a0d493abb24209f3f93b09b02087d1c17472ed0fb5d4737b2c04"),
    "bench_merge": (_bench_corpus_params("merge"),
                    "5f4f34c72c3900d2e9aa85137c23c2ab34d86e14f5dc5e4c35dd3988126808cf"),
    "bench_small_all": (_bench_corpus_params("small_all"),
                        "2610d9cd82bca8d51a105f0fb060a33340f9bf190a814ad496740bbc484280b4"),
    "one-version": (dict(seed=4, base_size=30, version_count=1),
                    "8e42e290533f3111276ca9de9e9fccc484bd935296c15965e49f040a3fa8b548"),
    "empty-base": (dict(seed=5, base_size=0, branch_factor=2, version_count=40,
                        edits_per_modification=5, deletion_bias=0.3),
                   "77cc3fa457375113d78be638bb0b6d1fa50f5c626387b6f15decc73cd00d9ada"),
    "no-edits": (dict(seed=6, base_size=30, branch_factor=3, version_count=20,
                      edits_per_modification=0),
                 "e0f1a3822c9e4938f025069c0c2d5b262101ba8d766dd65ca668429a92439167"),
    "never-delete": (dict(seed=7, base_size=30, branch_factor=2, version_count=40,
                          edits_per_modification=6, deletion_bias=0.0),
                     "22056ddeb693a9e8841b3a2bb45acc46f7fe83627f89f4c519be089c1ec96b35"),
    "always-delete": (dict(seed=8, base_size=60, branch_factor=2, version_count=40,
                           edits_per_modification=6, deletion_bias=1.0),
                      "2c7736975b5acb2b75ea997cbfadb6bb3649a2aa307b5a4c967ebcd1dba0be04"),
    "chain": (dict(seed=9, base_size=30, branch_factor=1, version_count=40,
                   edits_per_modification=5, deletion_bias=0.4),
              "00b2745d28f718182a0a09e2919e801bff01417e7bdf540011c63ed69a164c2b"),
    "past-n9999": (dict(seed=10, base_size=10050, branch_factor=2, version_count=8,
                        edits_per_modification=40, deletion_bias=0.3),
                   "cd1be7e2e4a624b43d87592d2924c2aef2d844080e5b40952df0e505534744a0"),
    "past-v999": (dict(seed=11, base_size=8, branch_factor=3, version_count=1020,
                       edits_per_modification=2, deletion_bias=0.4),
                  "555b9efcdefe4d4aaefdc256d52d02516cde0fdf000587ffeb72c65f7caf8a2d"),
}


def _generated(params: dict) -> tuple[ModelVersioning, str]:
    versioning = generate_versioning(GeneratorParams(**params))
    return versioning, hashlib.sha256(write_corpus(versioning)).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_corpus_bytes_are_pinned(name):
    params, digest = GENERATED[name]
    versioning, got = _generated(params)
    assert got == digest
    if name == "past-n9999":
        assert {"n10000", "e10000"} <= {*versioning.store.node_ids(), *versioning.store.edge_ids()}
    if name == "past-v999":
        assert "v1000" in versioning.versions


def test_generated_corpus_bytes_match_the_benchmark_shapes():
    run = _perfbench_run()
    assert _bench_corpus_params("check") == run.SHAPES["wide-rare"]
    for shape, params in run.SHAPES.items():
        assert _generated(params)[1] == run.EXPECTED[shape]["sha256"], shape


def test_generator_seeds_differ():
    a = write_corpus(generate_versioning(small_params(seed=1)))
    b = write_corpus(generate_versioning(small_params(seed=2)))
    assert a != b


def test_generator_params_validate():
    with pytest.raises(ParamError):
        GeneratorParams(seed=0, base_size=-1).validate()
    with pytest.raises(ParamError):
        GeneratorParams(seed=0, version_count=0).validate()
    with pytest.raises(ParamError):
        GeneratorParams(seed=0, branch_factor=0).validate()
    with pytest.raises(ParamError):
        GeneratorParams(seed=0, edits_per_modification=-1).validate()
    with pytest.raises(ParamError):
        GeneratorParams(seed=0, deletion_bias=1.5).validate()


def test_generator_params_file_round_trip():
    params = small_params(seed=9)
    data = write_generator_params(params)
    assert parse_generator_params(data) == params
    assert write_generator_params(parse_generator_params(data)) == data


def test_generator_params_reject_unknown_keys():
    doc = json.loads(write_generator_params(small_params()).decode())
    doc["mystery"] = 1
    with pytest.raises(ParamError):
        parse_generator_params(json.dumps(doc).encode())


def test_generator_params_reject_wrong_format():
    doc = json.loads(write_generator_params(small_params()).decode())
    doc["format"] = "mv-generator/0"
    with pytest.raises(CorpusSyntaxError):
        parse_generator_params(json.dumps(doc).encode())


PARAM_FILES = {
    "generator-params": ("mv-generator/1", parse_generator_params),
    "bench-params": ("mv-bench/1", parse_bench_params),
}
MALFORMED_MARKERS = [
    ([], "expected an object"),
    ({}, "missing key 'format'"),
    ({"format": 1}, "key 'format' must be a str"),
    ({"format": "mv-corpus/1"}, "expected format '{marker}', found 'mv-corpus/1'"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_MARKERS,
                         ids=["not-an-object", "no-format", "non-string-format", "wrong-format"])
@pytest.mark.parametrize("what", sorted(PARAM_FILES))
def test_parameter_files_share_the_corpus_format_check(what, doc, message):
    # The texts are the corpus parser's, from the one check_format.
    marker, parse = PARAM_FILES[what]
    with pytest.raises(CorpusSyntaxError) as err:
        parse(json.dumps(doc).encode())
    assert str(err.value) == f"{what}: " + message.format(marker=marker)


@pytest.mark.parametrize("seed", range(30))
def test_generated_corpora_are_valid_and_start_at_v000(seed):
    params = GeneratorParams(
        seed=seed,
        base_size=4 + seed % 17,
        branch_factor=1 + seed % 3,
        version_count=1 + seed % 8,
        edits_per_modification=seed % 5,
        deletion_bias=(seed % 4) * 0.25,
    )
    versioning = generate_versioning(params)
    versioning.validate()
    ids = versioning.ids
    assert ids[0] == "v000" and versioning.root == "v000"
    assert len(ids) == params.version_count
    assert all(len(v) == 4 and v.startswith("v") for v in ids)


def test_linear_histories_stay_linear():
    params = GeneratorParams(
        seed=5, base_size=10, branch_factor=1, version_count=12,
        edits_per_modification=3, deletion_bias=0.3,
    )
    versioning = generate_versioning(params)
    for vid in versioning.ids:
        assert len(versioning.successors(vid)) <= 1
    assert len(versioning.modifications) == 11
