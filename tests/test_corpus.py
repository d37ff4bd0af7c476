"""File formats: canonical JSON round trips and the corpus generator."""

from __future__ import annotations

import json

import pytest

from mvmodel import (
    CorpusSyntaxError,
    GeneratorParams,
    ParamError,
    UnknownVersion,
    ValidationError,
    comb,
    generate_versioning,
    oo_constraint_patterns,
    parse_constraints,
    parse_corpus,
    parse_generator_params,
    write_constraints,
    write_corpus,
    write_generator_params,
    write_model,
    write_mv_encoding,
    oo_type_graph,
)
from mvmodel.bench import parse_bench_params
from mvmodel.cli import main


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
    ids = versioning.version_ids()
    assert ids[0] == "v000" and versioning.root == "v000"
    assert len(ids) == params.version_count
    assert all(len(v) == 4 and v.startswith("v") for v in ids)


def test_linear_histories_stay_linear():
    params = GeneratorParams(
        seed=5, base_size=10, branch_factor=1, version_count=12,
        edits_per_modification=3, deletion_bias=0.3,
    )
    versioning = generate_versioning(params)
    for vid in versioning.version_ids():
        assert len(versioning.successors(vid)) <= 1
    assert len(versioning.modifications) == 11
