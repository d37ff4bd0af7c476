"""Command line behaviour: output formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import mvmodel.baseline
import mvmodel.bench
import mvmodel.cli
import mvmodel.core
import mvmodel.reports
import mvmodel.tasks
import mvmodel.versioning
from mvmodel import (
    GeneratorParams,
    ModelVersioning,
    comb,
    generate_versioning,
    parse_constraints,
    parse_corpus,
    write_corpus,
)
from mvmodel.cli import main
from oracles import merge_triplets

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
RUNNING = str(DATA_DIR / "running.corpus.json")
RUNNING_K = str(DATA_DIR / "running_constraints.json")
PROJECT = str(DATA_DIR / "oo_project.corpus.json")
PROJECT_K = str(DATA_DIR / "oo_constraints.json")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_summarises_corpus(capsys, data_dir):
    code, out, err = run_cli(capsys, "validate", str(data_dir / "running.corpus.json"))
    assert code == 0 and err == ""
    assert out == "ok versions=3 elements=7\n"


def test_validate_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_validate_bad_format_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "nope"}')
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing corpus and --constraints
    assert exc.value.code == 2


def test_project_writes_model_document(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "project", str(data_dir / "running.corpus.json"), "--version", "M_2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "M_2"
    assert set(doc["nodes"]) == {"c1", "c2", "c3"}
    assert list(doc["edges"]) == ["sup_c1_c3"]


def test_project_unknown_version_exits_1(capsys, data_dir):
    code, _, err = run_cli(
        capsys, "project", str(data_dir / "running.corpus.json"), "--version", "M_9"
    )
    assert code == 1 and "M_9" in err


def test_check_text_format(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "check",
        str(data_dir / "oo_project.corpus.json"),
        "--constraints",
        str(data_dir / "oo_constraints.json"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total 9"
    assert lines[0] == (
        "violation pattern=consistent-override version=v2"
        " nodes=meth_sub:foo_b,meth_super:foo_a,ret_sub:t_str,ret_super:t_int"
        " edges=ovr:ovr_bfoo_afoo,rt_sub:rt_bfoo_str,rt_super:rt_afoo_int"
    )
    assert all(l.startswith("violation pattern=") for l in lines[:-1])


def test_braces_in_names_print_as_they_are(capsys, tmp_path):
    """Names and ids are format arguments of the line template, never part
    of it, so ``{`` and ``}`` in them print unchanged."""
    constraints = {
        "format": "mv-constraints/1",
        "patterns": {
            "a{0}b{}": {
                "nodes": {"s{0}": "Class", "t{}": "Class"},
                "edges": {"e{x}": {"type": "superclass", "source": "s{0}", "target": "t{}"}},
            }
        },
    }
    path = tmp_path / "braces.constraints.json"
    path.write_text(json.dumps(constraints))
    outs = [
        run_cli(capsys, "check", RUNNING, "--constraints", str(path), "--mode", mode)
        for mode in ("mvm", "svm")
    ]
    assert outs[0] == outs[1]
    code, out, err = outs[0]
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "total 3"
    assert lines[0] == (
        "violation pattern=a{0}b{} version=M_2 nodes=s{0}:c1,t{}:c3 edges=e{x}:sup_c1_c3"
    )
    assert all(l.startswith("violation pattern=a{0}b{} version=") for l in lines[:-1])


def test_check_modes_agree(capsys, data_dir):
    corpus = str(data_dir / "oo_project.corpus.json")
    constraints = str(data_dir / "oo_constraints.json")
    _, out_mvm, _ = run_cli(capsys, "check", corpus, "--constraints", constraints)
    _, out_svm, _ = run_cli(
        capsys, "check", corpus, "--constraints", constraints, "--mode", "svm"
    )
    assert out_mvm == out_svm


def test_check_json_is_canonical(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "check",
        str(data_dir / "oo_project.corpus.json"),
        "--constraints",
        str(data_dir / "oo_constraints.json"),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "mv-report/1"
    assert doc["total"] == 9 and len(doc["violations"]) == 9
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_conflicts_text_format(capsys, data_dir):
    code, out, _ = run_cli(capsys, "conflicts", str(data_dir / "oo_project.corpus.json"))
    assert code == 0
    assert out == (
        "conflict left=v3 right=v5 base=v1 edge=sup_c_a node=cls_c\n"
        "conflict left=v4 right=v5 base=v2 edge=sup_c_a node=cls_c\n"
        "total 2\n"
    )


def test_merge_check_text_format(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "merge-check",
        str(data_dir / "running.corpus.json"),
        "--constraints",
        str(data_dir / "running_constraints.json"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total 2"
    assert lines[0] == (
        "merge-violation pattern=unique-superclass left=M_2 right=M_3 base=M_1"
        " nodes=cls:c1,sup_a:c2,sup_b:c3 edges=ext_a:sup_c1_c2,ext_b:sup_c1_c3"
    )


def test_merge_check_lcp_single(capsys, data_dir):
    corpus = str(data_dir / "oo_project.corpus.json")
    constraints = str(data_dir / "oo_constraints.json")
    _, out_all, _ = run_cli(capsys, "merge-check", corpus, "--constraints", constraints)
    _, out_single, _ = run_cli(
        capsys, "merge-check", corpus, "--constraints", constraints, "--lcp", "single"
    )
    # every pair here has exactly one merge base, so the modes agree
    assert out_all == out_single
    assert out_all.splitlines()[-1] == "total 7"


def test_oracle_passes_on_shipped_corpora(capsys, data_dir):
    for corpus, constraints in (
        ("running.corpus.json", "running_constraints.json"),
        ("oo_project.corpus.json", "oo_constraints.json"),
    ):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            str(data_dir / corpus),
            "--constraints",
            str(data_dir / constraints),
        )
        assert code == 0, corpus
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(" ok results=" in l for l in lines)


def test_generate_round_trips_through_cli(capsys, tmp_path, data_dir):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "format": "mv-generator/1",
                "seed": 4,
                "base_size": 8,
                "branch_factor": 2,
                "version_count": 5,
                "edits_per_modification": 2,
                "deletion_bias": 0.25,
            }
        )
    )
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert run_cli(capsys, "generate", "--params", str(params), "-o", str(out1))[0] == 0
    assert run_cli(capsys, "generate", "--params", str(params), "-o", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    code, _, _ = run_cli(capsys, "validate", str(out1))
    assert code == 0


def test_export_mvm_document(capsys, data_dir):
    code, out, _ = run_cli(capsys, "export-mvm", str(data_dir / "running.corpus.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "mv-encoding/1"
    assert "version:M_1" in doc["nodes"]


def test_bench_small_corpus(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--params",
        str(data_dir / "bench_small_all.params.json"),
        "--repeat",
        "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["task", "mvm_s", "svm_s", "speedup", "results"]
    assert [l.split()[0] for l in lines[1:]] == ["check", "conflicts", "merge-check"]


def test_bench_json_fields(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--params",
        str(data_dir / "bench_small_all.params.json"),
        "--repeat",
        "1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "mv-bench-report/1"
    assert [t["task"] for t in doc["tasks"]] == ["check", "conflicts", "merge-check"]
    for t in doc["tasks"]:
        assert t["mvm_time"] >= 0 and t["svm_time"] >= 0
        assert isinstance(t["results"], int)


def test_bench_json_times_each_route_end_to_end(capsys, data_dir):
    params = str(data_dir / "bench_small_all.params.json")
    code, out, err = run_cli(capsys, "bench", "--params", params, "--repeat", "3", "--json")
    assert code == 0 and err == ""
    for task in json.loads(out)["tasks"]:
        for route in ("mvm", "svm"):
            times = task[route]
            assert times["time"]["mean"] == task[f"{route}_time"]
            for stats in (times["time"], times["e2e_time"]):
                assert 0 <= stats["min"] <= min(stats["median"], stats["mean"])
            assert sorted(times["phases"]) == ["analysis", "fold", "generate", "lcp_table", "render"]
            assert sum(times["phases"].values()) == pytest.approx(times["e2e_time"]["mean"], abs=1e-5)


def test_bench_sets_up_one_history_per_repetition_and_route(capsys, data_dir, monkeypatch):
    """Each repetition of each route generates one history, and the folded
    route folds it twice: once for the verdict from nothing and once, fresh,
    for the analysis alone; no history is shared or warmed up besides."""
    calls = Counter()

    def counted(name):
        real = getattr(mvmodel.bench, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mvmodel.bench, name, call)

    counted("generate_versioning")
    counted("comb")
    params = str(data_dir / "bench_small_all.params.json")  # 3 tasks
    code, _, err = run_cli(capsys, "bench", "--params", params, "--repeat", "2")
    assert code == 0 and err == ""
    assert calls == {"generate_versioning": 3 * 2 * 2, "comb": 3 * 2 * 2}


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", RUNNING),
        ("project", RUNNING, "--version", "M_3"),
        ("check", PROJECT, "--constraints", PROJECT_K),
        ("check", PROJECT, "--constraints", PROJECT_K, "--json"),
        ("check", PROJECT, "--constraints", PROJECT_K, "--mode", "svm"),
        ("conflicts", PROJECT),
        ("conflicts", PROJECT, "--lcp", "single"),
        ("conflicts", PROJECT, "--mode", "svm", "--json"),
        ("merge-check", PROJECT, "--constraints", PROJECT_K),
        ("merge-check", RUNNING, "--constraints", RUNNING_K, "--json"),
        ("oracle", PROJECT, "--constraints", PROJECT_K),
        ("export-mvm", RUNNING),
    ],
)
def test_commands_are_byte_deterministic(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvmodel.cli", "validate", RUNNING],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok versions=3 elements=7\n"


def test_package_runs_as_module():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mvmodel", "validate", "data/running.corpus.json"],
        capture_output=True,
        text=True,
        cwd=DATA_DIR.parent,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "ok versions=3 elements=7\n"


HASHED_OUTPUTS = {
    "check": (["--constraints", PROJECT_K], b"violation pattern="),
    "merge-check": (["--constraints", PROJECT_K], b"violation pattern="),
    "conflicts": ([], b"conflict left="),
    "export-mvm": ([], b'"format": "mv-encoding/1"'),
}


@pytest.mark.parametrize(
    "command, mode",
    [(command, mode) for command in ("check", "merge-check", "conflicts") for mode in ("mvm", "svm")]
    + [pytest.param("export-mvm", None, id="export-mvm")],
)
def test_output_does_not_depend_on_string_hashing(command, mode):
    """The matcher draws candidates from sets, and the conflict analysis and
    the export walk the union's sets, whose order follows string hashes; two
    processes with different hash seeds print the same bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    options, marker = HASHED_OUTPUTS[command]
    argv = [sys.executable, "-m", "mvmodel", command, PROJECT, *options]
    if mode is not None:
        argv += ["--mode", mode]
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stderr == b""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and marker in outputs[0]


def test_generated_corpus_does_not_depend_on_string_hashing(tmp_path):
    """Every random draw of the generator is over a sorted list; a draw
    from a set would follow the hash seed, which one process cannot see."""
    params = tmp_path / "branchy.params.json"
    params.write_text(json.dumps({
        "format": "mv-generator/1", "seed": 1, "base_size": 60, "branch_factor": 3,
        "version_count": 60, "edits_per_modification": 4, "deletion_bias": 0.4,
    }))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "mvmodel", "generate", "--params", str(params)],
                              capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stderr == b""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and b'"format": "mv-corpus/1"' in outputs[0]


def test_unregistered_id_error_does_not_depend_on_string_hashing(tmp_path):
    """Of two unregistered ids in one version, the error names the least,
    whatever order the version's id set iterates in."""
    corpus = json.loads(Path(RUNNING).read_text())
    corpus["versions"]["M_3"]["edges"] += ["M_1", "c1"]
    path = tmp_path / "two-unregistered.corpus.json"
    path.write_text(json.dumps(corpus))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for hash_seed in range(1, 9):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash_seed)}
        proc = subprocess.run([sys.executable, "-m", "mvmodel", "validate", str(path)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: versions.M_3: 'M_1' is not a registered edge\n"


def test_dangling_edge_in_the_root_is_named(capsys, tmp_path):
    # The root's properness is proven by the history's first span, from the
    # empty model to the root; the full check then names the root.
    corpus = json.loads(Path(RUNNING).read_text())
    corpus["versions"]["M_1"] = {"nodes": ["c1", "c2", "c4"], "edges": ["sup_c1_c3"]}
    path = tmp_path / "dangling-root.corpus.json"
    path.write_text(json.dumps(corpus))
    err = assert_one_error_line(capsys, "validate", str(path))
    assert err == "error: version 'M_1' is invalid: edge 'sup_c1_c3' lacks an endpoint node in the graph\n"


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("command", ["check", "merge-check", "project", "export-mvm"])
def test_stdout_gets_utf8_whatever_its_encoding(tmp_path, encoding, command):
    """With one version renamed to non-ASCII, stdout gets the bytes that
    ``-o`` writes, even where Python would encode stdout in ASCII or
    latin-1."""
    corpus = json.loads(Path(RUNNING).read_text())
    renamed = "v\u00e9\u20ac"
    corpus["versions"][renamed] = corpus["versions"].pop("M_3")
    corpus["modifications"] = [[renamed if v == "M_3" else v for v in m] for m in corpus["modifications"]]
    path = tmp_path / "renamed.corpus.json"
    path.write_text(json.dumps(corpus))
    argv = [sys.executable, "-m", "mvmodel", command, str(path)]
    argv += ["--version", renamed] if command == "project" else []
    argv += ["--constraints", RUNNING_K] if command.endswith("check") else []
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": encoding}
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert proc.returncode == 0 and proc.stderr == b""
    out = tmp_path / "out"
    assert subprocess.run([*argv, "-o", str(out)], env=env).returncode == 0
    assert proc.stdout == out.read_bytes()
    if command == "merge-check":  # its text output names the versions
        assert renamed.encode("utf-8") in proc.stdout


def traced_peak(fn) -> int:
    """The peak of memory that Python allocated while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_output_is_streamed(tmp_path):
    """A report command holds only a chunk of its output at a time: on the
    benchmark's long-history shape (68,133 conflicts), ``conflicts -o``
    peaks above the analysis alone by less than half of the file it
    writes, in text and in JSON."""
    params = GeneratorParams(seed=2, base_size=40, branch_factor=3, version_count=300,
                             edits_per_modification=3, deletion_bias=0.4)
    corpus = tmp_path / "long-history.corpus.json"
    corpus.write_bytes(write_corpus(generate_versioning(params)))
    task = mvmodel.tasks.TASKS["conflicts"]

    def analysis():
        task.mvm(comb(parse_corpus(corpus.read_bytes())), [], "all")

    analysis()  # untraced: lazy one-time allocations land outside the peaks
    alone = traced_peak(analysis)
    out = tmp_path / "out"
    for fmt in ([], ["--json"]):
        verdict = traced_peak(lambda: main(["conflicts", str(corpus), "-o", str(out), *fmt]))
        assert verdict - alone < out.stat().st_size / 2, fmt


def test_verdicts_build_no_reference_cycles():
    """With the cyclic collector off, as in a CLI command, reference
    counting alone frees what the analyses drop: parsing, folding, both
    routes of every task in both lcp modes and rendering leave nothing
    for ``gc.collect()`` to find."""
    params = GeneratorParams(seed=1, base_size=30, branch_factor=3, version_count=20)
    corpora = [Path(PROJECT).read_bytes(), write_corpus(generate_versioning(params))]
    constraints = Path(PROJECT_K).read_bytes()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for raw in corpora:
            versioning = parse_corpus(raw)
            patterns = parse_constraints(constraints, versioning.type_graph)
            mvm = comb(versioning)
            for task in mvmodel.tasks.TASKS.values():
                for lcp in mvmodel.versioning.LCP_MODES:
                    for route, subject in ((task.mvm, mvm), (task.svm, versioning)):
                        mvmodel.reports.write_text(route(subject, patterns, lcp), io.StringIO().write)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_setting(monkeypatch, tmp_path, enabled):
    """A command runs with the cyclic collector off; afterwards the
    collector is on or off as the caller had it, whether the command
    succeeded, failed on its data or failed to read its input."""
    parse = mvmodel.cli.parse_corpus
    during = []

    def recorded(data):
        during.append(gc.isenabled())
        return parse(data)

    monkeypatch.setattr(mvmodel.cli, "parse_corpus", recorded)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        for argv, code in (
            (["validate", RUNNING], 0),
            (["project", RUNNING, "--version", "nope"], 1),
            (["validate", str(tmp_path / "missing.json")], 2),
        ):
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert during == [False, False]


def test_closing_the_pipe_early_exits_0_quietly(tmp_path):
    """As in ``mvmodel check ... | head -1``: the reader takes one line of
    an output of several chunks and closes the pipe; the command exits 0
    with nothing on stderr."""
    params = GeneratorParams(seed=0, base_size=50, branch_factor=1, version_count=60,
                             edits_per_modification=8, deletion_bias=0.1)
    corpus = tmp_path / "chain.corpus.json"
    corpus.write_bytes(write_corpus(generate_versioning(params)))
    argv = ["check", str(corpus), "--constraints", PROJECT_K]
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 0
    assert out.read_bytes().count(b"\n") > 2 * mvmodel.reports._CHUNK
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "mvmodel", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""
    assert out.read_bytes().startswith(first) and first.endswith(b"\n")


# sha256 of export-mvm output; the encoding is a published format, so its
# bytes must not drift
EXPORT_MVM_SHA256 = {
    "running.corpus.json": "df357d3fd30addce39e2951eefd7bb1ae2c66e843b92ab54bf03c15bc1c9db33",
    "oo_project.corpus.json": "b86d63c35e8dbd7bc31c131d972cc8846a7c71408c0ca5eed99f5adcc19a43f6",
}


@pytest.mark.parametrize("corpus", sorted(EXPORT_MVM_SHA256))
def test_export_mvm_bytes_are_pinned(capsys, tmp_path, data_dir, corpus):
    out = tmp_path / "encoding.json"
    code, _, err = run_cli(capsys, "export-mvm", str(data_dir / corpus), "-o", str(out))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_MVM_SHA256[corpus]


# sha256 of every report output on the shipped corpora, keyed by corpus,
# command and format. Both engines and both --lcp modes must print these
# same bytes: the engines agree, and every mergeable pair in these
# corpora has a single merge base.
REPORT_SHA256 = {
    ("running", "check", "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("running", "check", "json"): "bcbade9597fcb44d3af83a09a555a421e7a0d98a6869e30a02f91cd57f0a72f2",
    ("running", "conflicts", "text"): "6f922c216aa31ad1aa75087ff196ee1aa12db42a430bc44c1a7aadf557a6d9d9",
    ("running", "conflicts", "json"): "3faba66d7aeb83106fddb858fe8b8d3f0412c668aba1b541d5332fddd2436770",
    ("running", "merge-check", "text"): "8c4b6100251a345ace7d3d3ae78bd5668a9cd4302ec4877eb53dde5f9df7fcbe",
    ("running", "merge-check", "json"): "ee24d4f26465357d181c5e0f1910aaac7f4a5c042b8ec000d6b15bc70b6a51cc",
    ("oo_project", "check", "text"): "361ea275fe6754723f68a147f501936d60337e674832ca6f62eba0e0ffbd3558",
    ("oo_project", "check", "json"): "671eb5d06c5392daa51eb0301371c93f2f36a01973dbeea8e96adc80b81fb60a",
    ("oo_project", "conflicts", "text"): "21b5fc9c3838539a3356b96a87c7c0443cf21cb30cb63cb3bc6deae9d46fcbfc",
    ("oo_project", "conflicts", "json"): "ef809cf361f795fb7698700856fbeaa205fb683f1dffd4e77c3bc65aebcada03",
    ("oo_project", "merge-check", "text"): "65ba5a25f783fdd48671eab3c7e7958e571282923a28545d21e57d91847e7b5c",
    ("oo_project", "merge-check", "json"): "d19e3b7b4626a1dc0c353ff430f18085e79640df56d8d878f9fdce3a3d24f914",
}
SHIPPED = {"running": (RUNNING, RUNNING_K), "oo_project": (PROJECT, PROJECT_K)}


def report_cases():
    for corpus, command, fmt in REPORT_SHA256:
        for mode in ("mvm", "svm"):
            for lcp in (None,) if command == "check" else ("all", "single"):
                label = "-".join(x for x in (corpus, command, mode, lcp, fmt) if x)
                yield pytest.param(corpus, command, mode, lcp, fmt, id=label)


@pytest.mark.parametrize("corpus, command, mode, lcp, fmt", report_cases())
def test_report_bytes_are_pinned(capsys, corpus, command, mode, lcp, fmt):
    path, constraints = SHIPPED[corpus]
    argv = [command, path, "--mode", mode]
    if command != "conflicts":
        argv += ["--constraints", constraints]
    if lcp is not None:
        argv += ["--lcp", lcp]
    if fmt == "json":
        argv.append("--json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == REPORT_SHA256[corpus, command, fmt]


def write_reserved_name_corpus(tmp_path: Path) -> tuple[str, str]:
    """A corpus whose edge type cv_A collides with the export encoding's
    creation-mark type for node type A.

    x adds a->c while y deletes c (a conflict); z adds a->b on top of x
    (a check violation), and w adds a->b on its own (merging x and w
    violates the constraint).
    """
    corpus = {
        "format": "mv-corpus/1",
        "type_graph": {
            "node_types": ["A"],
            "edge_types": {"cv_A": {"source": "A", "target": "A"}},
        },
        "elements": {
            "nodes": {"a": "A", "b": "A", "c": "A"},
            "edges": {
                "e_ab": {"type": "cv_A", "source": "a", "target": "b"},
                "e_ac": {"type": "cv_A", "source": "a", "target": "c"},
            },
        },
        "root": "r",
        "versions": {
            "r": {"nodes": ["a", "b", "c"], "edges": []},
            "x": {"nodes": ["a", "b", "c"], "edges": ["e_ac"]},
            "y": {"nodes": ["a", "b"], "edges": []},
            "z": {"nodes": ["a", "b", "c"], "edges": ["e_ab", "e_ac"]},
            "w": {"nodes": ["a", "b", "c"], "edges": ["e_ab"]},
        },
        "modifications": [["r", "w"], ["r", "x"], ["r", "y"], ["x", "z"]],
    }
    constraints = {
        "format": "mv-constraints/1",
        "patterns": {
            "two-out": {
                "nodes": {"p": "A", "q1": "A", "q2": "A"},
                "edges": {
                    "f1": {"type": "cv_A", "source": "p", "target": "q1"},
                    "f2": {"type": "cv_A", "source": "p", "target": "q2"},
                },
            }
        },
    }
    corpus_path = tmp_path / "reserved.corpus.json"
    constraints_path = tmp_path / "reserved.constraints.json"
    corpus_path.write_text(json.dumps(corpus))
    constraints_path.write_text(json.dumps(constraints))
    return str(corpus_path), str(constraints_path)


@pytest.mark.parametrize(
    "command, uses_constraints",
    [("check", True), ("conflicts", False), ("merge-check", True)],
)
def test_reserved_encoding_names_engines_agree(capsys, tmp_path, command, uses_constraints):
    corpus, constraints = write_reserved_name_corpus(tmp_path)
    argv = [command, corpus] + (["--constraints", constraints] if uses_constraints else [])
    mvm = run_cli(capsys, *argv, "--mode", "mvm")
    svm = run_cli(capsys, *argv, "--mode", "svm")
    assert mvm == svm
    code, out, err = mvm
    assert code == 0 and err == ""
    assert out.splitlines()[-1] != "total 0"


def test_reserved_encoding_names_pass_the_oracle(capsys, tmp_path):
    corpus, constraints = write_reserved_name_corpus(tmp_path)
    code, out, err = run_cli(capsys, "oracle", corpus, "--constraints", constraints)
    assert code == 0 and err == ""
    assert all(" ok results=" in l for l in out.splitlines())


def test_reserved_encoding_names_are_rejected_only_by_export(capsys, tmp_path):
    corpus, _ = write_reserved_name_corpus(tmp_path)
    code, out, err = run_cli(capsys, "export-mvm", corpus)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# Node ids that meet the export's colon id scheme: src:e_ab is also the id
# of edge e_ab's source leg, and version:r the id of version r's node.
COLON_IDS = ["src:e_ab", "version:r"]


def write_colon_id_corpus(tmp_path: Path, node_id: str) -> tuple[str, str]:
    """The reserved-name corpus with an ordinary edge type name and its
    node c renamed to ``node_id``."""
    paths = write_reserved_name_corpus(tmp_path)
    for path in map(Path, paths):
        text = path.read_text().replace('"cv_A"', '"link"')
        path.write_text(text.replace('"c"', json.dumps(node_id)))
    return paths


@pytest.mark.parametrize("node_id", COLON_IDS)
@pytest.mark.parametrize(
    "command, uses_constraints",
    [("check", True), ("conflicts", False), ("merge-check", True)],
)
def test_colon_ids_engines_agree(capsys, tmp_path, command, uses_constraints, node_id):
    corpus, constraints = write_colon_id_corpus(tmp_path, node_id)
    argv = [command, corpus] + (["--constraints", constraints] if uses_constraints else [])
    mvm = run_cli(capsys, *argv, "--mode", "mvm")
    svm = run_cli(capsys, *argv, "--mode", "svm")
    assert mvm == svm
    code, out, err = mvm
    assert code == 0 and err == ""
    assert out.splitlines()[-1] != "total 0"


@pytest.mark.parametrize("node_id", COLON_IDS)
def test_colon_ids_pass_the_oracle(capsys, tmp_path, node_id):
    corpus, constraints = write_colon_id_corpus(tmp_path, node_id)
    code, out, err = run_cli(capsys, "oracle", corpus, "--constraints", constraints)
    assert code == 0 and err == ""
    assert all(" ok results=" in l for l in out.splitlines())


@pytest.mark.parametrize("node_id", COLON_IDS)
def test_colon_ids_are_rejected_only_by_export(capsys, tmp_path, node_id):
    corpus, _ = write_colon_id_corpus(tmp_path, node_id)
    code, out, err = run_cli(capsys, "export-mvm", corpus)
    assert code == 1 and out == ""
    assert err == f"error: id {node_id!r} contains ':', the encoding's id separator\n"


def assert_one_error_line(capsys, *argv: str) -> str:
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


GENERATOR_PARAMS = {
    "format": "mv-generator/1",
    "seed": 1,
    "base_size": 6,
    "branch_factor": 2,
    "version_count": 3,
    "edits_per_modification": 1,
    "deletion_bias": 0.5,
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("base_size", "x"),
        ("base_size", True),
        ("base_size", 2.0),
        ("seed", None),
        ("deletion_bias", "x"),
        ("deletion_bias", True),
    ],
)
def test_generator_rejects_mistyped_params(capsys, tmp_path, key, value):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**GENERATOR_PARAMS, key: value}))
    assert_one_error_line(capsys, "generate", "--params", str(params))


def test_bench_rejects_mistyped_corpus_params(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(
        json.dumps({"format": "mv-bench/1", "corpus": {**corpus, "base_size": "x"},
                    "tasks": ["conflicts"]})
    )
    assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")


def test_bench_rejects_unknown_corpus_param_like_generate(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(
        json.dumps({"format": "mv-bench/1", "corpus": {**corpus, "bogus": 1},
                    "tasks": ["conflicts"]})
    )
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")
    assert err == "error: unknown generator parameter 'bogus'\n"


def test_bench_rejects_unknown_lcp_mode(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(
        json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": ["conflicts"],
                    "lcp": "bogus"})
    )
    assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")


def test_bench_rejects_unknown_top_level_key(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(
        json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": ["conflicts"],
                    "lcp_mode": "single"})
    )
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")
    assert err == "error: unknown bench parameter 'lcp_mode'\n"


def test_bench_rejects_zero_repeats(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": ["conflicts"]}))
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "0")
    assert err == "error: repeat must be at least 1\n"


def test_bench_check_without_constraint_patterns_is_one_error(capsys, tmp_path):
    (tmp_path / "none.constraints.json").write_text(
        json.dumps({"format": "mv-constraints/1", "patterns": {}})
    )
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(
        json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": ["check"],
                    "constraints": "none.constraints.json"})
    )
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")
    assert err == "error: check and merge-check tasks need constraint patterns\n"


def test_corpus_that_is_not_utf8_is_one_error(capsys, tmp_path):
    corpus = tmp_path / "latin1.corpus.json"
    corpus.write_bytes(Path(RUNNING).read_bytes().replace(b'"M_1"', b'"M_\xe9"'))
    assert_one_error_line(capsys, "validate", str(corpus))


def test_constraints_that_are_not_utf8_are_one_error(capsys, tmp_path):
    constraints = tmp_path / "latin1.constraints.json"
    constraints.write_bytes(Path(RUNNING_K).read_bytes() + b"\xe9")
    assert_one_error_line(capsys, "check", RUNNING, "--constraints", str(constraints))


DEEPLY_NESTED = "[" * 100000 + "]" * 100000


def test_deeply_nested_corpus_is_one_error(capsys, tmp_path):
    corpus = tmp_path / "deep.corpus.json"
    corpus.write_text(DEEPLY_NESTED)
    assert_one_error_line(capsys, "validate", str(corpus))


def test_deeply_nested_constraints_are_one_error(capsys, tmp_path):
    constraints = tmp_path / "deep.constraints.json"
    constraints.write_text(DEEPLY_NESTED)
    assert_one_error_line(capsys, "check", RUNNING, "--constraints", str(constraints))


# CPython refuses to convert integer strings longer than 4,300 digits.
HUGE_INT = "9" * 5000


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{}"],
        ["check", RUNNING, "--constraints", "{}"],
        ["generate", "--params", "{}"],
        ["bench", "--params", "{}", "--repeat", "1"],
    ],
    ids=["corpus", "constraints", "generator-params", "bench-params"],
)
def test_huge_integer_literal_is_one_error(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text('{"format": ' + HUGE_INT + "}")
    assert_one_error_line(capsys, *(str(path) if a == "{}" else a for a in command))


@pytest.mark.parametrize("command, doc, message", [
    (["generate", "--params"], {"format": 1}, "generator-params: key 'format' must be a str"),
    (["bench", "--repeat", "1", "--params"], {"format": "mv-bench/0"},
     "bench-params: expected format 'mv-bench/1', found 'mv-bench/0'"),
], ids=["generator-params", "bench-params"])
def test_parameter_file_with_a_bad_format_marker_is_one_error(capsys, tmp_path, command, doc, message):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    assert assert_one_error_line(capsys, *command, str(params)) == f"error: {message}\n"


BAD_PATTERNS = {
    "unknown-node-type": ({"a": "Nope"}, {}),
    "unknown-edge-type": (
        {"a": "Class", "b": "Class"},
        {"x": {"type": "nope", "source": "a", "target": "b"}},
    ),
    "type-mismatch": (
        {"a": "Method", "b": "Method"},
        {"x": {"type": "superclass", "source": "a", "target": "b"}},
    ),
    "empty": ({}, {}),
}


@pytest.mark.parametrize("name", sorted(BAD_PATTERNS))
def test_an_invalid_pattern_is_named_in_its_error(capsys, tmp_path, name):
    """A pattern that the corpus's type graph rejects, or that is empty,
    fails with one error line that starts with the pattern's key."""
    nodes, edges = BAD_PATTERNS[name]
    constraints = tmp_path / "bad.constraints.json"
    constraints.write_text(json.dumps(
        {"format": "mv-constraints/1", "patterns": {name: {"nodes": nodes, "edges": edges}}}
    ))
    err = assert_one_error_line(capsys, "check", PROJECT, "--constraints", str(constraints))
    assert err.startswith(f"error: patterns.{name}: ")


def test_bench_params_that_are_not_utf8_are_one_error(capsys, tmp_path):
    params = tmp_path / "bench.json"
    params.write_bytes(b'{"format": "mv-bench/1", "note": "\xe9"}')
    assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")


def test_non_string_id_in_version_nodes_is_one_error(capsys, tmp_path):
    corpus = json.loads(Path(RUNNING).read_text())
    corpus["versions"]["M_1"]["nodes"].append(["x"])
    path = tmp_path / "list-id.corpus.json"
    path.write_text(json.dumps(corpus))
    assert_one_error_line(capsys, "validate", str(path))


def test_non_string_node_type_is_one_error(capsys, tmp_path):
    corpus = json.loads(Path(RUNNING).read_text())
    corpus["type_graph"]["node_types"].append(1)
    path = tmp_path / "int-type.corpus.json"
    path.write_text(json.dumps(corpus))
    assert_one_error_line(capsys, "validate", str(path))
    assert_one_error_line(capsys, "oracle", str(path), "--constraints", RUNNING_K)


@pytest.mark.parametrize("tasks", [[["check"]], [{}]])
def test_bench_rejects_unhashable_task_entries(capsys, tmp_path, tasks):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    params.write_text(json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": tasks}))
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")
    assert err.startswith("error: tasks must be a non-empty subset of ")


def test_bench_rejects_repeated_tasks(capsys, tmp_path):
    params = tmp_path / "bench.json"
    corpus = {k: v for k, v in GENERATOR_PARAMS.items() if k != "format"}
    tasks = ["conflicts", "conflicts"]
    params.write_text(json.dumps({"format": "mv-bench/1", "corpus": corpus, "tasks": tasks}))
    err = assert_one_error_line(capsys, "bench", "--params", str(params), "--repeat", "1")
    assert err.startswith("error: tasks must be a non-empty subset of ")


@pytest.fixture
def folded_conflicts_drop_one(monkeypatch):
    """The folded conflicts route loses the last report of its last group."""
    task = mvmodel.tasks.TASKS["conflicts"]

    def drop_one(*args):
        *groups, (name, reports) = task.mvm(*args)
        return [*groups, (name, reports[:-1])]

    monkeypatch.setitem(mvmodel.tasks.TASKS, "conflicts", dataclasses.replace(task, mvm=drop_one))


def test_oracle_reports_each_mismatch(capsys, folded_conflicts_drop_one):
    code, out, err = run_cli(capsys, "oracle", PROJECT, "--constraints", PROJECT_K)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "oracle check ok results=9",
        "oracle conflicts lcp=all MISMATCH mvm=1 svm=2",
        "oracle conflicts lcp=single MISMATCH mvm=1 svm=2",
        "oracle merge-check lcp=all ok results=7",
        "oracle merge-check lcp=single ok results=7",
    ]


def test_bench_refuses_to_report_a_mismatch(capsys, data_dir, folded_conflicts_drop_one):
    params = str(data_dir / "bench_small_all.params.json")
    err = assert_one_error_line(capsys, "bench", "--params", params, "--repeat", "1")
    assert err == "error: task 'conflicts': modes disagree on results\n"


# The function each command's route calls, per engine. Tracing patches
# these names in mvmodel.tasks, so every route must reach its analysis
# through them.
ROUTE_FUNCTIONS = {
    ("check", "mvm"): "pcheck_mv",
    ("check", "svm"): "svm_check",
    ("conflicts", "mvm"): "mcheck_mv",
    ("conflicts", "svm"): "svm_conflicts",
    ("merge-check", "mvm"): "pcheck_m_mv",
    ("merge-check", "svm"): "svm_merge_check",
}


@pytest.mark.parametrize("command, mode", sorted(ROUTE_FUNCTIONS))
def test_routes_call_analyses_through_module_attributes(capsys, monkeypatch, command, mode):
    name = ROUTE_FUNCTIONS[command, mode]
    analysis = getattr(mvmodel.tasks, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return analysis(*args)

    monkeypatch.setattr(mvmodel.tasks, name, counted)
    argv = [command, PROJECT, "--mode", mode]
    if mvmodel.tasks.TASKS[command].patterns:
        argv += ["--constraints", PROJECT_K]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    patterns = list(json.loads(Path(PROJECT_K).read_text())["patterns"])
    if mode == "svm" and mvmodel.tasks.TASKS[command].patterns:
        # one call visits each version or merge once and checks every pattern on it
        assert [[p.name for p in args[1]] for args in calls] == [patterns]
    elif mvmodel.tasks.TASKS[command].patterns:
        assert sorted(args[1].name for args in calls) == sorted(patterns)
    else:
        assert len(calls) == 1


def walked_spans(monkeypatch) -> list:
    """Record each (left, right, base, base model, left span, right span)
    that the per-version merge routes walk. The list keeps every span it
    holds alive, so a span's id names it for the rest of the test."""
    spans_by_base, walked = mvmodel.baseline._spans_by_base, []

    def recorded(*args):
        for step in spans_by_base(*args):
            walked.append(step)
            yield step

    monkeypatch.setattr(mvmodel.baseline, "_spans_by_base", recorded)
    return walked


@pytest.mark.parametrize("lcp", mvmodel.versioning.LCP_MODES)
def test_svm_merge_check_merges_each_triplet_once(capsys, monkeypatch, lcp):
    """The per-version merge-check builds one merged model per (pair, base)
    and checks every pattern on it, not one merge per pattern, and each
    merge detects its pair's conflicts once."""
    patterns = json.loads(Path(PROJECT_K).read_text())["patterns"]
    assert len(patterns) == 3
    versioning = parse_corpus(Path(PROJECT).read_bytes())
    triplets = merge_triplets(versioning, lcp)
    assert triplets
    merge_min = mvmodel.baseline.merge_min
    calls = []

    def counted(*args):
        calls.append(args)
        return merge_min(*args)

    monkeypatch.setattr(mvmodel.baseline, "merge_min", counted)
    merge_module = importlib.import_module("mvmodel.merge")
    detect = merge_module.insert_delete_conflicts
    detections = []

    def detected(*args):
        detections.append(args)
        return detect(*args)

    monkeypatch.setattr(merge_module, "insert_delete_conflicts", detected)
    code, _, err = run_cli(
        capsys, "merge-check", PROJECT, "--constraints", PROJECT_K, "--mode", "svm", "--lcp", lcp
    )
    assert code == 0 and err == ""
    assert len(calls) == len(triplets)
    assert len(detections) == len(triplets)


@pytest.mark.parametrize("lcp", mvmodel.versioning.LCP_MODES)
def test_svm_conflicts_detects_each_triplet_once(capsys, monkeypatch, lcp):
    """The per-version conflicts route calls the one conflict detection
    through baseline's globals once per (pair, base), so no triplet is
    skipped and no fast path runs outside the detector."""
    versioning = parse_corpus(Path(PROJECT).read_bytes())
    triplets = merge_triplets(versioning, lcp)
    assert triplets
    detect = mvmodel.baseline.insert_delete_conflicts
    detections = []

    def detected(*args):
        detections.append(args)
        return detect(*args)

    monkeypatch.setattr(mvmodel.baseline, "insert_delete_conflicts", detected)
    walked = walked_spans(monkeypatch)
    code, out, err = run_cli(capsys, "conflicts", PROJECT, "--mode", "svm", "--lcp", lcp)
    assert code == 0 and err == "" and out.endswith("total 2\n")
    triplet_of = {(id(base), id(m1), id(m2)): (i, j, c) for i, j, c, base, m1, m2 in walked}
    assert sorted(triplet_of[tuple(map(id, args))] for args in detections) == triplets


@pytest.mark.parametrize("lcp", mvmodel.versioning.LCP_MODES)
@pytest.mark.parametrize("shape", ["project", "chain"])
def test_svm_merge_routes_build_each_span_once(monkeypatch, tmp_path, shape, lcp):
    """The per-version merge routes walk their triplets base by base and
    build at most one span per distinct (base, version), and no other span:
    a merge builds no span of its result. A linear chain has no mergeable
    pair, so neither route builds a span there."""
    if shape == "project":
        versioning = parse_corpus(Path(PROJECT).read_bytes())
    else:
        params = GeneratorParams(seed=0, base_size=20, branch_factor=1, version_count=30)
        versioning = parse_corpus(write_corpus(generate_versioning(params)))
    patterns = parse_constraints(Path(PROJECT_K).read_bytes(), versioning.type_graph)
    triplets = merge_triplets(versioning, lcp)
    assert bool(triplets) == (shape == "project")
    spans = {(c, v) for i, j, c in triplets for v in (i, j)}
    between = mvmodel.versioning.ModelModification.between
    built: list = []

    def counted(source, target):
        built.append(between(source, target))
        return built[-1]

    monkeypatch.setattr(mvmodel.versioning.ModelModification, "between", counted)
    walked = walked_spans(monkeypatch)
    for verdict in (
        lambda: mvmodel.baseline.svm_conflicts(versioning, lcp),
        lambda: mvmodel.baseline.svm_merge_check(versioning, patterns, lcp),
    ):
        built.clear()
        walked.clear()
        verdict()
        # (base, version) of each span that the walk yields; any other
        # span built reads None
        key_of = {id(m): (c, v) for i, j, c, _, mi, mj in walked for v, m in ((i, mi), (j, mj))}
        keys = [key_of.get(id(span)) for span in built]
        per_span = Counter(key for key in keys if key in spans)
        assert all(n == 1 for n in per_span.values())
        assert [key for key in keys if key not in spans] == []


@pytest.mark.parametrize("command", ["check", "merge-check"])
def test_a_folded_verdict_validates_the_history_once(capsys, monkeypatch, command):
    validate = ModelVersioning.validate
    calls = []

    def counted(versioning):
        calls.append(versioning)
        return validate(versioning)

    monkeypatch.setattr(ModelVersioning, "validate", counted)
    code, _, err = run_cli(capsys, command, PROJECT, "--constraints", PROJECT_K, "--mode", "mvm")
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_valid_histories_are_validated_by_delta_alone(capsys, monkeypatch, tmp_path):
    """A valid history never checks a version in full; an invalid one
    still gets the full check's error, naming the first offender."""
    validate_model = mvmodel.core.validate_model
    calls = []

    def counted(model):
        calls.append(model)
        return validate_model(model)

    monkeypatch.setattr(mvmodel.core, "validate_model", counted)
    for path in (RUNNING, PROJECT):
        parse_corpus(Path(path).read_bytes())
    # The default mix, then deletion-only spans (wide-rare's bias) and
    # creation-only spans: each size-derived branch of the span deltas.
    for bias in (0.3, 0.95, 0.0):
        generate_versioning(
            GeneratorParams(seed=3, base_size=100, version_count=120, deletion_bias=bias)
        )
    assert calls == []
    doc = json.loads(Path(RUNNING).read_text())
    doc["versions"]["M_3"]["nodes"].remove("c2")
    broken = tmp_path / "broken.corpus.json"
    broken.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(broken))
    assert (code, out) == (1, "")
    assert err == (
        "error: version 'M_3' is invalid: edge 'sup_c1_c2' lacks an endpoint node in the graph\n"
    )
    assert calls
