"""Self-tests of the benchmark harness; run with ``python3 -m pytest -q perfbench``.

They use a tiny history so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

TINY = dict(seed=5, base_size=12, branch_factor=3, version_count=8,
            edits_per_modification=3, deletion_bias=0.4)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}
ONE_PER_COMMAND = ("wide-rare.check", "long-history.conflicts", "branchy-merge.merge-check")


@pytest.fixture(scope="module")
def mods():
    return run.load_mvmodel()


def tiny_run(mods, workload, trace=False, seed=0):
    return run.run_workload(workload, seed, 0.01, trace, shape_params=TINY, mods=mods)


@pytest.mark.parametrize("workload", ONE_PER_COMMAND)
def test_tiny_workload_runs_without_errors(mods, workload):
    result = tiny_run(mods, workload)["result"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * (1 + run.MIN_ROUNDS)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ONE_PER_COMMAND)
def test_traced_outputs_equal_untraced_outputs(mods, workload):
    cli_main = mods[0].main
    outcome = tiny_run(mods, workload, trace=True)
    result = outcome["result"]
    # Every traced verdict is compared with the run's first untraced output.
    assert result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == PER_LAYER
    assert outcome["report"]["traced_verdicts"]
    assert mods[0].main is cli_main, "the tracer must restore what it patched"


def test_corrupted_output_counts_as_error(mods, monkeypatch):
    cli = mods[0]
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if "svm" in argv:
            out = Path(argv[argv.index("-o") + 1])
            out.write_bytes(out.read_bytes() + b"corrupt\n")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = tiny_run(mods, "wide-rare.check")["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_renaming_keeps_every_total(mods):
    plain = tiny_run(mods, "branchy-merge.merge-check", seed=0)["report"]["drift"]
    renamed = tiny_run(mods, "branchy-merge.merge-check", seed=7)["report"]["drift"]
    assert renamed["corpus_sha256"] != plain["corpus_sha256"]
    for key in ("elements", "version_pairs", "mergeable_pairs", "totals"):
        assert renamed[key] == plain[key]


def test_run_without_sources_fails_without_a_result():
    run.TMP_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.TMP_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "chain-dense.check",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
