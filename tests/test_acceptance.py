"""Shipping gates: eight end-to-end checks with hard runtime budgets.

Every test drives a full pipeline (generation, folding, analysis, bench,
CLI) against an independent baseline, enforces its wall-clock budget
where one is defined, and prints one PASS/FAIL line that the terminal
summary echoes after the run. Goldens for the shipped corpora were
frozen from the brute-force oracle in oracles.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from conftest import ACCEPTANCE_LINES, DATA_DIR

from mvmodel import (
    GeneratorParams,
    comb,
    enumerate_strategies,
    generate_versioning,
    insert_delete_conflicts,
    mcheck_mv,
    merge,
    merge_min,
    oo_constraint_patterns,
    parse_bench_params,
    parse_constraints,
    parse_corpus,
    pcheck,
    pcheck_m_mv,
    pcheck_mv,
    run_bench,
    svm_check,
    svm_conflicts,
    svm_merge_check,
)
from mvmodel.cli import main
from oracles import merge_triplets


def _record(num: int, name: str, status: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {status}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@contextlib.contextmanager
def criterion(num: int, name: str, budget: float | None):
    """Time a criterion body and record its one-line outcome."""
    box = {"detail": ""}
    start = time.perf_counter()
    try:
        yield box
    except BaseException as err:
        elapsed = time.perf_counter() - start
        _record(num, name, f"FAIL ({elapsed:.2f}s, {type(err).__name__})")
        raise
    elapsed = time.perf_counter() - start
    detail = f", {box['detail']}" if box["detail"] else ""
    if budget is not None and elapsed >= budget:
        _record(num, name, f"FAIL (budget {budget:.0f}s exceeded: {elapsed:.2f}s{detail})")
        pytest.fail(f"criterion {num} took {elapsed:.2f}s, budget {budget:.0f}s")
    _record(num, name, f"PASS ({elapsed:.2f}s{detail})")


# 200 seeded histories shared by the equality gates; built on first use
# so the first criterion that needs them pays for construction.
_SUITE: list = []


def suite():
    if not _SUITE:
        for seed in range(200):
            params = GeneratorParams(
                seed=seed,
                base_size=4 + seed % 17,
                branch_factor=1 + seed % 3,
                version_count=1 + seed % 8,
                edits_per_modification=seed % 5,
                deletion_bias=(seed % 4) * 0.25,
            )
            versioning = generate_versioning(params)
            _SUITE.append((versioning, comb(versioning)))
    return _SUITE


_SHIPPED: list = []


def shipped():
    if not _SHIPPED:
        versioning = parse_corpus((DATA_DIR / "oo_project.corpus.json").read_bytes())
        patterns = parse_constraints(
            (DATA_DIR / "oo_constraints.json").read_bytes(), versioning.type_graph
        )
        _SHIPPED.append((versioning, comb(versioning), patterns))
    return _SHIPPED[0]


def test_criterion_1_running_example_goldens():
    with criterion(1, "running-example-goldens", 1.0) as box:
        versioning = parse_corpus((DATA_DIR / "running.corpus.json").read_bytes())
        (pattern,) = parse_constraints(
            (DATA_DIR / "running_constraints.json").read_bytes(), versioning.type_graph
        )
        mvm = comb(versioning)

        conflicts = mcheck_mv(mvm)
        assert [(c.left, c.right, c.base, c.edge, c.node) for c in conflicts] == [
            ("M_2", "M_3", "M_1", "sup_c4_c2", "c4")
        ]
        assert conflicts == svm_conflicts(versioning)

        merge_reports = pcheck_m_mv(mvm, pattern)
        assert len(merge_reports) == 2
        assert {(r.left, r.right, r.base) for r in merge_reports} == {("M_2", "M_3", "M_1")}
        for report in merge_reports:
            assert dict(report.match.nodes)["cls"] == "c1"
        assert [merge_reports] == svm_merge_check(versioning, [pattern])

        assert pcheck_mv(mvm, pattern) == []
        box["detail"] = "1 conflict, 2 merge violations rooted at c1, 0 version violations"


def test_criterion_2_fold_and_recover():
    with criterion(2, "fold-and-recover-equality", 60.0) as box:
        pair_count = 0
        for versioning, mvm in suite():
            for vid in versioning.versions:
                assert mvm.proj(vid) == versioning.version(vid)
            ids = sorted(versioning.versions)
            for i in ids:
                for j in ids:
                    if i == j:
                        continue
                    assert mvm.proj_delta(i, j) == versioning.max_preserving_mod(i, j)
                    pair_count += 1
        box["detail"] = f"200 histories, {pair_count} ordered version pairs"


def test_criterion_3_versioned_check_oracle():
    with criterion(3, "versioned-check-oracle", 60.0) as box:
        patterns = oo_constraint_patterns()
        suite_reports = 0
        for versioning, mvm in suite():
            found = [pcheck_mv(mvm, pattern) for pattern in patterns]
            assert found == svm_check(versioning, patterns)
            suite_reports += sum(map(len, found))
        project, project_mvm, project_patterns = shipped()
        found = [pcheck_mv(project_mvm, pattern) for pattern in project_patterns]
        assert found == svm_check(project, project_patterns)
        shipped_reports = sum(map(len, found))
        assert shipped_reports == 9
        box["detail"] = f"{suite_reports} suite violations, {shipped_reports} shipped violations"


def test_criterion_4_versioned_conflicts_oracle():
    with criterion(4, "versioned-conflicts-oracle", 120.0) as box:
        totals = {"all": 0, "single": 0}
        for versioning, mvm in suite():
            for mode in ("all", "single"):
                found = mcheck_mv(mvm, mode)
                assert found == svm_conflicts(versioning, mode)
                totals[mode] += len(found)
        project, project_mvm, _ = shipped()
        for mode in ("all", "single"):
            assert mcheck_mv(project_mvm, mode) == svm_conflicts(project, mode)
        box["detail"] = f"{totals['all']} conflicts (all bases), {totals['single']} (single base)"


def test_criterion_5_merge_check_oracle_and_strategy_floor():
    with criterion(5, "merge-check-oracle", 180.0) as box:
        patterns = oo_constraint_patterns()
        report_count = 0
        floor_instances = 0
        for versioning, mvm in suite():
            triplets = merge_triplets(versioning, "all")
            for mode in ("all", "single"):
                found = [pcheck_m_mv(mvm, pattern, mode) for pattern in patterns]
                assert found == svm_merge_check(versioning, patterns, mode)
                if mode == "all":
                    report_count += sum(map(len, found))
            for pattern in patterns:
                # the all-bases reports per triplet must equal what every
                # resolution strategy leaves behind, on triplets small
                # enough to enumerate
                by_triplet: dict[tuple[str, str, str], set] = {}
                for report in pcheck_m_mv(mvm, pattern):
                    key = (report.left, report.right, report.base)
                    by_triplet.setdefault(key, set()).add(report.match)
                for i, j, c in triplets:
                    m1 = versioning.max_preserving_mod(c, i)
                    m2 = versioning.max_preserving_mod(c, j)
                    if len(insert_delete_conflicts(m1, m2)) > 16:
                        continue
                    unavoidable = None
                    for strategy in enumerate_strategies(m1, m2):
                        left = set(pcheck(merge(m1, m2, strategy), pattern))
                        unavoidable = left if unavoidable is None else unavoidable & left
                    assert by_triplet.get((i, j, c), set()) == (unavoidable or set())
                    floor_instances += 1
        project, project_mvm, project_patterns = shipped()
        for mode in ("all", "single"):
            found = [pcheck_m_mv(project_mvm, pattern, mode) for pattern in project_patterns]
            assert found == svm_merge_check(project, project_patterns, mode)
        box["detail"] = f"{report_count} merge violations, {floor_instances} enumerated triplets"


def test_criterion_6_minimal_merge_is_violation_floor():
    with criterion(6, "minimal-merge-floor", None) as box:
        patterns = oo_constraint_patterns()
        qualifying = 0
        nonempty_floors = 0
        seed = 1000
        while qualifying < 100 and seed < 1400:
            params = GeneratorParams(
                seed=seed,
                base_size=12,
                branch_factor=2,
                version_count=6,
                edits_per_modification=6,
                deletion_bias=0.6,
            )
            versioning = generate_versioning(params)
            for i, j, c in merge_triplets(versioning, "all"):
                m1 = versioning.max_preserving_mod(c, i)
                m2 = versioning.max_preserving_mod(c, j)
                if not 1 <= len(insert_delete_conflicts(m1, m2)) <= 8:
                    continue
                qualifying += 1
                floor_model = merge_min(m1, m2)
                strategies = enumerate_strategies(m1, m2)
                for pattern in patterns:
                    floor = set(pcheck(floor_model, pattern))
                    unavoidable = None
                    for strategy in strategies:
                        left = set(pcheck(merge(m1, m2, strategy), pattern))
                        unavoidable = left if unavoidable is None else unavoidable & left
                    assert floor == unavoidable
                    nonempty_floors += bool(floor)
            seed += 1
        assert qualifying >= 100
        box["detail"] = (
            f"{qualifying} conflicting pairs from {seed - 1000} histories,"
            f" {nonempty_floors} non-empty floors"
        )


def test_criterion_7_bench_scaling():
    with criterion(7, "bench-scaling", 600.0) as box:
        patterns = oo_constraint_patterns()

        favoring = parse_bench_params((DATA_DIR / "bench_check.params.json").read_bytes())
        assert favoring.corpus.version_count >= 100
        assert favoring.corpus.base_size >= 1000
        assert favoring.corpus.edits_per_modification <= 4
        report = run_bench(favoring, repeat=5, patterns=patterns)
        (check_task,) = report.tasks
        assert check_task.task == "check"
        assert check_task.results <= 5
        assert check_task.speedup >= 1.0

        adverse = parse_bench_params((DATA_DIR / "bench_conflicts.params.json").read_bytes())
        adverse_report = run_bench(adverse, repeat=5)
        (conflict_task,) = adverse_report.tasks
        assert conflict_task.task == "conflicts"
        assert conflict_task.mvm_time > conflict_task.svm_time
        slowdown = conflict_task.mvm_time / max(conflict_task.svm_time, 1e-9)
        box["detail"] = (
            f"check speedup {check_task.speedup:.1f}x (gate 1.0, expected 5),"
            f" adverse conflicts {slowdown:.1f}x slower"
        )


def _run_command(argv: list[str]) -> bytes:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue().encode()


def _masked_bench(raw: bytes) -> bytes:
    doc = json.loads(raw)
    for task in doc["tasks"]:
        task["mvm_time"] = 0.0
        task["svm_time"] = 0.0
        task.pop("speedup", None)
        for route in ("mvm", "svm"):
            for seconds in task[route].values():
                seconds.update(dict.fromkeys(seconds, 0.0))
    return json.dumps(doc, sort_keys=True).encode()


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "cli-determinism", None) as box:
        running = str(DATA_DIR / "running.corpus.json")
        running_k = str(DATA_DIR / "running_constraints.json")
        project = str(DATA_DIR / "oo_project.corpus.json")
        project_k = str(DATA_DIR / "oo_constraints.json")
        commands = [
            ["validate", running],
            ["validate", project],
            ["project", running, "--version", "M_3"],
            ["project", project, "--version", "v4"],
            ["check", project, "--constraints", project_k],
            ["check", project, "--constraints", project_k, "--json"],
            ["check", project, "--constraints", project_k, "--mode", "svm"],
            ["conflicts", project],
            ["conflicts", project, "--lcp", "single"],
            ["conflicts", project, "--mode", "svm", "--json"],
            ["merge-check", running, "--constraints", running_k],
            ["merge-check", project, "--constraints", project_k, "--json"],
            ["merge-check", project, "--constraints", project_k, "--lcp", "single"],
            ["oracle", running, "--constraints", running_k],
            ["oracle", project, "--constraints", project_k],
            ["export-mvm", running],
            ["export-mvm", project],
        ]
        for argv in commands:
            assert _run_command(list(argv)) == _run_command(list(argv)), argv

        params = tmp_path / "gen.params.json"
        params.write_bytes(
            json.dumps(
                {
                    "format": "mv-generator/1",
                    "seed": 11,
                    "base_size": 9,
                    "branch_factor": 2,
                    "version_count": 5,
                    "edits_per_modification": 3,
                    "deletion_bias": 0.5,
                }
            ).encode()
        )
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        _run_command(["generate", "--params", str(params), "-o", str(first)])
        _run_command(["generate", "--params", str(params), "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()

        # bench emits wall-clock timings, which no two runs can share
        # byte for byte; everything else in its output must agree
        bench_params = str(DATA_DIR / "bench_small_all.params.json")
        bench_argv = ["bench", "--params", bench_params, "--repeat", "1", "--json"]
        one = _masked_bench(_run_command(list(bench_argv)))
        two = _masked_bench(_run_command(list(bench_argv)))
        assert one == two
        box["detail"] = f"{len(commands) + 1} commands byte-identical, bench timings masked"
