"""Benchmark harness comparing the folded route against the per-version route.

Setup work that both routes consume is done before the clock starts:
corpus generation, folding, merge-base table, adjacency indices, and the
merge results the per-version route would check patterns against. Each
repetition re-derives presence from scratch so the folded route pays its
full analysis cost every time. Reported times are arithmetic means over
the repetitions, and the harness refuses to report if the two routes
ever disagree on their results.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

from .analysis import mcheck_mv, pcheck_m_mv, pcheck_mv
from .corpus import load_json
from .baseline import svm_check, svm_conflicts, _merge_triplets
from .core import Pattern, pcheck
from .errors import BenchMismatch, CorpusSyntaxError, ParamError
from .generate import GeneratorParams, generate_versioning
from .merge import merge_min
from .mvm import comb
from .reports import LCP_MODES, MergeViolationReport, sorted_reports

BENCH_FORMAT = "mv-bench/1"
TASKS = ("check", "conflicts", "merge-check")


@dataclass(frozen=True)
class BenchParams:
    corpus: GeneratorParams
    tasks: tuple[str, ...]
    constraints: str | None
    lcp: str


def parse_bench_params(data: bytes | str) -> BenchParams:
    obj = load_json(data, "bench-params")
    if not isinstance(obj, dict) or obj.get("format") != BENCH_FORMAT:
        raise CorpusSyntaxError(f"expected format {BENCH_FORMAT!r}", "bench-params")
    corpus_obj = obj.get("corpus")
    if not isinstance(corpus_obj, dict):
        raise CorpusSyntaxError("missing corpus parameters", "bench-params")
    try:
        corpus = GeneratorParams(**corpus_obj)
    except TypeError as err:
        raise ParamError(str(err)) from err
    corpus.validate()
    tasks = obj.get("tasks")
    if not isinstance(tasks, list) or not tasks or any(t not in TASKS for t in tasks):
        raise ParamError(f"tasks must be a non-empty subset of {TASKS}")
    constraints = obj.get("constraints")
    if constraints is not None and not isinstance(constraints, str):
        raise ParamError("constraints must be a path string")
    needs_patterns = any(t in ("check", "merge-check") for t in tasks)
    if needs_patterns and constraints is None:
        raise ParamError("check and merge-check tasks need a constraints file")
    lcp = obj.get("lcp", "all")
    if lcp not in LCP_MODES:
        raise ParamError(f"lcp must be one of {LCP_MODES}, got {lcp!r}")
    return BenchParams(corpus, tuple(tasks), constraints, lcp)


@dataclass(frozen=True)
class BenchTaskResult:
    task: str
    mvm_time: float
    svm_time: float
    results: int

    @property
    def speedup(self) -> float:
        return self.svm_time / max(self.mvm_time, 1e-9)


@dataclass(frozen=True)
class BenchReport:
    corpus: GeneratorParams
    repeat: int
    tasks: tuple[BenchTaskResult, ...]

    def to_text(self) -> str:
        lines = [f"{'task':<12} {'mvm_s':>10} {'svm_s':>10} {'speedup':>9} {'results':>8}"]
        for t in self.tasks:
            lines.append(
                f"{t.task:<12} {t.mvm_time:>10.4f} {t.svm_time:>10.4f}"
                f" {t.speedup:>9.2f} {t.results:>8}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "format": "mv-bench-report/1",
            "repeat": self.repeat,
            "corpus": {
                "seed": self.corpus.seed,
                "base_size": self.corpus.base_size,
                "branch_factor": self.corpus.branch_factor,
                "version_count": self.corpus.version_count,
                "edits_per_modification": self.corpus.edits_per_modification,
                "deletion_bias": self.corpus.deletion_bias,
            },
            "tasks": [
                {
                    "task": t.task,
                    "mvm_time": round(t.mvm_time, 6),
                    "svm_time": round(t.svm_time, 6),
                    "speedup": round(t.speedup, 4),
                    "results": t.results,
                }
                for t in self.tasks
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _timed(fn: Callable[[], object], repeats: int, before: Callable[[], None]) -> tuple[float, object]:
    total = 0.0
    result: object = None
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        result = fn()
        total += time.perf_counter() - start
    return total / repeats, result


def run_bench(params: BenchParams, repeat: int = 5, patterns: list[Pattern] | None = None) -> BenchReport:
    """Generate the corpus, run each task in both modes, compare, and time."""
    if repeat < 1:
        raise ParamError("repeat must be at least 1")
    needs_patterns = any(t in ("check", "merge-check") for t in params.tasks)
    if needs_patterns and not patterns:
        raise ParamError("check and merge-check tasks need constraint patterns")
    patterns = patterns or []

    versioning = generate_versioning(params.corpus)
    mvm = comb(versioning)
    versioning.latest_common_predecessor_table()

    results: list[BenchTaskResult] = []
    for task in params.tasks:
        if task == "check":

            def run_mvm():
                return [v for p in patterns for v in pcheck_mv(mvm, p)]

            def run_svm():
                return [v for p in patterns for v in svm_check(versioning, p)]

        elif task == "conflicts":

            def run_mvm():
                return mcheck_mv(mvm, params.lcp)

            def run_svm():
                return svm_conflicts(versioning, params.lcp)

        else:
            # Merge results are inputs to the per-version route, not part
            # of the work being compared; build them up front.
            triplets = list(_merge_triplets(versioning, params.lcp))
            merged = {
                (i, j, c): merge_min(
                    versioning.max_preserving_mod(c, i), versioning.max_preserving_mod(c, j)
                ).merged
                for i, j, c in triplets
            }

            def run_mvm():
                return [r for p in patterns for r in pcheck_m_mv(mvm, p, params.lcp)]

            def run_svm():
                out = []
                for p in patterns:
                    hits = set()
                    for (i, j, c), model in merged.items():
                        for m in pcheck(model, p):
                            hits.add(MergeViolationReport(i, j, c, m))
                    out.extend(sorted_reports(hits))
                return out

        # Warm-up builds adjacency indices for both routes, outside timing.
        mvm.reset_presence_cache()
        warm_mvm = run_mvm()
        warm_svm = run_svm()
        if warm_mvm != warm_svm:
            raise BenchMismatch(f"task {task!r}: modes disagree on results")

        mvm_time, mvm_out = _timed(run_mvm, repeat, mvm.reset_presence_cache)
        svm_time, svm_out = _timed(run_svm, repeat, lambda: None)
        if mvm_out != svm_out:
            raise BenchMismatch(f"task {task!r}: modes disagree on results")
        results.append(BenchTaskResult(task, mvm_time, svm_time, len(mvm_out)))  # type: ignore[arg-type]

    return BenchReport(params.corpus, repeat, tuple(results))
