"""Benchmark harness comparing the folded route against the per-version route.

``time`` covers the analysis alone. Setup work that both routes consume
is done before the clock starts: corpus generation, folding, merge-base
table and, through an untimed warm-up run, adjacency indices. The
per-version merge-check route builds the merge of every pair
(``merge_min``) inside the clock, as ``merge-check --mode svm`` does.
Each repetition re-derives presence from scratch so the folded route
pays its full analysis cost every time. ``e2e_time`` covers a verdict
from nothing, split into ``PHASES``. Times are reported as the mean,
median and min over the repetitions, and the harness refuses to report
if the two routes ever disagree on their results.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from statistics import fmean, median

from .core import Pattern
from .corpus import load_json
from .errors import BenchMismatch, CorpusSyntaxError, ParamError
from .generate import GeneratorParams, generate_versioning
from .mvm import comb
from .reports import LCP_MODES, total, write_text
from .tasks import TASKS, Task

BENCH_FORMAT = "mv-bench/1"


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
    names = tuple(TASKS)  # tuple membership is equality, so no entry can raise
    if not isinstance(tasks, list) or not tasks or any(t not in names for t in tasks):
        raise ParamError(f"tasks must be a non-empty subset of {names}")
    constraints = obj.get("constraints")
    if constraints is not None and not isinstance(constraints, str):
        raise ParamError("constraints must be a path string")
    if constraints is None and any(TASKS[t].patterns for t in tasks):
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
    routes: dict[str, dict]
    """Per route: ``time`` and ``e2e_time`` as mean, median and min, and
    the mean of each of ``PHASES``."""

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
            "corpus": asdict(self.corpus),
            "tasks": [
                {
                    "task": t.task,
                    "mvm_time": round(t.mvm_time, 6),
                    "svm_time": round(t.svm_time, 6),
                    "speedup": round(t.speedup, 4),
                    "results": t.results,
                    **t.routes,
                }
                for t in self.tasks
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


PHASES = ("generate", "fold", "lcp_table", "analysis", "render")


def _end_to_end(params: BenchParams, task: Task, route: str, patterns: list[Pattern]):
    """A verdict from nothing, timed by phase: generate the history, fold it
    (mvm only), build the merge-base table (tasks that depend on the lcp
    mode), run the analysis and render its text with the CLI's writer.
    Returns the seconds of each of ``PHASES``, and the findings."""
    laps = [time.perf_counter()]

    def lap(result):
        laps.append(time.perf_counter())
        return result

    versioning = lap(generate_versioning(params.corpus))
    subject = lap(comb(versioning) if route == "mvm" else versioning)
    lap(task.lcp and versioning.latest_common_predecessor_table())
    groups = lap(getattr(task, route)(subject, patterns, params.lcp))
    lap(write_text(groups, str.encode))  # encoded as the CLI writes it, then dropped
    return [b - a for a, b in zip(laps, laps[1:])], groups


def _stats(samples: list[float]) -> dict[str, float]:
    return {stat: round(f(samples), 6) for stat, f in (("mean", fmean), ("median", median), ("min", min))}


def run_bench(params: BenchParams, repeat: int = 5, patterns: list[Pattern] | None = None) -> BenchReport:
    """Generate the corpus, run each task in both modes, compare, and time."""
    if repeat < 1:
        raise ParamError("repeat must be at least 1")
    if not patterns and any(TASKS[t].patterns for t in params.tasks):
        raise ParamError("check and merge-check tasks need constraint patterns")
    patterns = patterns or []

    versioning = generate_versioning(params.corpus)
    mvm = comb(versioning)
    versioning.latest_common_predecessor_table()

    results: list[BenchTaskResult] = []
    for name in params.tasks:
        task = TASKS[name]
        run_mvm = partial(task.mvm, mvm, patterns, params.lcp)
        run_svm = partial(task.svm, versioning, patterns, params.lcp)

        # Warm-up builds adjacency indices for both routes, outside timing.
        mvm.reset_presence_cache()
        warm_mvm = run_mvm()
        warm_svm = run_svm()
        if warm_mvm != warm_svm:
            raise BenchMismatch(f"task {name!r}: modes disagree on results")

        means, routes = {}, {}
        for route, run, before in (
            ("mvm", run_mvm, mvm.reset_presence_cache),
            ("svm", run_svm, lambda: None),
        ):
            times, laps = [], []
            for _ in range(repeat):
                before()
                start = time.perf_counter()
                out = run()
                times.append(time.perf_counter() - start)
                seconds, e2e_out = _end_to_end(params, task, route, patterns)
                if out != warm_mvm or e2e_out != warm_mvm:
                    raise BenchMismatch(f"task {name!r}: modes disagree on results")
                laps.append(seconds)
            means[route] = fmean(times)
            routes[route] = {
                "time": _stats(times),
                "e2e_time": _stats(list(map(sum, laps))),
                "phases": {p: round(fmean(s), 6) for p, s in zip(PHASES, zip(*laps))},
            }
        results.append(BenchTaskResult(name, means["mvm"], means["svm"], total(warm_mvm), routes))

    return BenchReport(params.corpus, repeat, tuple(results))
