"""Benchmark harness comparing the folded route against the per-version route.

Each repetition generates one history per route and times a verdict from
nothing on it (``e2e_time``, split into ``PHASES``). It then times the
analysis alone (``time``) on the same history, whose merge-base table and
indices that verdict built; the per-version check lets go of each version's
index, so it builds them again. The folded route runs on a fresh fold,
which builds its presence masks anew, so it pays its full analysis cost.
The per-version merge-check route builds the merge of every (pair, base)
once (``merge_min``) inside both clocks, as ``merge-check --mode svm``
does. Times are the mean, median and min over the repetitions, and the
harness refuses to report if any run disagrees with the task's first
findings.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from statistics import fmean, median

from .core import Pattern
from .corpus import canonical_json, check_format, load_json
from .errors import BenchMismatch, CorpusSyntaxError, ParamError
from .generate import GeneratorParams, generate_versioning, generator_params
from .mvm import comb
from .reports import total, write_text
from .tasks import TASKS, Task
from .versioning import LCP_MODES

BENCH_FORMAT = "mv-bench/1"


@dataclass(frozen=True)
class BenchParams:
    corpus: GeneratorParams
    tasks: tuple[str, ...]
    constraints: str | None
    lcp: str


def parse_bench_params(data: bytes | str) -> BenchParams:
    obj = load_json(data, "bench-params")
    check_format(obj, BENCH_FORMAT, "bench-params")
    known = {"format", *(f.name for f in fields(BenchParams))}
    for key in obj:
        if key not in known:
            raise ParamError(f"unknown bench parameter {key!r}")
    corpus_obj = obj.get("corpus")
    if not isinstance(corpus_obj, dict):
        raise CorpusSyntaxError("missing corpus parameters", "bench-params")
    corpus = generator_params(corpus_obj)
    tasks = obj.get("tasks")
    names = tuple(TASKS)  # tuple membership is equality, so no entry can raise
    if (not isinstance(tasks, list) or not tasks or any(t not in names for t in tasks)
            or len(set(tasks)) < len(tasks)):  # hashable: every entry is a name
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
        return canonical_json(obj).decode("utf-8")


PHASES = ("generate", "fold", "lcp_table", "analysis", "render")


def _end_to_end(params: BenchParams, task: Task, route: str, patterns: list[Pattern]):
    """A verdict from nothing, timed by phase: generate the history, fold it
    (mvm only), build the merge-base table (svm only, for tasks that depend
    on the lcp mode), run the analysis and render its text with the CLI's
    writer. Returns the seconds of each of ``PHASES``, the history and the
    findings."""
    laps = [time.perf_counter()]

    def lap(result):
        laps.append(time.perf_counter())
        return result

    versioning = lap(generate_versioning(params.corpus))
    subject = lap(comb(versioning) if route == "mvm" else versioning)
    lap(task.lcp and route == "svm" and versioning.latest_common_predecessor_table())
    groups = lap(getattr(task, route)(subject, patterns, params.lcp))
    lap(write_text(groups, str.encode))  # encoded as the CLI writes it, then dropped
    return [b - a for a, b in zip(laps, laps[1:])], versioning, groups


def _stats(samples: list[float]) -> dict[str, float]:
    return {stat: round(f(samples), 6) for stat, f in (("mean", fmean), ("median", median), ("min", min))}


def run_bench(params: BenchParams, repeat: int = 5, patterns: list[Pattern] | None = None) -> BenchReport:
    """Run each task on both routes, one history per repetition; compare and time."""
    if repeat < 1:
        raise ParamError("repeat must be at least 1")
    if not patterns and any(TASKS[t].patterns for t in params.tasks):
        raise ParamError("check and merge-check tasks need constraint patterns")
    patterns = patterns or []

    results: list[BenchTaskResult] = []
    for name in params.tasks:
        task = TASKS[name]
        first = None
        means, routes = {}, {}
        for route in ("mvm", "svm"):
            times, laps = [], []
            for _ in range(repeat):
                seconds, versioning, cold = _end_to_end(params, task, route, patterns)
                subject = comb(versioning) if route == "mvm" else versioning
                start = time.perf_counter()
                warm = getattr(task, route)(subject, patterns, params.lcp)
                times.append(time.perf_counter() - start)
                first = cold if first is None else first
                if cold != first or warm != first:
                    raise BenchMismatch(f"task {name!r}: modes disagree on results")
                laps.append(seconds)
            means[route] = fmean(times)
            routes[route] = {
                "time": _stats(times),
                "e2e_time": _stats(list(map(sum, laps))),
                "phases": {p: round(fmean(s), 6) for p, s in zip(PHASES, zip(*laps))},
            }
        results.append(BenchTaskResult(name, means["mvm"], means["svm"], total(first), routes))

    return BenchReport(params.corpus, repeat, tuple(results))
