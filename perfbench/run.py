#!/usr/bin/env python3
"""Time-to-verdict benchmark for mvmodel's folded (mvm) and per-version (svm) engines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-dense.check --seed 0 --seconds 10 --trace 0

Each workload is one generated history shape and one CLI command. The
run generates the corpus, writes it under the checkout, then times cold
in-process calls of ``mvmodel.cli.main`` on both engines, round robin,
and checks every output byte for byte against the other engine's. The
last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics from an outside-in trace with
``--trace 1``. README.md in this directory explains the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import Tracer

PROCESS_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONSTRAINTS = ROOT / "data" / "oo_constraints.json"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

# History shapes, as mvmodel GeneratorParams. The generator seed is part
# of the shape: different generator seeds give different amounts of work
# (up to 2x on branchy-merge), which no run-to-run bound could absorb.
# The benchmark's --seed instead renames every node, edge and version
# with a seeded permutation, so each seed is a different input file of
# the same shape; seed 0 keeps the generator's names.
SHAPES = {
    "wide-rare": dict(seed=3, base_size=1000, branch_factor=2, version_count=120,
                      edits_per_modification=2, deletion_bias=0.95),
    "chain-dense": dict(seed=0, base_size=50, branch_factor=1, version_count=120,
                        edits_per_modification=8, deletion_bias=0.1),
    "branchy-merge": dict(seed=1, base_size=60, branch_factor=3, version_count=60,
                          edits_per_modification=4, deletion_bias=0.4),
    "long-history": dict(seed=2, base_size=40, branch_factor=3, version_count=300,
                         edits_per_modification=3, deletion_bias=0.4),
}

# Workload name -> (shape, CLI command). Commands left out of a shape
# are listed with the reason in README.md.
WORKLOADS = {
    "wide-rare.check": ("wide-rare", "check"),
    "chain-dense.check": ("chain-dense", "check"),
    "chain-dense.conflicts": ("chain-dense", "conflicts"),
    "chain-dense.merge-check": ("chain-dense", "merge-check"),
    "branchy-merge.merge-check": ("branchy-merge", "merge-check"),
    "long-history.conflicts": ("long-history", "conflicts"),
}

# Drift record at this benchmark's defining commit. Counts and totals
# are invariant under renaming, so they are compared at every seed; the
# corpus digest only at seed 0.
EXPECTED = {
    "wide-rare": {"sha256": "908bbbfb0108fc49150bd3af476f09461c9b9370df025a207eb8ce6a6881e045",
                  "elements": 2070, "version_pairs": 7140, "mergeable_pairs": 6076,
                  "totals": {"check": 4, "conflicts": 421}},
    "chain-dense": {"sha256": "d6c75b5cca56198b2cab29cbf98b5b2f4ccd89fe19cda4d0e29e75677a26771c",
                    "elements": 827, "version_pairs": 7140, "mergeable_pairs": 0,
                    "totals": {"check": 36362, "conflicts": 0, "merge-check": 0}},
    "branchy-merge": {"sha256": "e77c4e4bb9cb08908f17e8a738bd0b030feeafe2ab97158b7ecce16a79cc2518",
                      "elements": 250, "version_pairs": 1770, "mergeable_pairs": 1417,
                      "totals": {"merge-check": 13354}},
    "long-history": {"sha256": "2d26b8db846f87389a20abafe4f66c284535e6a8bb5aeb5f6c6f771fffc01ea7",
                     "elements": 550, "version_pairs": 44850, "mergeable_pairs": 41155,
                     "totals": {"conflicts": 68133}},
}

ENGINES = ("mvm", "svm")
SETUP_REPEATS = 3       # at least; small shapes repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 0.5
PROBE_ITERATIONS = 1000
PROBE_INTERVAL_S = 0.01
BRACKET_PROBES = 5
PROBE_REFERENCE_S = 90e-6  # the probe loop's time on an otherwise idle 2-vCPU host
MIN_ROUNDS = 2          # timed rounds per untraced run
MAX_REPEATS = 5
MIN_TRACE_ROUNDS = 1    # traced rounds, and as many untraced ones, per traced run
DEADLINE_S = 150.0      # no round starts that would end after this, from process start


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def load_mvmodel():
    """Import mvmodel from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "mvmodel" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no mvmodel sources at {package.parent}")
    if not CONSTRAINTS.is_file():
        raise SetupError(f"missing constraints file {CONSTRAINTS}")
    sys.path.insert(0, str(ROOT / "src"))
    import mvmodel
    if Path(mvmodel.__file__).resolve() != package.resolve():
        raise SetupError(f"imported mvmodel from {mvmodel.__file__}, not {package}")
    from mvmodel import cli, core, corpus, generate, versioning
    return cli, core, corpus, generate, versioning


def relabel(versioning, seed: int, core, versioning_mod):
    """The same history with node, edge and version ids permuted by ``seed``."""
    if seed == 0:
        return versioning
    rng = random.Random(seed)
    store = versioning.store

    def permutation(ids):
        shuffled = list(ids)
        rng.shuffle(shuffled)
        return dict(zip(ids, shuffled))

    node_map = permutation(sorted(store.node_ids()))
    edge_map = permutation(sorted(store.edge_ids()))
    version_map = permutation(list(versioning.versions))
    new_store = core.ElementStore()
    for n in sorted(node_map):
        new_store.add_node(node_map[n], store.elem_type(n))
    for e in sorted(edge_map):
        src, tgt = store.endpoint(e)
        new_store.add_edge(edge_map[e], store.elem_type(e), node_map[src], node_map[tgt])
    tg = versioning.type_graph
    versions = {
        version_map[vid]: core.Model(new_store, tg, [node_map[n] for n in m.node_set],
                                     [edge_map[e] for e in m.edge_set])
        for vid, m in versioning.versions.items()
    }
    mods = [(version_map[a], version_map[b]) for a, b in versioning.modifications]
    return versioning_mod.ModelVersioning(versions, mods, version_map[versioning.root])


def probe_loop() -> int:
    """Fixed integer arithmetic on one small int: no allocation, no memory traffic."""
    x = 1
    for _ in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFF
    return x


class Clock:
    """Times work and scales it by the host's speed while the work ran.

    The host's speed drifts by up to 2x within seconds, and CPU time
    drifts with it: other tenants share its cores. A short fixed
    probe loop is timed a few times before and after each measurement and
    every ``PROBE_INTERVAL_S`` during it, from a SIGALRM handler in this
    same thread. The probes' own time is subtracted; the rest is divided
    by the probes' mean time and multiplied by ``PROBE_REFERENCE_S``. The
    result reads as seconds on a host where the probe takes that long,
    which the host that set it does when it is otherwise idle.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def _probe(self, *_signal_args) -> None:
        start = perf_counter()
        probe_loop()
        self.probes.append(perf_counter() - start)

    def measure(self, fn):
        """Return (raw seconds, scaled seconds, result of ``fn()``)."""
        gc.collect()
        self.probes = []
        for _ in range(BRACKET_PROBES):
            self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self.probes[BRACKET_PROBES:])
        for _ in range(BRACKET_PROBES):
            self._probe()
        speed = statistics.fmean(self.probes) / PROBE_REFERENCE_S
        return raw, raw / speed, result


def prepare_corpus(mods, params: dict, seed: int, path: Path, clock: Clock):
    """Generate and write the corpus several times; return the set-up samples.

    Each sample covers ``generate_versioning`` plus ``write_corpus`` plus
    the disk write, which is what ``mvmodel generate -o`` does. Renaming
    is benchmark code: it runs once, untimed, and every repetition writes
    the renamed first history after checking that generation repeated it.
    Returns (samples, corpus sha256, history, corpus size, deterministic).
    """
    _, core, corpus, generate, versioning_mod = mods
    gen_params = generate.GeneratorParams(**params)
    samples = []
    first = renamed = None
    deterministic = True
    spent = 0.0
    while len(samples) < SETUP_REPEATS or (spent < SETUP_MIN_S and len(samples) < 5 * SETUP_REPEATS):
        raw_gen, scaled_gen, history = clock.measure(
            lambda: generate.generate_versioning(gen_params))
        if first is None:
            first, renamed = history, relabel(history, seed, core, versioning_mod)
        else:
            deterministic = deterministic and history == first

        def write():
            data = corpus.write_corpus(renamed)
            path.write_bytes(data)
            return data

        raw_write, scaled_write, data = clock.measure(write)
        samples.append((raw_gen + raw_write, scaled_gen + scaled_write))
        spent += raw_gen + raw_write
    return samples, hashlib.sha256(data).hexdigest(), first, len(data), deterministic


def call_cli(cli, argv: list[str]):
    """Return (exit code, error text); a raising verdict is counted, not fatal."""
    try:
        return cli.main(argv), None
    except (Exception, SystemExit) as err:
        return None, f"{type(err).__name__}: {err}"


class Run:
    """One benchmark run: verdicts, their outcomes and their timings."""

    def __init__(self, mods, command: str, corpus_path: Path, work: Path, clock: Clock):
        self.cli = mods[0]
        self.command = command
        self.corpus_path = corpus_path
        self.work = work
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: bytes | None = None

    def argv(self, engine: str, out: Path) -> list[str]:
        argv = [self.command, str(self.corpus_path), "--mode", engine, "-o", str(out)]
        if self.command != "conflicts":
            argv += ["--constraints", str(CONSTRAINTS)]
        if self.command != "check":
            argv += ["--lcp", "all"]
        return argv

    def verdict(self, engine: str):
        """One cold CLI call; returns (raw s, scaled s, output bytes or None, error or None)."""
        out = self.work / f"{self.command}.{engine}.out"
        argv = self.argv(engine, out)
        raw, scaled, (code, error) = self.clock.measure(lambda: call_cli(self.cli, argv))
        if error is None and code != 0:
            error = f"exit code {code}"
        data = None
        if error is None:
            try:
                data = out.read_bytes()
                out.unlink()
            except OSError as err:
                error = f"no output: {err}"
        return raw, scaled, data, error

    def round(self, order: list[str], on_verdict=None) -> list[tuple[str, float, float]]:
        """Run the engines in ``order``, judge every output, return (engine, raw, scaled).

        A verdict fails if it raised, exited non-zero, or wrote output that
        differs from the other engine's first output in this round or from
        the first untraced output of the run.
        """
        results = []
        for engine in order:
            if on_verdict is not None:
                on_verdict(engine, "start")
            results.append((engine, *self.verdict(engine)))
            if on_verdict is not None:
                on_verdict(engine, "end")
        first = {}
        for engine, _, _, data, _ in results:
            first.setdefault(engine, data)
        if self.reference is None and first["mvm"] is not None and first["mvm"] == first["svm"]:
            self.reference = first["mvm"]
        for engine, _, _, data, error in results:
            self.attempted += 1
            if error is None and data != first["svm" if engine == "mvm" else "mvm"]:
                error = "output differs from the other engine's"
            elif error is None and data != self.reference:
                error = "output differs from the first untraced output"
            if error is not None:
                self.failed += 1
                self.errors.append(f"{self.command} --mode {engine}: {error}")
        return [(engine, raw, scaled) for engine, raw, scaled, _, _ in results]


def repeats(warm_up: list[tuple[str, float, float]]) -> dict[str, int]:
    """Verdicts per engine and round, so a fast engine gets enough samples.

    An engine more than ``3 * k`` times faster than the other runs ``k``
    times per round, up to ``MAX_REPEATS``.
    """
    times = {engine: scaled for engine, _, scaled in warm_up}
    slowest = max(times.values())
    return {engine: max(1, min(MAX_REPEATS, int(slowest / max(t, 1e-9) / 3)))
            for engine, t in times.items()}


def total_of(output: bytes | None) -> int | None:
    if not output:
        return None
    last = output.decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    return int(last.split()[1]) if last.startswith("total ") else None


def drift_record(shape: str, command: str, seed: int, history, digest: str,
                 corpus_bytes: int, reference: bytes | None, expected: dict) -> dict:
    table = history.latest_common_predecessor_table()
    record = {
        "shape": shape,
        "seed": seed,
        "corpus_sha256": digest,
        "corpus_bytes": corpus_bytes,
        "elements": len(history.store),
        "versions": len(history.versions),
        "version_pairs": len(table),
        "mergeable_pairs": sum(1 for bases in table.values() if bases),
        "totals": {command: total_of(reference)},
    }
    changed = [
        key for key in ("elements", "version_pairs", "mergeable_pairs")
        if key in expected and record[key] != expected[key]
    ]
    if expected.get("totals", {}).get(command, record["totals"][command]) != record["totals"][command]:
        changed.append(f"totals.{command}")
    if seed == 0 and expected.get("sha256", record["corpus_sha256"]) != record["corpus_sha256"]:
        changed.append("corpus_sha256")
    record["drift"] = changed
    return record


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (one verdict per engine)."""
    spans, counts = summary["spans"], summary["counts"]

    def span(name: str, stat: str) -> float:
        return spans.get(name, {}).get(stat, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pairs, mergeable = max(summary["lcp_tables"], default=(0, 0))
    return {
        "corpus.parse_corpus.self_s": span("corpus.parse_corpus", "self_s"),
        "versioning.validate.calls": span("versioning.validate", "calls"),
        "core.validate_model.s": span("core.validate_model", "s"),
        "versioning.lcp_table.build_s": span("versioning.lcp_table.build", "s"),
        "versioning.lcp_table.lookups": counts.get("lcp_lookups", 0),
        "versioning.lcp_table.pairs": pairs,
        "versioning.lcp_table.mergeable_ratio": ratio(mergeable, pairs),
        "mvm.comb.self_s": span("mvm.comb", "self_s"),
        "mvm.presence.calls": counts.get("presence_calls", 0),
        "mvm.presence.hit_ratio": ratio(summary["presence_distinct"],
                                        counts.get("presence_calls", 0)),
        "core.Model.index.s": span("core.Model.index", "s"),
        "core.Model.index.builds": counts.get("index_builds", 0),
        "core.find_monomorphisms.self_s": span("core.find_monomorphisms", "self_s"),
        "core.find_monomorphisms.calls": span("core.find_monomorphisms", "calls"),
        "core.find_monomorphisms.matches": counts.get("matches", 0),
        "merge.merge_min.self_s": span("merge.merge_min", "self_s"),
        "merge.merge_min.calls": span("merge.merge_min", "calls"),
        "merge.insert_delete_conflicts.s": span("merge.insert_delete_conflicts", "s"),
        "merge.insert_delete_conflicts.calls": span("merge.insert_delete_conflicts", "calls"),
        "analysis.pcheck_m_mv.self_s": span("analysis.pcheck_m_mv", "self_s"),
        "analysis.reports_per_lcp_lookup": ratio(counts.get("analysis_reports", 0),
                                                 counts.get("analysis_lcp_lookups", 0)),
        "analysis.mcheck_mv.self_s": span("analysis.mcheck_mv", "self_s"),
        "analysis.pcheck_mv.self_s": span("analysis.pcheck_mv", "self_s"),
        "baseline.svm_check.self_s": span("baseline.svm_check", "self_s"),
        "baseline.svm_conflicts.self_s": span("baseline.svm_conflicts", "self_s"),
        "baseline.svm_merge_check.self_s": span("baseline.svm_merge_check", "self_s"),
        "cli.main.self_s": span("cli.main", "self_s"),
    }


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith(("_s", ".s")):
        return "s"
    if layer_metric.endswith(("_ratio", "_per_lcp_lookup")):
        return "ratio"
    return "count"


def _out_of_time(rounds: int, minimum: int, started: float, seconds: float) -> bool:
    now = perf_counter()
    per_round = (now - started) / rounds
    if now - PROCESS_START + per_round > DEADLINE_S:
        return True
    return rounds >= minimum and now - started + per_round > seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 shape_params: dict | None = None, mods=None) -> dict:
    """Run one workload; return the result object and the printable report.

    ``shape_params`` overrides the generator parameters of the workload's
    shape; the self-tests use it to run a tiny history.
    """
    shape, command = WORKLOADS[workload]
    params = shape_params if shape_params is not None else SHAPES[shape]
    mods = mods or load_mvmodel()
    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR))
    try:
        return _run_in(work, mods, workload, shape, command, params, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work, mods, workload, shape, command, params, seed, seconds, trace):
    corpus_path = work / "corpus.json"
    clock = Clock()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup, digest, history, corpus_bytes, deterministic = prepare_corpus(
            mods, params, seed, corpus_path, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Only the set-up's own generate spans are kept; its validate calls
    # and the rest belong to no verdict.
    generate_s = [end - start for _, _, name, start, end, _ in (tracer.spans if tracer else ())
                  if name == "generate.generate_versioning"]
    if tracer is not None:
        tracer.spans.clear()

    run = Run(mods, command, corpus_path, work, clock)
    warm_up_at = perf_counter()
    warm_up = run.round(list(ENGINES))  # per-process warm-up: judged, not timed
    # Traced runs keep one verdict per engine and round, so traced and
    # untraced rounds do the same work and their difference is overhead.
    reps = repeats(warm_up) if tracer is None else dict.fromkeys(ENGINES, 1)
    samples = {engine: [] for engine in ENGINES}
    plain_rounds, traced_rounds, layer_rounds, traced_verdicts = [], [], [], []
    started = perf_counter()
    rounds = 0
    while True:
        engines = ENGINES if rounds % 2 == 0 else ENGINES[::-1]
        order = [engine for engine in engines for _ in range(reps[engine])]
        if tracer is not None and rounds % 2 == 1:
            times = _traced_round(run, tracer, order, rounds, layer_rounds, traced_verdicts)
            traced_rounds.append(sum(scaled for _, _, scaled in times))
        else:
            times = run.round(order)
            plain_rounds.append(sum(scaled for _, _, scaled in times))
            for engine, raw, scaled in times:
                samples[engine].append((raw, scaled))
        rounds += 1
        minimum = 2 * MIN_TRACE_ROUNDS if tracer is not None else MIN_ROUNDS
        if _out_of_time(rounds, minimum, started, seconds):
            break

    measured_at = perf_counter()
    expected = EXPECTED[shape] if params is SHAPES[shape] else {}
    drift = drift_record(shape, command, seed, history, digest, corpus_bytes, run.reference,
                         expected)
    drift["generator"] = params
    report = {
        "workload": workload, "seed": seed, "rounds": rounds, "errors": run.errors[:20],
        "generation_deterministic": deterministic,
        "wall_s": {"start_to_warm_up": warm_up_at - PROCESS_START,
                   "warm_up": started - warm_up_at, "rounds": measured_at - started,
                   "total": perf_counter() - PROCESS_START},
        "drift": drift,
        "raw_medians_s": {
            "setup_s": statistics.median(raw for raw, _ in setup),
            **{f"verdict_{e}_s": statistics.median(raw for raw, _ in samples[e])
               for e in ENGINES if samples[e]},
        },
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s", len(setup)),
            **{f"verdict_{e}_s": (statistics.median(s for _, s in samples[e]), "s",
                                  len(samples[e])) for e in ENGINES},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
        }
    else:
        metrics = {}
        for name in layer_rounds[0]:
            values = [r[name] for r in layer_rounds]
            metrics[name] = (statistics.median(values), unit_of(name), len(values))
        metrics["generate.generate_versioning.s"] = (
            statistics.median(generate_s), "s", len(generate_s))
        plain, traced = statistics.median(plain_rounds), statistics.median(traced_rounds)
        metrics["trace.overhead_s"] = (traced - plain, "s", len(traced_rounds))
        metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio", len(traced_rounds))
        report["traced_verdicts"] = traced_verdicts
        report["spans"] = tracer.spans
        report["layer_rounds"] = layer_rounds
    return {
        "result": {
            "correct": run.failed == 0 and deterministic,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        },
        "sample_counts": {k: n for k, (_, _, n) in metrics.items()},
        "report": report,
    }


def _traced_round(run, tracer, order, round_no, layer_rounds, traced_verdicts):
    """One round with the tracer installed; records its per-layer metrics."""
    mark = tracer.mark()
    presence_distinct = 0

    def on_verdict(engine, phase):
        nonlocal presence_distinct
        if phase == "start":
            tracer.reset_presence()
            traced_verdicts.append({"round": round_no, "engine": engine,
                                    "first_span": len(tracer.spans)})
        else:
            presence_distinct += len(tracer.presence_seen)
            traced_verdicts[-1]["end_span"] = len(tracer.spans)

    tracer.install()
    try:
        times = run.round(order, on_verdict)
    finally:
        tracer.uninstall()
    summary = tracer.summary(mark)
    summary["presence_distinct"] = presence_distinct
    layer_rounds.append(layer_metrics(summary))
    return times


def write_report(outcome: dict, trace: bool) -> Path:
    report = outcome["report"]
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if trace else "run"
    path = OUT_DIR / f"{report['workload']}.seed{report['seed']}.{kind}.json"
    path.write_text(json.dumps({**report, "result": outcome["result"]}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="renames ids; 0 keeps the generator's names")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        mods = load_mvmodel()
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), mods=mods)
    path = write_report(outcome, bool(args.trace))
    report = outcome["report"]
    drift = report["drift"]
    print(f"workload {report['workload']} seed {report['seed']}: {report['rounds']} rounds"
          f" after one warm-up round; report in {path.relative_to(ROOT)}")
    print(f"corpus sha256 {drift['corpus_sha256']} bytes {drift['corpus_bytes']}"
          f" elements {drift['elements']} version_pairs {drift['version_pairs']}"
          f" mergeable_pairs {drift['mergeable_pairs']} totals {drift['totals']}")
    print("drift: " + (", ".join(drift["drift"]) if drift["drift"] else "none"))
    for error in report["errors"]:
        print(f"failed: {error}")
    for name, entry in outcome["result"]["metrics"].items():
        n = outcome["sample_counts"][name]
        raw = report["raw_medians_s"].get(name)
        unscaled = "" if raw is None or args.trace else f"; unscaled {raw:.6g} s"
        print(f"{name} {entry['value']:.6g} {entry['unit']} (median of {n}{unscaled})")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
