"""Outside-in tracing of mvmodel's layers.

The tracer patches public functions and methods of the ``mvmodel``
package from outside; nothing under ``src/`` knows about it. Timed
functions record a span (id, parent id, name, start, end, self time);
hot methods are count-only, because timing each of their millions of
calls would distort the run it measures. Spans stay in memory until the
benchmark writes them out at the end.

A function imported with ``from .x import y`` is a separate reference in
every importing module, so each timed function is replaced wherever the
loaded ``mvmodel`` modules hold it. Modules are looked up with
``importlib.import_module`` because ``mvmodel.merge`` as an attribute of
the package is the re-exported ``merge`` function, not the module.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs timed as spans; the span name is "module.function".
TIMED_FUNCTIONS = (
    ("corpus", "parse_corpus"),
    ("corpus", "parse_constraints"),
    ("core", "validate_model"),
    ("core", "find_monomorphisms"),
    ("mvm", "comb"),
    ("merge", "merge_min"),
    ("merge", "insert_delete_conflicts"),
    ("analysis", "pcheck_mv"),
    ("analysis", "mcheck_mv"),
    ("analysis", "pcheck_m_mv"),
    ("baseline", "svm_check"),
    ("baseline", "svm_conflicts"),
    ("baseline", "svm_merge_check"),
    ("generate", "generate_versioning"),
    ("cli", "main"),
)

# Folded analyses that look up merge bases; lookups made inside them are
# the denominator of analysis.reports_per_lcp_lookup.
LCP_ANALYSES = frozenset({"analysis.mcheck_mv", "analysis.pcheck_m_mv"})


class Tracer:
    """Spans and counters for one traced stretch of work.

    ``mark()`` returns a position; ``summary(since)`` aggregates every
    span and counter recorded after that position, so callers can keep
    set-up work apart from the verdicts it precedes.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: Counter = Counter()
        # Hot counters are one-element lists: cheaper to bump than a Counter key.
        self.lcp_lookups = [0]
        self.presence_calls = [0]
        self.presence_seen: set[str] = set()
        self.lcp_sizes: list[tuple[int, int]] = []
        self._stack: list[list] = []  # [span id, accumulated child time]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            lookups_before = tracer.lcp_lookups[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((sid, parent, name, start, end, duration - frame[1]))
                if name in LCP_ANALYSES:
                    tracer.counts["analysis_lcp_lookups"] += (
                        tracer.lcp_lookups[0] - lookups_before
                    )
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_reports(self, result) -> None:
        self.counts["analysis_reports"] += len(result)

    def _count_matches(self, result) -> None:
        self.counts["matches"] += len(result)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced function and method; undone by ``uninstall``."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mod = {name: importlib.import_module(f"mvmodel.{name}") for name in
               ("core", "corpus", "versioning", "mvm", "merge", "analysis",
                "baseline", "generate", "cli")}
        after = {
            "core.find_monomorphisms": self._count_matches,
            "analysis.mcheck_mv": self._count_reports,
            "analysis.pcheck_m_mv": self._count_reports,
        }
        replace: dict[int, object] = {}
        for module_name, fn_name in TIMED_FUNCTIONS:
            orig = getattr(mod[module_name], fn_name, None)
            if orig is None:
                continue  # a layer that no longer exists reports zeros
            name = f"{module_name}.{fn_name}"
            replace[id(orig)] = (orig, self._timed(name, orig, after.get(name)))
        package_modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "mvmodel" or key.startswith("mvmodel."))
        ]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        self._patch_methods(mod)

    def _patch_methods(self, mod) -> None:
        tracer = self
        counts = self.counts
        lookups = self.lcp_lookups
        presence_calls = self.presence_calls

        ModelVersioning = mod["versioning"].ModelVersioning
        self._set(ModelVersioning, "validate",
                  self._timed("versioning.validate", ModelVersioning.validate))

        table = ModelVersioning.latest_common_predecessor_table
        timed_build = self._timed("versioning.lcp_table.build", table)

        def latest_common_predecessor_table(versioning):
            lookups[0] += 1
            try:
                cached = versioning._lcp_table
            except AttributeError:  # a later layout without the cache: time every call
                cached = None
            if cached is not None:
                return cached
            result = timed_build(versioning)
            tracer.lcp_sizes.append((len(result), sum(1 for b in result.values() if b)))
            return result

        self._set(ModelVersioning, "latest_common_predecessor_table",
                  latest_common_predecessor_table)

        Model = mod["core"].Model
        index = Model.index
        timed_index = self._timed("core.Model.index", index)

        def model_index(model):
            cached = getattr(model, "_index", None)
            if cached is not None:
                return cached
            counts["index_builds"] += 1
            return timed_index(model)

        self._set(Model, "index", model_index)

        MultiVersionModel = mod["mvm"].MultiVersionModel
        presence = MultiVersionModel.presence
        seen = self.presence_seen

        def presence_counted(mvm, mv_node):
            presence_calls[0] += 1
            seen.add(mv_node)
            return presence(mvm, mv_node)

        self._set(MultiVersionModel, "presence", presence_counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def _all_counts(self) -> Counter:
        counts = Counter(self.counts)
        counts["lcp_lookups"] = self.lcp_lookups[0]
        counts["presence_calls"] = self.presence_calls[0]
        return counts

    def mark(self) -> tuple[int, Counter, int]:
        return len(self.spans), self._all_counts(), len(self.lcp_sizes)

    def reset_presence(self) -> None:
        """Distinct presence elements are counted per verdict, not per run."""
        self.presence_seen.clear()

    def summary(self, since) -> dict:
        """Per-name totals of spans and counters recorded after ``since``."""
        n_spans, counts_before, n_sizes = since
        by_name: dict[str, list[float]] = {}
        for _, _, name, start, end, self_s in self.spans[n_spans:]:
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        counts = self._all_counts()
        counts.subtract(counts_before)
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in by_name.items()},
            "counts": {k: v for k, v in counts.items() if v},
            "presence_distinct": len(self.presence_seen),
            "lcp_tables": self.lcp_sizes[n_sizes:],
        }
