"""The whole-history analyses, each with its folded and per-version route.

One table serves the CLI's report commands, the oracle and the bench.
Both routes of a task return one ``(pattern name, reports)`` group per
pattern, in pattern order, where ``reports`` is the analysis's own sorted
list; conflicts involve no pattern, so they come as one group named
``None``. The routes call the analyses through this module's globals,
not through function objects held in the table, so that a patch of a
module attribute (as ``perfbench/tracer.py`` makes) reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .analysis import mcheck_mv, pcheck_m_mv, pcheck_mv
from .baseline import svm_check, svm_conflicts, svm_merge_check
from .core import Pattern
from .mvm import MultiVersionModel
from .reports import Groups
from .versioning import ModelVersioning


@dataclass(frozen=True)
class Task:
    """``patterns``: the task checks constraint patterns; ``lcp``: its
    result depends on the lcp mode."""

    patterns: bool
    lcp: bool
    mvm: Callable[[MultiVersionModel, list[Pattern], str | None], Groups]
    svm: Callable[[ModelVersioning, list[Pattern], str | None], Groups]


TASKS: dict[str, Task] = {
    "check": Task(
        patterns=True,
        lcp=False,
        mvm=lambda mvm, patterns, lcp: [(p.name, pcheck_mv(mvm, p)) for p in patterns],
        svm=lambda versioning, patterns, lcp: [
            (p.name, reports) for p, reports in zip(patterns, svm_check(versioning, patterns))
        ],
    ),
    "conflicts": Task(
        patterns=False,
        lcp=True,
        mvm=lambda mvm, patterns, lcp: [(None, mcheck_mv(mvm, lcp))],
        svm=lambda versioning, patterns, lcp: [(None, svm_conflicts(versioning, lcp))],
    ),
    "merge-check": Task(
        patterns=True,
        lcp=True,
        mvm=lambda mvm, patterns, lcp: [(p.name, pcheck_m_mv(mvm, p, lcp)) for p in patterns],
        svm=lambda versioning, patterns, lcp: [
            (p.name, reports)
            for p, reports in zip(patterns, svm_merge_check(versioning, patterns, lcp))
        ],
    ),
}
