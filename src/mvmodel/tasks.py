"""The whole-history analyses, each with its folded and per-version route.

One table serves the CLI's report commands, the oracle and the bench.
Both routes of a task return ``(pattern name, report)`` pairs in report
order; conflicts involve no pattern, so their name is ``None``. The
routes call the analyses through this module's globals, not through
function objects held in the table, so that a patch of a module
attribute (as ``perfbench/tracer.py`` makes) reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .analysis import mcheck_mv, pcheck_m_mv, pcheck_mv
from .baseline import svm_check, svm_conflicts, svm_merge_check
from .core import Pattern
from .mvm import MultiVersionModel
from .versioning import ModelVersioning

Found = list[tuple[str | None, object]]


@dataclass(frozen=True)
class Task:
    """``patterns``: the task checks constraint patterns; ``lcp``: its
    result depends on the lcp mode."""

    patterns: bool
    lcp: bool
    mvm: Callable[[MultiVersionModel, list[Pattern], str | None], Found]
    svm: Callable[[ModelVersioning, list[Pattern], str | None], Found]


TASKS: dict[str, Task] = {
    "check": Task(
        patterns=True,
        lcp=False,
        mvm=lambda mvm, patterns, lcp: [(p.name, v) for p in patterns for v in pcheck_mv(mvm, p)],
        svm=lambda versioning, patterns, lcp: [
            (p.name, v) for p in patterns for v in svm_check(versioning, p)
        ],
    ),
    "conflicts": Task(
        patterns=False,
        lcp=True,
        mvm=lambda mvm, patterns, lcp: [(None, c) for c in mcheck_mv(mvm, lcp)],
        svm=lambda versioning, patterns, lcp: [(None, c) for c in svm_conflicts(versioning, lcp)],
    ),
    "merge-check": Task(
        patterns=True,
        lcp=True,
        mvm=lambda mvm, patterns, lcp: [
            (p.name, r) for p in patterns for r in pcheck_m_mv(mvm, p, lcp)
        ],
        svm=lambda versioning, patterns, lcp: [
            (p.name, r) for p in patterns for r in svm_merge_check(versioning, p, lcp)
        ],
    ),
}
