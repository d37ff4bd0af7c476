"""Report types shared by the folded analyses and the per-version baseline.

All reports are normalised: version pairs are ordered by id, and report
lists are sorted, so the two analysis routes can be compared with plain
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, TypeVar

from .core import Match

LCP_MODES = ("all", "single")


def check_lcp_mode(mode: str) -> None:
    if mode not in LCP_MODES:
        raise ValueError(f"lcp mode must be one of {LCP_MODES}, got {mode!r}")


def drawn_bases(
    table: Mapping[tuple[str, str], frozenset[str]], mode: str
) -> dict[frozenset[str], tuple[str, ...]]:
    """The merge bases analysed per lcp mode, for each distinct merge-base
    set in a table: all of them in id order (``all``) or the least id
    (``single``)."""
    check_lcp_mode(mode)
    return {
        bases: (min(bases),) if mode == "single" else tuple(sorted(bases))
        for bases in set(table.values())
        if bases
    }


@dataclass(frozen=True, order=True)
class VersionedViolation:
    """A pattern embedding found in one version."""

    version: str
    match: Match


@dataclass(frozen=True, order=True)
class MergeConflictReport:
    """An insert-delete conflict for the merge of two versions over a base.

    ``left`` < ``right`` by id order; ``base`` is a latest common
    predecessor of the pair; ``edge`` is the created edge whose endpoint
    ``node`` the other side deleted.
    """

    left: str
    right: str
    base: str
    edge: str
    node: str


@dataclass(frozen=True, order=True)
class MergeViolationReport:
    """A pattern embedding that survives the deletion-prioritising merge."""

    left: str
    right: str
    base: str
    match: Match


# Each report type's dataclass order as attribute paths in declaration
# order. A Match compares by its own fields, so it is spelled out too:
# sorting by these keys gives the same order without any __lt__ call.
_ORDER_KEYS = {
    VersionedViolation: attrgetter("version", "match.nodes", "match.edges"),
    MergeConflictReport: attrgetter("left", "right", "base", "edge", "node"),
    MergeViolationReport: attrgetter("left", "right", "base", "match.nodes", "match.edges"),
}

R = TypeVar("R", VersionedViolation, MergeConflictReport, MergeViolationReport)


def sorted_reports(reports: Iterable[R]) -> list[R]:
    """Reports of one type as a list in their dataclass order."""
    out = list(reports)
    if out:
        out.sort(key=_ORDER_KEYS[type(out[0])])
    return out
