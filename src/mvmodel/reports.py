"""Report types shared by the folded analyses and the per-version baseline.

All reports are normalised: version pairs are ordered by id, and report
lists are sorted, so the two analysis routes can be compared with plain
equality. Reports (and the ``Match`` inside them) are named tuples: they
compare and sort field by field in declaration order, so a plain
``sorted`` gives the report order, and they unpack like tuples.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

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


class VersionedViolation(NamedTuple):
    """A pattern embedding found in one version."""

    version: str
    match: Match


class MergeConflictReport(NamedTuple):
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


class MergeViolationReport(NamedTuple):
    """A pattern embedding that survives the deletion-prioritising merge."""

    left: str
    right: str
    base: str
    match: Match
