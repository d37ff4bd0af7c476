"""Per-version analyses computed the straightforward way.

These walk the stored version models directly: check every version on
its own, check every merge pair on its own. Merge pairs are taken base
by base, so each span from a base to a version is built once. They are
the reference route; the folded route in ``analysis`` must produce
identical reports, and the oracle command diffs the two.
"""

from __future__ import annotations

from .core import Pattern, pcheck
from .merge import insert_delete_conflicts, merge_min
from .reports import MergeConflictReport, MergeViolationReport, VersionedViolation
from .versioning import ModelVersioning, check_lcp_mode


def svm_check(versioning: ModelVersioning, pattern: Pattern) -> list[VersionedViolation]:
    """Pattern embeddings of every version, checked one model at a time.
    The versions come in id order and ``pcheck`` sorts each one's
    matches, so the list is sorted as built."""
    out: list[VersionedViolation] = []
    for vid, model in versioning.versions.items():
        out += (VersionedViolation(vid, m) for m in pcheck(model, pattern))
    return out


def _merge_triplets(versioning: ModelVersioning, lcp_mode: str):
    """Yield (left, right, base) for every mergeable pair, straight from the
    merge-base table: every base (``all``) or the least id (``single``)."""
    check_lcp_mode(lcp_mode)
    table = versioning.latest_common_predecessor_table()
    drawn = {b: sorted(b) if lcp_mode == "all" else [min(b)] for b in set(table.values()) if b}
    for (i, j), bases in table.items():
        if bases:
            for c in drawn[bases]:
                yield i, j, c


def _spans_by_base(versioning: ModelVersioning, lcp_mode: str):
    """Yield (left, right, base, left span, right span) for every triplet of
    ``_merge_triplets``, base by base: each span from a base to a version is
    built once, and dropped with the base's pairs when the walk moves on."""
    pairs_of: dict[str, list[tuple[str, str]]] = {}
    for i, j, c in _merge_triplets(versioning, lcp_mode):
        pairs_of.setdefault(c, []).append((i, j))
    while pairs_of:
        c, pairs = pairs_of.popitem()
        span = {v: versioning.max_preserving_mod(c, v) for v in set().union(*pairs)}
        for i, j in pairs:
            yield i, j, c, span[i], span[j]


def svm_conflicts(versioning: ModelVersioning, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable version pair. Each
    triplet is visited once and its conflicts are distinct, so the list
    holds no duplicate."""
    out: list[MergeConflictReport] = []
    for i, j, c, m1, m2 in _spans_by_base(versioning, lcp_mode):
        for x in insert_delete_conflicts(m1, m2):
            out.append(MergeConflictReport(i, j, c, x.edge, x.node))
    return sorted(out)


def svm_merge_check(
    versioning: ModelVersioning, patterns: list[Pattern], lcp_mode: str = "all"
) -> list[list[MergeViolationReport]]:
    """Violations of the deletion-prioritising merge of every mergeable
    pair: one sorted list per pattern, in pattern order. Each (pair, base)
    is merged once and the merged model is checked against every pattern,
    whose matches are distinct, so no list holds a duplicate."""
    out: list[list[MergeViolationReport]] = [[] for _ in patterns]
    for i, j, c, m1, m2 in _spans_by_base(versioning, lcp_mode):
        merged = merge_min(m1, m2).merged
        for found, pattern in zip(out, patterns):
            found += (MergeViolationReport(i, j, c, m) for m in pcheck(merged, pattern))
    return [sorted(found) for found in out]
