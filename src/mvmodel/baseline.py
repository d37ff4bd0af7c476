"""Per-version analyses computed the straightforward way.

These walk the version models, which the history builds from its deltas:
check every version on its own, check every merge pair on its own. Merge
pairs are taken base by base, so each span from a base to a version is
built once. They are the reference route; the folded route in
``analysis`` must produce identical reports, and the oracle command diffs
the two. Every model is matched from scratch, but the two check routes
hold one ``Match`` object per distinct embedding, as the folded ones do: a
match equal to one already reported is replaced by that object before it
goes into a row.
"""

from __future__ import annotations

from .core import Pattern, pcheck
from .merge import insert_delete_conflicts, merge_min
from .reports import MergeConflictReport, MergeViolationReport, VersionedViolation
from .versioning import ModelModification, ModelVersioning, check_lcp_mode


def svm_check(versioning: ModelVersioning, patterns: list[Pattern]) -> list[list[VersionedViolation]]:
    """Pattern embeddings of every version: one list per pattern, in pattern
    order, sorted as built. Each version is visited once, in id order, for
    every pattern; the history builds each version's model as the walk
    reaches it, and the model and its matcher index go with the next one.
    Each distinct match is held once, however many versions hold it."""
    new = tuple.__new__
    keep = {}.setdefault  # one object per distinct Match
    out: list[list[VersionedViolation]] = [[] for _ in patterns]
    for vid, model in versioning.versions.items():
        for found, pattern in zip(out, patterns):
            found += [new(VersionedViolation, (vid, keep(m, m))) for m in pcheck(model, pattern)]
    return out


def _spans_by_base(versioning: ModelVersioning, lcp_mode: str):
    """Yield (left, right, base, base model, left span, right span) for
    every mergeable pair and each of its merge bases that ``lcp_mode``
    draws: every base (``all``) or the least id (``single``). One pass over
    the merge-base table files each pair under its drawn bases; the walk
    then goes base by base, so each span from a base to a version is built
    once, and dropped with the base's pairs when the walk moves on. Each
    version's model is built once per call."""
    check_lcp_mode(lcp_mode)
    single = lcp_mode == "single"
    pairs_of: dict[str, list[tuple[str, str]]] = {}
    for pair, bases in versioning.latest_common_predecessor_table().items():
        if bases:
            for c in (min(bases),) if single else bases:
                pairs_of.setdefault(c, []).append(pair)
    models = dict(versioning.versions.items()) if pairs_of else {}
    while pairs_of:
        c, pairs = pairs_of.popitem()
        base = models[c]
        span = {v: ModelModification.between(base, models[v]) for v in set().union(*pairs)}
        for i, j in pairs:
            yield i, j, c, base, span[i], span[j]


def svm_conflicts(versioning: ModelVersioning, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable version pair. Each
    triplet is visited once and its conflicts are distinct, so the list
    holds no duplicate."""
    new = tuple.__new__  # builds a report without a Python frame
    out: list[MergeConflictReport] = []
    for i, j, c, base, m1, m2 in _spans_by_base(versioning, lcp_mode):
        out += [new(MergeConflictReport, (i, j, c, e, v))
                for e, v in insert_delete_conflicts(base, m1, m2)]
    out.sort()
    return out


def svm_merge_check(
    versioning: ModelVersioning, patterns: list[Pattern], lcp_mode: str = "all"
) -> list[list[MergeViolationReport]]:
    """Violations of the deletion-prioritising merge of every mergeable
    pair: one sorted list per pattern, in pattern order. Each (pair, base)
    is merged once and the merged model is checked against every pattern,
    whose matches are distinct, so no list holds a duplicate. Each distinct
    match is held once, however many merged models hold it."""
    new = tuple.__new__
    keep = {}.setdefault  # one object per distinct Match
    out: list[list[MergeViolationReport]] = [[] for _ in patterns]
    for i, j, c, base, m1, m2 in _spans_by_base(versioning, lcp_mode):
        merged = merge_min(base, m1, m2)
        for found, pattern in zip(out, patterns):
            found += [new(MergeViolationReport, (i, j, c, keep(m, m)))
                      for m in pcheck(merged, pattern)]
    for found in out:
        found.sort()
    return out
