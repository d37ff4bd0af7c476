"""Analyses over the folded multi-version graph.

Each function answers a whole-history question in one pass instead of
once per version or per merge pair: which versions violate a constraint,
which merges will conflict, and which constraint violations survive any
merge. Results are normalised reports equal to what the per-version
baseline route computes.
"""

from __future__ import annotations

from .core import Pattern, find_monomorphisms
from .mvm import MultiVersionModel
from .reports import (
    MergeConflictReport,
    MergeViolationReport,
    VersionedViolation,
    drawn_bases,
    sorted_reports,
)


def pcheck_mv(mvm: MultiVersionModel, pattern: Pattern) -> list[VersionedViolation]:
    """Per-version violations, computed from one match pass over the fold.

    A pattern embedding exists in exactly the versions containing every
    element it touches, i.e. the intersection of the image's presence
    sets.
    """
    out: list[VersionedViolation] = []
    for m in find_monomorphisms(pattern, mvm.union):
        shared: frozenset[str] | None = None
        for _, image in m.nodes + m.edges:
            p = mvm.presence(image)
            shared = p if shared is None else shared & p
            if not shared:
                break
        if not shared:
            continue
        for vid in sorted(shared):
            out.append(VersionedViolation(vid, m))
    return sorted_reports(out)


def mcheck_mv(mvm: MultiVersionModel, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable pair, from the fold.

    For an edge created after the root, a conflict pairs a version that
    has the edge with a version that dropped one of its endpoints, over a
    common base that still had the endpoint but not the edge. Only the
    mergeable partners among the dropping versions are paired up.
    """
    versioning = mvm.versioning
    table = versioning.latest_common_predecessor_table()
    drawn = drawn_bases(table, lcp_mode)
    partners = versioning.merge_partners()
    root = versioning.root
    store = mvm.union.store
    reach_cache: dict[str, frozenset[str]] = {}
    out: set[MergeConflictReport] = set()
    for edge_elem in mvm.edge_elements:
        if not (mvm.cv.get(edge_elem, frozenset()) - {root}):
            continue
        edge_presence = mvm.presence(edge_elem)
        if not edge_presence:
            continue
        src, tgt = store.endpoint(edge_elem)
        for endpoint in sorted({src, tgt}):
            endpoint_presence = mvm.presence(endpoint)
            if edge_presence == endpoint_presence:
                continue
            dropped = reach_cache.get(endpoint)
            if dropped is None:
                dropped = mvm.reach(mvm.dv.get(endpoint, frozenset()), mvm.cv[endpoint])
                reach_cache[endpoint] = dropped
            if not dropped:
                continue
            for i in edge_presence:
                for j in dropped & partners[i]:
                    left, right = (i, j) if i < j else (j, i)
                    for c in drawn[table[left, right]]:
                        if c in endpoint_presence and c not in edge_presence:
                            out.add(MergeConflictReport(left, right, c, edge_elem, endpoint))
    return sorted_reports(out)


def pcheck_m_mv(
    mvm: MultiVersionModel, pattern: Pattern, lcp_mode: str = "all"
) -> list[MergeViolationReport]:
    """Violations present in the deletion-prioritising merge of any pair.

    For each embedding, every matched element must come from one of the
    two merged versions, and no element the base already had may be
    deleted on either side. The first candidate version is drawn from a
    smallest presence set of the image (one of the two merged versions
    always lies in every presence set); its counterpart must be one of
    its mergeable partners and supply every matched element the first
    candidate lacks, so counterparts are its partners narrowed by the
    presence sets missing the candidate.
    """
    versioning = mvm.versioning
    table = versioning.latest_common_predecessor_table()
    drawn = drawn_bases(table, lcp_mode)
    partners = versioning.merge_partners()
    out: set[MergeViolationReport] = set()
    for m in find_monomorphisms(pattern, mvm.union):
        presences = [mvm.presence(image) for _, image in m.nodes + m.edges]
        if not presences:
            continue
        min_size = min(len(p) for p in presences)
        if min_size == 0:
            continue
        first_pool = set().union(*(p for p in presences if len(p) == min_size))
        for a in first_pool:
            counterparts = partners[a]
            if not counterparts:
                continue
            for p in presences:
                if a not in p:
                    counterparts = counterparts & p
            for b in counterparts:
                left, right = (a, b) if a < b else (b, a)
                for c in drawn[table[left, right]]:
                    if all((c not in p) or (a in p and b in p) for p in presences):
                        out.add(MergeViolationReport(left, right, c, m))
    return sorted_reports(out)
