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
    check_lcp_mode,
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
    out.sort()
    return out


def _bases_for(mvm: MultiVersionModel, i: str, j: str, lcp_mode: str):
    pair = (i, j) if i < j else (j, i)
    bases = mvm.versioning.latest_common_predecessor_table().get(pair, frozenset())
    if not bases:
        return ()
    if lcp_mode == "single":
        return (min(bases),)
    return tuple(sorted(bases))


def mcheck_mv(mvm: MultiVersionModel, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable pair, from the fold.

    For an edge created after the root, a conflict pairs a version that
    has the edge with a version that dropped one of its endpoints, over a
    common base that still had the endpoint but not the edge.
    """
    check_lcp_mode(lcp_mode)
    root = mvm.versioning.root
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
            for i in sorted(edge_presence):
                for j in sorted(dropped):
                    if i == j:
                        continue
                    for c in _bases_for(mvm, i, j, lcp_mode):
                        if c in endpoint_presence and c not in edge_presence:
                            left, right = (i, j) if i < j else (j, i)
                            out.add(MergeConflictReport(left, right, c, edge_elem, endpoint))
    return sorted(out)


def pcheck_m_mv(
    mvm: MultiVersionModel, pattern: Pattern, lcp_mode: str = "all"
) -> list[MergeViolationReport]:
    """Violations present in the deletion-prioritising merge of any pair.

    For each embedding, every matched element must come from one of the
    two merged versions, and no element the base already had may be
    deleted on either side. The first candidate version is drawn from a
    smallest presence set of the image (one of the two merged versions
    always lies in every presence set); its counterpart must supply every
    matched element the first candidate lacks, so counterparts are the
    intersection of the presence sets missing the candidate, or any other
    version when the candidate covers the whole image.
    """
    check_lcp_mode(lcp_mode)
    all_versions = mvm.version_ids
    out: set[MergeViolationReport] = set()
    for m in find_monomorphisms(pattern, mvm.union):
        presences = [mvm.presence(image) for _, image in m.nodes + m.edges]
        if not presences:
            continue
        min_size = min(len(p) for p in presences)
        if min_size == 0:
            continue
        first_pool = sorted(set().union(*(p for p in presences if len(p) == min_size)))
        for a in first_pool:
            missing = [p for p in presences if a not in p]
            if missing:
                partners = sorted(frozenset.intersection(*missing))
            else:
                partners = list(all_versions)
            for b in partners:
                if b == a:
                    continue
                for c in _bases_for(mvm, a, b, lcp_mode):
                    if all((c not in p) or (a in p and b in p) for p in presences):
                        left, right = (a, b) if a < b else (b, a)
                        out.add(MergeViolationReport(left, right, c, m))
    return sorted(out)
