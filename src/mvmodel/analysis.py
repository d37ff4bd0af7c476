"""Analyses over the folded multi-version graph.

Each function answers a whole-history question in one pass instead of
once per version or per merge pair: which versions violate a constraint,
which merges will conflict, and which constraint violations survive any
merge. Results are normalised reports equal to what the per-version
baseline route computes.
"""

from __future__ import annotations

from .core import Match, Pattern, find_monomorphisms
from .mvm import MultiVersionModel
from .reports import MergeConflictReport, MergeViolationReport, VersionedViolation
from .versioning import bits


def pcheck_mv(mvm: MultiVersionModel, pattern: Pattern) -> list[VersionedViolation]:
    """Per-version violations, computed from one match pass over the fold.

    A pattern embedding exists in exactly the versions containing every
    element it touches, i.e. the AND of the image's presence masks. Sorted
    matches filed per version and read in id order come in report order.
    """
    dag = mvm.dag
    everywhere = (1 << len(dag.order)) - 1
    held: list[list[Match]] = [[] for _ in dag.order]
    for m in find_monomorphisms(pattern, mvm.union):
        shared = everywhere
        for _, image in m.nodes + m.edges:
            shared &= mvm.presence(image)
            if not shared:
                break
        for k in bits(shared):
            held[k].append(m)
    position, new = dag.position, tuple.__new__
    return [new(VersionedViolation, (v, m)) for v in dag.ids for m in held[position[v]]]


def mcheck_mv(mvm: MultiVersionModel, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable pair, from the fold.

    For an edge created after the root, a conflict pairs a version that
    has the edge with a version that dropped one of its endpoints, over a
    common base that still had the endpoint but not the edge. Both sides
    descend from that base, so only versions below such a base are
    visited, and only the mergeable partners among the dropping versions
    are paired up. A version below such a base that lacks the endpoint has
    dropped it: the base is a strict ancestor that holds it.
    """
    dag = mvm.dag
    draw = dag.drawn_bases(lcp_mode)
    partners, mergeable = dag.merge_partners, dag.mergeable
    order, new = dag.order, tuple.__new__  # new builds a report without a Python frame
    store = mvm.union.store
    out: list[MergeConflictReport] = []
    for edge_elem in mvm.union.edge_set:
        if mvm.cv[edge_elem] == 1:  # created only at the root
            continue
        edge_presence = mvm.presence(edge_elem)
        src, tgt = store.endpoint(edge_elem)
        for endpoint in sorted({src, tgt}):
            endpoint_presence = mvm.presence(endpoint)
            bases_ok = endpoint_presence & ~edge_presence
            if not bases_ok:
                continue
            below = dag.descendants(bases_ok) & mergeable
            dropped = below & ~endpoint_presence
            if not dropped:
                continue
            for i in bits(edge_presence & below):
                vi, js = order[i], dropped & partners[i]
                while js:  # bits(js) inlined: a generator per version costs more
                    low = js & -js
                    j, js = low.bit_length() - 1, js ^ low
                    hit = draw(i, j) & bases_ok
                    if not hit:
                        continue
                    vj = order[j]
                    left, right = (vi, vj) if vi < vj else (vj, vi)
                    while hit:  # bits(hit) inlined, likewise
                        low = hit & -hit
                        base = order[low.bit_length() - 1]
                        out.append(new(MergeConflictReport, (left, right, base, edge_elem, endpoint)))
                        hit ^= low
    out.sort()
    return out


def pcheck_m_mv(
    mvm: MultiVersionModel, pattern: Pattern, lcp_mode: str = "all"
) -> list[MergeViolationReport]:
    """Violations present in the deletion-prioritising merge of any pair.

    For each embedding, every matched element must come from one of the
    two merged versions, and no element the base already had may be
    deleted on either side. Every presence mask of the image holds one of
    the two merged versions, so the first candidate is drawn from one
    smallest mask; its counterpart must be one of its mergeable partners
    and supply every matched element the first candidate lacks, so
    counterparts are its partners narrowed by the presence masks missing
    the candidate. A pair found from both ends is taken from its lower
    position only, so no report is found twice. A base qualifies when it
    lies in no presence mask that misses either side of the pair.
    """
    dag = mvm.dag
    draw = dag.drawn_bases(lcp_mode)
    partners, mergeable = dag.merge_partners, dag.mergeable
    order, new = dag.order, tuple.__new__
    out: list[MergeViolationReport] = []
    for m in find_monomorphisms(pattern, mvm.union):
        presences = [mvm.presence(image) for _, image in m.nodes + m.edges]
        smallest = min(presences, key=int.bit_count, default=0)
        for a in bits(smallest & mergeable):
            bit_a, va = 1 << a, order[a]
            counterparts, lacked_a = partners[a] & ~(smallest & (bit_a - 1)), 0
            for p in presences:
                if not p & bit_a:
                    counterparts &= p
                    lacked_a |= p
            while counterparts:  # bits(counterparts) inlined, as in mcheck_mv
                bit_b = counterparts & -counterparts
                b, counterparts, lacked = bit_b.bit_length() - 1, counterparts ^ bit_b, lacked_a
                for p in presences:
                    if not p & bit_b:
                        lacked |= p
                hit = draw(a, b) & ~lacked
                if not hit:
                    continue
                vb = order[b]
                left, right = (va, vb) if va < vb else (vb, va)
                while hit:
                    low = hit & -hit
                    out.append(new(MergeViolationReport, (left, right, order[low.bit_length() - 1], m)))
                    hit ^= low
    out.sort()
    return out
