"""Analyses over the folded multi-version graph.

Each function answers a whole-history question in one pass instead of
once per version or per merge pair: which versions violate a constraint,
which merges will conflict, and which constraint violations survive any
merge. Results are normalised reports equal to what the per-version
baseline route computes.

The pairwise analyses build their rows one left version at a time, in id
order, and sort no whole list: only a left version's rows, on positions,
as a version set's bit k is the k-th id.
"""

from __future__ import annotations

from .core import Match, Pattern, find_monomorphisms
from .mvm import MultiVersionModel
from .reports import MergeConflictReport, MergeViolationReport, VersionedViolation
from .versioning import bits


def pcheck_mv(mvm: MultiVersionModel, pattern: Pattern) -> list[VersionedViolation]:
    """Per-version violations, computed from one match pass over the fold.

    A pattern embedding exists in exactly the versions containing every
    element it touches, i.e. the AND of the image's presence masks, which
    the matcher builds as it places elements, dropping every partial
    embedding that no version holds. Sorted matches filed per version and
    read in id order come in report order.
    """
    dag = mvm.dag
    held: list[list[Match]] = [[] for _ in dag.ids]
    for m, shared in find_monomorphisms(pattern, mvm.union, mvm.presence, (1 << len(dag.ids)) - 1):
        for k in bits(shared):
            held[k].append(m)
    new = tuple.__new__
    return [new(VersionedViolation, (v, m)) for v, ms in zip(dag.ids, held) for m in ms]


def mcheck_mv(mvm: MultiVersionModel, lcp_mode: str = "all") -> list[MergeConflictReport]:
    """Insert-delete conflicts of every mergeable pair, from the fold.

    For an edge created after the root, a conflict pairs a version that
    has the edge with a version that dropped one of its endpoints, over a
    common base that still had the endpoint but not the edge. Both sides
    descend from that base, so only versions below such a base are
    visited, and only the mergeable partners among the dropping versions
    are paired up. A version below such a base that lacks the endpoint has
    dropped it: the base is a strict ancestor that holds it. The topmost
    bases create the endpoint or drop the edge, so the bases so marked
    have the same descendants, found in few rounds however ids sort.

    Each such (edge, endpoint) is an event, numbered in that order. Left
    versions are taken in id order, their later partners in id order, and
    each pair's bases drawn once; the pair's rows over a base are the
    bits of a mask of events, so they come out in report order unsorted.
    """
    dag = mvm.dag
    draw = dag.drawn_bases(lcp_mode)
    ids, partners, mergeable = dag.ids, dag.merge_partners, dag.mergeable
    root = 1 << dag.position[dag.root]
    store, new = mvm.union.store, tuple.__new__  # new builds a report without a Python frame
    events = []
    for edge_elem in mvm.union.edge_set:
        if mvm.cv[edge_elem] == root:  # created only at the root
            continue
        edge_presence = mvm.presence(edge_elem)
        src, tgt = store.endpoint(edge_elem)
        for endpoint in {src, tgt}:
            endpoint_presence = mvm.presence(endpoint)
            bases_ok = endpoint_presence & ~edge_presence
            if not bases_ok:
                continue
            minimal = bases_ok & (mvm.cv[endpoint] | mvm.dv.get(edge_elem, 0))
            below = dag.descendants(minimal) & mergeable
            dropped = below & ~endpoint_presence
            if dropped:
                events.append(((edge_elem, endpoint), edge_presence & below, dropped, bases_ok))
    events.sort()
    # per position: the events it holds, the events it dropped, the versions across them
    holds, drops, reach = [0] * len(ids), [0] * len(ids), [0] * len(ids)
    for e, (_, holders, dropped, _) in enumerate(events):
        for k in bits(holders):
            holds[k] |= 1 << e
            reach[k] |= dropped
        for k in bits(dropped):
            drops[k] |= 1 << e
            reach[k] |= holders
    grants: dict[int, int] = {}  # base position -> the events it may be a base of
    bases_of: dict[int, list[tuple[int, str]]] = {}  # drawn mask -> (grant, base id), id order
    out: list[MergeConflictReport] = []
    for k, left in enumerate(ids):
        for j in bits(partners[k] & reach[k] & (-2 << k)):  # the partners after k
            right, drawn = ids[j], draw(k, j)
            bases = bases_of.get(drawn)
            if bases is None:
                bases = bases_of[drawn] = []
                for b in bits(drawn):
                    if b not in grants:
                        grants[b] = sum(1 << e for e, ev in enumerate(events) if ev[3] >> b & 1)
                    bases.append((grants[b], ids[b]))
            pair = (holds[k] & drops[j]) | (drops[k] & holds[j])
            for grant, base in bases:
                hit = pair & grant
                if hit:
                    head = (left, right, base)
                    while hit:  # bits(hit) inlined: a generator per base costs more
                        low = hit & -hit
                        out.append(new(MergeConflictReport, head + events[low.bit_length() - 1][0]))
                        hit ^= low
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
    id only, so no report is found twice; with no matched element, any
    version is a candidate. A base qualifies when it lies in no presence
    mask that misses either side of the pair. Rows are filed under their
    left version and sorted within it.

    With no mergeable version there is no pair, so the matcher is not run.
    """
    dag = mvm.dag
    draw = dag.drawn_bases(lcp_mode)
    partners, mergeable = dag.merge_partners, dag.mergeable
    if not mergeable:
        return []
    matches = find_monomorphisms(pattern, mvm.union)
    n, v = len(matches), len(dag.ids)
    filed: list[list[int]] = [[] for _ in dag.ids]  # keys per left position
    for t, m in enumerate(matches):
        presences = [mvm.presence(image) for _, image in m.nodes + m.edges]
        smallest = min(presences, key=int.bit_count, default=(1 << v) - 1)
        for a in bits(smallest & mergeable):
            bit_a = 1 << a
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
                left, right = (a, b) if a < b else (b, a)
                keys, head = filed[left], right * v
                while hit:
                    low = hit & -hit
                    keys.append((head + low.bit_length() - 1) * n + t)
                    hit ^= low
    ids, new = dag.ids, tuple.__new__  # new builds a report without a Python frame
    out: list[MergeViolationReport] = []
    for k, left in enumerate(ids):
        keys, filed[k] = filed[k], []  # each left's keys are freed once its rows are out
        keys.sort()
        for key in keys:
            pair, t = divmod(key, n)
            right, base = divmod(pair, v)
            out.append(new(MergeViolationReport, (left, ids[right], ids[base], matches[t])))
    return out
