"""Seeded random corpus generation.

The same parameters always produce the identical versioning: every
random draw happens over a sorted sequence with one seeded generator.
Each version's members are sorted lists, edited in place, so no draw
sorts anything.
Base models are wired to be well formed (single inheritance, one return
type per method, overrides only between methods agreeing on their return
type); violations and conflicts then arise from the random edits that
distinguish the versions.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import asdict, dataclass, fields

from .core import ElementStore
from .corpus import canonical_json, check_format, load_json
from .errors import ParamError
from .oo import CLASS, METHOD, OVERRIDES, OWNS, RETURN_TYPE, SUPERCLASS, TYPEREF, oo_type_graph
from .versioning import _EMPTY, ModelModification, ModelVersioning, SpanBuilder

GENERATOR_FORMAT = "mv-generator/1"
_NODE_TYPES = (CLASS, METHOD, TYPEREF)


@dataclass(frozen=True)
class GeneratorParams:
    seed: int = 0
    base_size: int = 20
    branch_factor: int = 2
    version_count: int = 8
    edits_per_modification: int = 4
    deletion_bias: float = 0.3

    def validate(self) -> None:
        integer_fields = ("seed", "base_size", "branch_factor", "version_count", "edits_per_modification")
        for name in integer_fields:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParamError(f"{name} must be an integer")
        if isinstance(self.deletion_bias, bool) or not isinstance(self.deletion_bias, (int, float)):
            raise ParamError("deletion_bias must be a number")
        if self.base_size < 0:
            raise ParamError("base_size must be non-negative")
        if self.version_count < 1:
            raise ParamError("version_count must be at least 1")
        if self.branch_factor < 1:
            raise ParamError("branch_factor must be at least 1")
        if self.edits_per_modification < 0:
            raise ParamError("edits_per_modification must be non-negative")
        if not 0.0 <= self.deletion_bias <= 1.0:
            raise ParamError("deletion_bias must lie in [0, 1]")


def parse_generator_params(data: bytes | str) -> GeneratorParams:
    obj = load_json(data, "generator-params")
    check_format(obj, GENERATOR_FORMAT, "generator-params")
    return generator_params({k: v for k, v in obj.items() if k != "format"})


def generator_params(values: dict) -> GeneratorParams:
    """Validated generator parameters from the fields of a JSON object,
    rejecting the first key that names no parameter."""
    known = {f.name for f in fields(GeneratorParams)}
    for key in values:
        if key not in known:
            raise ParamError(f"unknown generator parameter {key!r}")
    params = GeneratorParams(**values)
    params.validate()
    return params


def write_generator_params(params: GeneratorParams) -> bytes:
    return canonical_json({"format": GENERATOR_FORMAT, **asdict(params)})


class _Builder:
    """Mutable generation state: the growing store, whose sizes number the
    next node and edge ids; its node and edge ids in id order, which is
    not creation order (``n10000`` sorts before ``n9999``); and each
    node's incident edges, in creation order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.store = ElementStore()
        self.type_graph = oo_type_graph()
        self.edge_types = sorted(self.type_graph.edge_types)
        self.node_ids: list[str] = []
        self.edge_ids: list[str] = []
        self.incident: dict[str, list[str]] = {}

    def new_node(self, node_type: str) -> str:
        nid = f"n{len(self.store._nodes):04d}"
        self.store.add_node(nid, node_type)
        insort(self.node_ids, nid)
        self.incident[nid] = []
        return nid

    def new_edge(self, edge_type: str, src: str, tgt: str) -> str:
        eid = f"e{len(self.store._edges):04d}"
        self.store.add_edge(eid, edge_type, src, tgt)
        insort(self.edge_ids, eid)
        self.incident[src].append(eid)
        self.incident[tgt].append(eid)  # twice for a loop; deleting it twice is harmless
        return eid


def _discard(ids: list[str], x: str) -> bool:
    """Remove ``x`` from the sorted list ``ids`` if it is there, and say
    whether it was."""
    k = bisect_left(ids, x)
    if k < len(ids) and ids[k] == x:
        del ids[k]
        return True
    return False


def _move(x: str, into: set[str], out_of: set[str]) -> None:
    """Record ``x`` in the delta ``into``, or take it out of the opposite
    delta ``out_of``, which this undoes."""
    if x in out_of:
        out_of.remove(x)
    else:
        into.add(x)


def _build_base(b: _Builder, size: int) -> tuple[list[str], list[str]]:
    """The root model, wired well formed; it holds every element
    registered so far, so its members are the builder's sorted ids."""
    rng = b.rng
    classes: list[str] = []
    methods: list[str] = []
    typerefs: list[str] = []
    for _ in range(size):
        r = rng.random()
        t = CLASS if r < 0.4 else METHOD if r < 0.8 else TYPEREF
        nid = b.new_node(t)
        (classes if t == CLASS else methods if t == METHOD else typerefs).append(nid)
    returns: dict[str, str | None] = {}
    for k, cls in enumerate(classes):
        if k > 0 and rng.random() < 0.75:
            b.new_edge(SUPERCLASS, cls, rng.choice(classes[:k]))
    for m in methods:
        if classes and rng.random() < 0.9:
            b.new_edge(OWNS, rng.choice(classes), m)
        returns[m] = None
        if typerefs and rng.random() < 0.85:
            ret = rng.choice(typerefs)
            b.new_edge(RETURN_TYPE, m, ret)
            returns[m] = ret
    for k, m in enumerate(methods):
        if k > 0 and rng.random() < 0.2:
            compatible = [m2 for m2 in methods[:k] if returns[m2] == returns[m]]
            if compatible:
                b.new_edge(OVERRIDES, m, rng.choice(compatible))
    return list(b.node_ids), list(b.edge_ids)


def _apply_edits(
    b: _Builder, nodes: list[str], edges: list[str], count: int, deletion_bias: float
) -> ModelModification:
    """Edit one version's sorted node and edge lists in place, every draw
    over a sorted list, and return the span that the edits made, net: an
    id created and dropped, or dropped and readopted, lands in neither
    delta. The per-type node pools are sorted out of ``nodes`` at the first
    edge-adding edit and kept in step from there; a readoption still lists
    every registered element that the version lacks."""
    rng, store = b.rng, b.store
    node_type, edge_decl = store._nodes, store._edges
    created_nodes, deleted_nodes, created_edges, deleted_edges = set(), set(), set(), set()
    pools: dict[str, list[str]] | None = None

    def add_node(n: str) -> None:
        insort(nodes, n)
        _move(n, created_nodes, deleted_nodes)
        if pools is not None:
            insort(pools[node_type[n]], n)

    for _ in range(count):
        if rng.random() < deletion_bias and (nodes or edges):
            # A node takes its incident edges with it; an edge goes alone.
            if edges and (not nodes or rng.random() < 0.5):
                gone = rng.choice(edges)
                _discard(edges, gone)
                _move(gone, deleted_edges, created_edges)
            elif nodes:
                victim = rng.choice(nodes)
                _discard(nodes, victim)
                _move(victim, deleted_nodes, created_nodes)
                if pools is not None:
                    _discard(pools[node_type[victim]], victim)
                for e in b.incident[victim]:
                    if _discard(edges, e):
                        _move(e, deleted_edges, created_edges)
            continue
        q = rng.random()
        if q < 0.15:
            # Try to readopt something registered earlier but absent here.
            present_nodes, present_edges = set(nodes), set(edges)
            pool = [n for n in b.node_ids if n not in present_nodes]
            pool += [e for e in b.edge_ids if e not in present_edges
                     and edge_decl[e][1] in present_nodes and edge_decl[e][2] in present_nodes]
            if pool:
                pick = rng.choice(pool)
                if pick in node_type:
                    add_node(pick)
                else:
                    insort(edges, pick)
                    _move(pick, created_edges, deleted_edges)
                continue
        if q < 0.70:
            if pools is None:
                pools = {t: [] for t in _NODE_TYPES}
                for n in nodes:
                    pools[node_type[n]].append(n)
            t = rng.choice(b.edge_types)
            src_t, tgt_t = b.type_graph.endpoint_types(t)
            src_pool, tgt_pool = pools[src_t], pools[tgt_t]
            if src_pool and tgt_pool:
                e = b.new_edge(t, rng.choice(src_pool), rng.choice(tgt_pool))
                insort(edges, e)
                created_edges.add(e)
                continue
        add_node(b.new_node(rng.choice(_NODE_TYPES)))
    return ModelModification(*(frozenset(d) if d else _EMPTY for d in
                               (created_nodes, deleted_nodes, created_edges, deleted_edges)))


def generate_versioning(params: GeneratorParams) -> ModelVersioning:
    """Build one versioning from the parameters, deterministically.

    Every version's members are kept as sorted lists, which later versions
    copy and merges read. The history gets its deltas, not a model per
    version: the span from a version's parent is the one its edits
    recorded, and only a merge's second span is built from the two
    versions' lists as sets, which are dropped again."""
    params.validate()
    rng = random.Random(params.seed)
    b = _Builder(rng)
    spans = SpanBuilder(b.store)

    root = "v000"
    membership: dict[str, tuple[list[str], list[str]]] = {root: _build_base(b, params.base_size)}
    children: dict[str, int] = {root: 0}
    # Every version so far, and those with fewer than branch_factor
    # children, each in id order, which is not creation order past v999.
    ids = [root]
    eligible = [root]

    for k in range(1, params.version_count):
        vid = f"v{k:03d}"
        parent = rng.choice(eligible)
        children[parent] += 1
        if children[parent] == params.branch_factor:
            _discard(eligible, parent)
        p_nodes, p_edges = membership[parent]
        nodes, edges = membership[vid] = p_nodes.copy(), p_edges.copy()
        span = _apply_edits(b, nodes, edges, params.edits_per_modification, params.deletion_bias)
        spans.keep(parent, vid, span, (nodes, edges))
        if params.branch_factor >= 2 and len(ids) >= 2 and rng.random() < 0.25:
            j = rng.randrange(len(ids) - 1)  # an index into ids without parent
            second = ids[j + (j >= bisect_left(ids, parent))]
            spans.add(second, vid, _sets(membership[second]), _sets((nodes, edges)))
        insort(ids, vid)
        insort(eligible, vid)
        children[vid] = 0

    return ModelVersioning._from_deltas(b.store, b.type_graph, ids, root,
                                        _sets(membership[root]), spans)


def _sets(members: tuple[list[str], list[str]]) -> tuple[frozenset[str], frozenset[str]]:
    """A version's sorted node and edge lists as sets. The lists hold the
    store's own id objects, so the sets do too."""
    nodes, edges = members
    return frozenset(nodes), frozenset(edges)
