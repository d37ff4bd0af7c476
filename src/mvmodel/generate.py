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

from .core import ElementStore, Model
from .corpus import canonical_json, check_format, load_json
from .errors import ParamError
from .oo import CLASS, METHOD, OVERRIDES, OWNS, RETURN_TYPE, SUPERCLASS, TYPEREF, oo_type_graph
from .versioning import ModelVersioning

GENERATOR_FORMAT = "mv-generator/1"


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


def _discard(ids: list[str], x: str) -> None:
    """Remove ``x`` from the sorted list ``ids`` if it is there."""
    k = bisect_left(ids, x)
    if k < len(ids) and ids[k] == x:
        del ids[k]


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
) -> None:
    """Edit one version's sorted node and edge lists in place; every draw
    is over a sorted list."""
    rng, store = b.rng, b.store
    node_type = store._nodes
    for _ in range(count):
        if rng.random() < deletion_bias and (nodes or edges):
            # A node takes its incident edges with it; an edge goes alone.
            if edges and (not nodes or rng.random() < 0.5):
                _discard(edges, rng.choice(edges))
            elif nodes:
                victim = rng.choice(nodes)
                _discard(nodes, victim)
                for e in b.incident[victim]:
                    _discard(edges, e)
            continue
        q = rng.random()
        if q < 0.15:
            # Try to readopt something registered earlier but absent here.
            present_nodes, present_edges = set(nodes), set(edges)
            pool = [n for n in b.node_ids if n not in present_nodes]
            pool += [
                e
                for e in b.edge_ids
                if e not in present_edges and present_nodes.issuperset(store.endpoint(e))
            ]
            if pool:
                pick = rng.choice(pool)
                insort(nodes if store.is_node(pick) else edges, pick)
                continue
        if q < 0.70:
            t = rng.choice(b.edge_types)
            src_t, tgt_t = b.type_graph.endpoint_types(t)
            src_pool = [n for n in nodes if node_type[n] == src_t]
            tgt_pool = src_pool if tgt_t == src_t else [n for n in nodes if node_type[n] == tgt_t]
            if src_pool and tgt_pool:
                insort(edges, b.new_edge(t, rng.choice(src_pool), rng.choice(tgt_pool)))
                continue
        insort(nodes, b.new_node(rng.choice((CLASS, METHOD, TYPEREF))))


def generate_versioning(params: GeneratorParams) -> ModelVersioning:
    """Build one versioning from the parameters, deterministically."""
    params.validate()
    rng = random.Random(params.seed)
    b = _Builder(rng)

    root = "v000"
    membership: dict[str, tuple[list[str], list[str]]] = {root: _build_base(b, params.base_size)}
    children: dict[str, int] = {root: 0}
    mods: list[tuple[str, str]] = []
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
        nodes, edges = p_nodes.copy(), p_edges.copy()
        _apply_edits(b, nodes, edges, params.edits_per_modification, params.deletion_bias)
        membership[vid] = (nodes, edges)
        mods.append((parent, vid))
        if params.branch_factor >= 2 and len(ids) >= 2 and rng.random() < 0.25:
            second = rng.choice([v for v in ids if v != parent])
            mods.append((second, vid))
        insort(ids, vid)
        insort(eligible, vid)
        children[vid] = 0

    versions = {
        vid: Model(b.store, b.type_graph, nodes, edges) for vid, (nodes, edges) in membership.items()
    }
    return ModelVersioning(versions, mods, root)
