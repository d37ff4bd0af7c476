"""Seeded random corpus generation.

The same parameters always produce the identical versioning: every
random draw happens over a sorted sequence with one seeded generator.
Base models are wired to be well formed (single inheritance, one return
type per method, overrides only between methods agreeing on their return
type); violations and conflicts then arise from the random edits that
distinguish the versions.
"""

from __future__ import annotations

import random
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
    next node and edge ids."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.store = ElementStore()

    def new_node(self, node_type: str) -> str:
        nid = f"n{len(self.store._nodes):04d}"
        self.store.add_node(nid, node_type)
        return nid

    def new_edge(self, edge_type: str, src: str, tgt: str) -> str:
        eid = f"e{len(self.store._edges):04d}"
        self.store.add_edge(eid, edge_type, src, tgt)
        return eid


def _build_base(b: _Builder, size: int) -> tuple[set[str], set[str]]:
    rng = b.rng
    nodes: set[str] = set()
    edges: set[str] = set()
    classes: list[str] = []
    methods: list[str] = []
    typerefs: list[str] = []
    for _ in range(size):
        r = rng.random()
        t = CLASS if r < 0.4 else METHOD if r < 0.8 else TYPEREF
        nid = b.new_node(t)
        nodes.add(nid)
        (classes if t == CLASS else methods if t == METHOD else typerefs).append(nid)
    returns: dict[str, str | None] = {}
    for k, cls in enumerate(classes):
        if k > 0 and rng.random() < 0.75:
            edges.add(b.new_edge(SUPERCLASS, cls, rng.choice(classes[:k])))
    for m in methods:
        if classes and rng.random() < 0.9:
            edges.add(b.new_edge(OWNS, rng.choice(classes), m))
        returns[m] = None
        if typerefs and rng.random() < 0.85:
            ret = rng.choice(typerefs)
            edges.add(b.new_edge(RETURN_TYPE, m, ret))
            returns[m] = ret
    for k, m in enumerate(methods):
        if k > 0 and rng.random() < 0.2:
            compatible = [m2 for m2 in methods[:k] if returns[m2] == returns[m]]
            if compatible:
                edges.add(b.new_edge(OVERRIDES, m, rng.choice(compatible)))
    return nodes, edges


def _present_by_type(b: _Builder, nodes: set[str], wanted: str) -> list[str]:
    return sorted(n for n in nodes if b.store._nodes[n] == wanted)


def _apply_edits(
    b: _Builder, nodes: set[str], edges: set[str], count: int, deletion_bias: float
) -> None:
    rng = b.rng
    tg = oo_type_graph()
    edge_types = sorted(tg.edge_types)
    node_types = [CLASS, METHOD, TYPEREF]
    for _ in range(count):
        if rng.random() < deletion_bias and (nodes or edges):
            # A node takes its incident edges with it; an edge goes alone.
            if edges and (not nodes or rng.random() < 0.5):
                edges.discard(rng.choice(sorted(edges)))
            elif nodes:
                victim = rng.choice(sorted(nodes))
                nodes.discard(victim)
                for e in sorted(edges):
                    if victim in b.store.endpoint(e):
                        edges.discard(e)
            continue
        q = rng.random()
        if q < 0.15:
            # Try to readopt something registered earlier but absent here.
            absent_nodes = sorted(b.store._nodes.keys() - nodes)
            absent_edges = [
                e
                for e in sorted(b.store._edges.keys() - edges)
                if nodes.issuperset(b.store.endpoint(e))
            ]
            pool = absent_nodes + absent_edges
            if pool:
                pick = rng.choice(pool)
                (nodes if b.store.is_node(pick) else edges).add(pick)
                continue
        if q < 0.70:
            t = rng.choice(edge_types)
            src_t, tgt_t = tg.endpoint_types(t)
            src_pool = _present_by_type(b, nodes, src_t)
            tgt_pool = _present_by_type(b, nodes, tgt_t)
            if src_pool and tgt_pool:
                edges.add(b.new_edge(t, rng.choice(src_pool), rng.choice(tgt_pool)))
                continue
        nodes.add(b.new_node(rng.choice(node_types)))


def generate_versioning(params: GeneratorParams) -> ModelVersioning:
    """Build one versioning from the parameters, deterministically."""
    params.validate()
    rng = random.Random(params.seed)
    b = _Builder(rng)
    base_nodes, base_edges = _build_base(b, params.base_size)

    membership: dict[str, tuple[set[str], set[str]]] = {}
    order: list[str] = []
    children: dict[str, int] = {}
    mods: list[tuple[str, str]] = []

    root = "v000"
    membership[root] = (base_nodes, base_edges)
    order.append(root)
    children[root] = 0

    for k in range(1, params.version_count):
        vid = f"v{k:03d}"
        eligible = sorted(v for v in order if children[v] < params.branch_factor)
        parent = rng.choice(eligible)
        children[parent] += 1
        p_nodes, p_edges = membership[parent]
        nodes, edges = set(p_nodes), set(p_edges)
        _apply_edits(b, nodes, edges, params.edits_per_modification, params.deletion_bias)
        membership[vid] = (nodes, edges)
        mods.append((parent, vid))
        if params.branch_factor >= 2 and len(order) >= 2 and rng.random() < 0.25:
            second = rng.choice(sorted(set(order) - {parent}))
            mods.append((second, vid))
        order.append(vid)
        children[vid] = 0

    tg = oo_type_graph()
    versions = {
        vid: Model(b.store, tg, nodes, edges) for vid, (nodes, edges) in membership.items()
    }
    return ModelVersioning(versions, mods, root)
