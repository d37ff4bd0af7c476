"""Reading and writing the on-disk formats.

All formats are JSON rendered canonically: two-space indent, keys
sorted, one trailing newline, UTF-8. Writing what parsing produced gives
back the identical bytes, which the test suite pins.

Corpus files hold one versioning: the type graph, the element registry
(with fixed endpoints), per-version membership lists, the modification
pairs, and the root marker. Constraint files hold named violation
patterns typed over the corpus type graph. The encoding export renders
a fold as one graph in edge-as-node form; the analyses never build it.
"""

from __future__ import annotations

import json
from typing import Any

from .core import ElementStore, Model, Pattern, TypeGraph, validate_pattern
from .errors import CorpusSyntaxError, ValidationError
from .mvm import MultiVersionModel
from .versioning import ModelVersioning

CORPUS_FORMAT = "mv-corpus/1"
CONSTRAINTS_FORMAT = "mv-constraints/1"
ENCODING_FORMAT = "mv-encoding/1"
MODEL_FORMAT = "mv-model/1"


def load_json(data: bytes | str, what: str) -> Any:
    """Decode one JSON input file; malformed UTF-8 or JSON, or nesting too
    deep for the decoder, is a CorpusSyntaxError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as err:
        raise CorpusSyntaxError(f"not valid UTF-8: {err}", what) from err
    except json.JSONDecodeError as err:
        raise CorpusSyntaxError(str(err), what) from err
    except RecursionError as err:
        raise CorpusSyntaxError("JSON nested too deeply", what) from err


def _canonical(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _require(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise CorpusSyntaxError(f"expected an object", where)
    if key not in obj:
        raise CorpusSyntaxError(f"missing key {key!r}", where)
    value = obj[key]
    if not isinstance(value, kind):
        raise CorpusSyntaxError(f"key {key!r} must be a {kind.__name__}", where)
    return value


def _check_format(obj: Any, expected: str, where: str) -> None:
    fmt = _require(obj, "format", str, where)
    if fmt != expected:
        raise CorpusSyntaxError(f"expected format {expected!r}, found {fmt!r}", where)


def _parse_type_graph(obj: Any, where: str) -> TypeGraph:
    node_types = _require(obj, "node_types", list, where)
    if not all(isinstance(t, str) for t in node_types):
        raise CorpusSyntaxError("node types must be strings", f"{where}.node_types")
    edge_types = _require(obj, "edge_types", dict, where)
    edges = {}
    for t, decl in sorted(edge_types.items()):
        src = _require(decl, "source", str, f"{where}.edge_types.{t}")
        tgt = _require(decl, "target", str, f"{where}.edge_types.{t}")
        edges[t] = (src, tgt)
    try:
        return TypeGraph(node_types, edges)
    except ValueError as err:
        raise ValidationError(f"{where}: {err}") from err


def _fill_store(store: ElementStore, obj: Any, where: str) -> None:
    nodes = _require(obj, "nodes", dict, where)
    edges = _require(obj, "edges", dict, where)
    try:
        for nid in sorted(nodes):
            t = nodes[nid]
            if not isinstance(t, str):
                raise CorpusSyntaxError("node type must be a string", f"{where}.nodes.{nid}")
            store.add_node(nid, t)
        for eid in sorted(edges):
            decl = edges[eid]
            here = f"{where}.edges.{eid}"
            store.add_edge(
                eid,
                _require(decl, "type", str, here),
                _require(decl, "source", str, here),
                _require(decl, "target", str, here),
            )
    except ValueError as err:
        raise ValidationError(f"{where}: {err}") from err


def parse_corpus(data: bytes | str) -> ModelVersioning:
    """Parse and fully validate one corpus file."""
    obj = load_json(data, "corpus")
    _check_format(obj, CORPUS_FORMAT, "corpus")
    tg = _parse_type_graph(_require(obj, "type_graph", dict, "corpus"), "type_graph")
    store = ElementStore()
    _fill_store(store, _require(obj, "elements", dict, "corpus"), "elements")
    root = _require(obj, "root", str, "corpus")
    versions_obj = _require(obj, "versions", dict, "corpus")
    versions: dict[str, Model] = {}
    for vid in sorted(versions_obj):
        where = f"versions.{vid}"
        nodes = _require(versions_obj[vid], "nodes", list, where)
        edges = _require(versions_obj[vid], "edges", list, where)
        if not all(isinstance(x, str) for x in nodes + edges):
            raise CorpusSyntaxError("element ids must be strings", where)
        try:
            versions[vid] = Model(store, tg, nodes, edges)
        except ValueError as err:
            raise ValidationError(f"{where}: {err}") from err
    mods_obj = _require(obj, "modifications", list, "corpus")
    mods = []
    for k, pair in enumerate(mods_obj):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise CorpusSyntaxError("modification must be a [from, to] pair", f"modifications[{k}]")
        mods.append((pair[0], pair[1]))
    return ModelVersioning(versions, mods, root)


def write_corpus(versioning: ModelVersioning) -> bytes:
    """Serialise a versioning canonically."""
    some_model = next(iter(versioning.versions.values()))
    store = some_model.store
    tg = some_model.type_graph
    node_items, edge_items = store.snapshot()
    obj = {
        "format": CORPUS_FORMAT,
        "type_graph": {
            "node_types": sorted(tg.node_types),
            "edge_types": {
                t: {"source": s, "target": g} for t, (s, g) in tg.edge_types.items()
            },
        },
        "elements": {
            "nodes": {nid: t for nid, t in node_items},
            "edges": {
                eid: {"type": t, "source": s, "target": g}
                for eid, (t, s, g) in edge_items
            },
        },
        "root": versioning.root,
        "versions": {
            vid: {"nodes": sorted(m.node_set), "edges": sorted(m.edge_set)}
            for vid, m in versioning.versions.items()
        },
        "modifications": [list(pair) for pair in sorted(versioning.modifications)],
    }
    return _canonical(obj)


def parse_constraints(data: bytes | str, type_graph: TypeGraph) -> list[Pattern]:
    """Parse a constraint file; patterns are validated against the corpus types."""
    obj = load_json(data, "constraints")
    _check_format(obj, CONSTRAINTS_FORMAT, "constraints")
    patterns_obj = _require(obj, "patterns", dict, "constraints")
    out = []
    for name in sorted(patterns_obj):
        where = f"patterns.{name}"
        store = ElementStore()
        _fill_store(store, patterns_obj[name], where)
        nodes = list(store.node_ids())
        edges = list(store.edge_ids())
        try:
            pattern = Pattern(name, Model(store, type_graph, nodes, edges))
            validate_pattern(pattern)
        except ValueError as err:
            raise ValidationError(f"{where}: {err}") from err
        out.append(pattern)
    return out


def write_constraints(patterns: list[Pattern]) -> bytes:
    obj = {
        "format": CONSTRAINTS_FORMAT,
        "patterns": {
            p.name: {
                "nodes": {n: p.graph.store.elem_type(n) for n in sorted(p.graph.node_set)},
                "edges": {
                    e: {
                        "type": p.graph.store.elem_type(e),
                        "source": p.graph.store.endpoint(e)[0],
                        "target": p.graph.store.endpoint(e)[1],
                    }
                    for e in sorted(p.graph.edge_set)
                },
            }
            for p in patterns
        },
    }
    return _canonical(obj)


VERSION_NODE_TYPE = "version"
SUC_EDGE_TYPE = "suc"

_SRC_PREFIX = "src:"
_TGT_PREFIX = "tgt:"


class AdaptedTypeGraph:
    """Type graph for the folded encoding of one base type graph.

    Every base node type and every base edge type becomes an mv node
    type; each base edge type also gets a pair of encoding edge types for
    its source and target legs. One extra node type stands for versions,
    wired to everything else by creation and deletion edge types plus the
    successor edge type. The naming scheme is fixed: ``T`` maps to
    ``T_mv``, the legs of edge type ``t`` to ``t_src`` and ``t_tgt``, and
    the per-type creation and deletion edges to ``cv_T_mv`` and
    ``dv_T_mv``.
    """

    __slots__ = (
        "base",
        "node_corr",
        "edge_corr",
        "src_corr",
        "tgt_corr",
        "cv_types",
        "dv_types",
        "origin_kind",
        "type_graph",
    )

    def __init__(self, base: TypeGraph):
        self.base = base
        self.node_corr = {t: f"{t}_mv" for t in sorted(base.node_types)}
        self.edge_corr = {t: f"{t}_mv" for t in sorted(base.edge_types)}
        self.src_corr = {t: f"{t}_src" for t in sorted(base.edge_types)}
        self.tgt_corr = {t: f"{t}_tgt" for t in sorted(base.edge_types)}
        mv_node_types = [VERSION_NODE_TYPE]
        mv_node_types += list(self.node_corr.values()) + list(self.edge_corr.values())
        self.origin_kind: dict[str, tuple[str, str]] = {}
        for t, mv in self.node_corr.items():
            self.origin_kind[mv] = ("node", t)
        for t, mv in self.edge_corr.items():
            self.origin_kind[mv] = ("edge", t)
        mv_edge_types: dict[str, tuple[str, str]] = {SUC_EDGE_TYPE: (VERSION_NODE_TYPE, VERSION_NODE_TYPE)}
        for t in sorted(base.edge_types):
            s, g = base.endpoint_types(t)
            mv_edge_types[self.src_corr[t]] = (self.edge_corr[t], self.node_corr[s])
            mv_edge_types[self.tgt_corr[t]] = (self.edge_corr[t], self.node_corr[g])
        self.cv_types = {}
        self.dv_types = {}
        for mv in sorted(self.origin_kind):
            self.cv_types[mv] = f"cv_{mv}"
            self.dv_types[mv] = f"dv_{mv}"
            mv_edge_types[f"cv_{mv}"] = (mv, VERSION_NODE_TYPE)
            mv_edge_types[f"dv_{mv}"] = (mv, VERSION_NODE_TYPE)
        names = mv_node_types + list(mv_edge_types)
        if len(set(names)) != len(names):
            raise ValidationError(
                "base type names collide with the reserved mv naming scheme"
            )
        self.type_graph = TypeGraph(mv_node_types, mv_edge_types)


def trans_mv(graph: Model, adapted: AdaptedTypeGraph) -> tuple[Model, dict[str, str]]:
    """Re-express one base graph as a structural mv graph.

    Returns the structural graph over a fresh store, plus the bijection
    from its nodes back to the base elements they stand for. Node ids
    are reused verbatim (base namespaces are disjoint, so element ids are
    unique across nodes and edges); encoding edges get reserved
    ``src:``/``tgt:`` prefixed ids.
    """
    if graph.type_graph != adapted.base:
        raise ValidationError("graph is not typed over the adapted base type graph")
    base_store = graph.store
    store = ElementStore()
    origin: dict[str, str] = {}
    for n in sorted(graph.node_set):
        store.add_node(n, adapted.node_corr[base_store.elem_type(n)])
        origin[n] = n
    for e in sorted(graph.edge_set):
        store.add_node(e, adapted.edge_corr[base_store.elem_type(e)])
        origin[e] = e
    edges = []
    for e in sorted(graph.edge_set):
        t = base_store.elem_type(e)
        src, tgt = base_store.endpoint(e)
        store.add_edge(_SRC_PREFIX + e, adapted.src_corr[t], e, src)
        store.add_edge(_TGT_PREFIX + e, adapted.tgt_corr[t], e, tgt)
        edges.append(_SRC_PREFIX + e)
        edges.append(_TGT_PREFIX + e)
    structural = Model(store, adapted.type_graph, origin.keys(), edges)
    return structural, origin


def write_mv_encoding(mvm: MultiVersionModel) -> bytes:
    """Serialise the folded form with version, successor, creation, and
    deletion information materialised as typed nodes and edges.

    Raises ValidationError when the corpus type names collide with the
    encoding's reserved names, or when an element or version id contains
    the ``:`` that separates the parts of the encoding's own ids.
    """
    adapted = AdaptedTypeGraph(mvm.union.type_graph)
    ids = (*mvm.node_elements, *mvm.edge_elements, *mvm.version_ids)
    clash = next((x for x in ids if ":" in x), None)
    if clash is not None:
        raise ValidationError(f"id {clash!r} contains ':', the encoding's id separator")
    structural, origin = trans_mv(mvm.union, adapted)
    store = structural.store
    nodes = {n: store.elem_type(n) for n in sorted(structural.node_set)}
    edges = {
        e: {
            "type": store.elem_type(e),
            "source": store.endpoint(e)[0],
            "target": store.endpoint(e)[1],
        }
        for e in sorted(structural.edge_set)
    }
    for vid in mvm.version_ids:
        nodes[f"version:{vid}"] = VERSION_NODE_TYPE
    for a in sorted(mvm.suc):
        for b in mvm.suc[a]:
            edges[f"suc:{a}:{b}"] = {
                "type": SUC_EDGE_TYPE,
                "source": f"version:{a}",
                "target": f"version:{b}",
            }
    for elem in sorted(origin.values()):
        mv_type = store.elem_type(elem)
        for vid in sorted(mvm.cv.get(elem, frozenset())):
            edges[f"cv:{elem}:{vid}"] = {
                "type": adapted.cv_types[mv_type],
                "source": elem,
                "target": f"version:{vid}",
            }
        for vid in sorted(mvm.dv.get(elem, frozenset())):
            edges[f"dv:{elem}:{vid}"] = {
                "type": adapted.dv_types[mv_type],
                "source": elem,
                "target": f"version:{vid}",
            }
    obj = {
        "format": ENCODING_FORMAT,
        "type_graph": {
            "node_types": sorted(adapted.type_graph.node_types),
            "edge_types": {
                t: {"source": s, "target": g}
                for t, (s, g) in adapted.type_graph.edge_types.items()
            },
        },
        "nodes": nodes,
        "edges": edges,
        "origin": {n: origin[n] for n in sorted(origin)},
    }
    return _canonical(obj)


def write_model(model: Model, label: str | None = None) -> bytes:
    """Canonical rendering of one model, used by projection output."""
    store = model.store
    obj = {
        "format": MODEL_FORMAT,
        "nodes": {n: store.elem_type(n) for n in sorted(model.node_set)},
        "edges": {
            e: {
                "type": store.elem_type(e),
                "source": store.endpoint(e)[0],
                "target": store.endpoint(e)[1],
            }
            for e in sorted(model.edge_set)
        },
    }
    if label is not None:
        obj["version"] = label
    return _canonical(obj)
