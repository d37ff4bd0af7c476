"""Reading and writing the on-disk formats.

All formats are JSON rendered by ``canonical_json``: two-space indent,
keys sorted, one trailing newline, UTF-8. Writing what parsing produced
gives back the identical bytes, which the test suite pins.

Corpus files hold one versioning: the type graph, the element registry
(with fixed endpoints), per-version membership lists, the modification
pairs, and the root marker. Constraint files hold named violation
patterns typed over the corpus type graph. The encoding export renders
a fold as one graph in edge-as-node form; the analyses never build it.
"""

from __future__ import annotations

import io
import json
from bisect import bisect_left
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable, Iterable

from .core import ElementStore, Model, Pattern, TypeGraph, validate_pattern
from .errors import CorpusSyntaxError, ModelError, ValidationError
from .mvm import MultiVersionModel
from .versioning import ModelVersioning, SpanBuilder

CORPUS_FORMAT = "mv-corpus/1"
CONSTRAINTS_FORMAT = "mv-constraints/1"
ENCODING_FORMAT = "mv-encoding/1"
MODEL_FORMAT = "mv-model/1"


def load_json(data: bytes | str, what: str) -> Any:
    """Decode one JSON input file; malformed UTF-8 or JSON, nesting too
    deep for the decoder, or an integer literal longer than the
    interpreter converts, is a CorpusSyntaxError."""
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
    except ValueError as err:  # CPython's limit on int-string conversion
        raise CorpusSyntaxError(str(err), what) from err


def canonical_json(obj: Any) -> bytes:
    """``obj`` in the canonical form that every format is written in: the
    bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline.

    json writes an indented document with its pure-Python encoder, one
    call per value; this writer joins each list of strings, and each
    object whose values are all strings, in one go, and leaves every
    other scalar to ``json.dumps``, with its texts and its ``TypeError``.
    It writes into one buffer, whose bytes it returns without a copy, and
    an ``_Entries`` object member by member (``_emit``).
    """
    out = io.BytesIO()
    _emit(obj, "\n", lambda piece: out.write(piece.encode()))
    out.write(b"\n")
    return out.getvalue()


class _Entries:
    """An object for ``canonical_json`` given as its (key, value) pairs, in
    key order: an iterable that it reads once, as it writes them, so the
    caller need not hold them all."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[str, Any]]):
        self.pairs = pairs


def _emit(obj: Any, nl: str, write: Callable[[str], object]) -> None:
    """``obj`` as ``_render`` renders it, handed to ``write``: an
    ``_Entries`` object one member at a time, any other value whole."""
    if not isinstance(obj, _Entries):
        write(_render(obj, nl))
        return
    inner = nl + "  "
    head = "{"
    for key, value in obj.pairs:
        write(f"{head}{inner}{_json_str(key)}: ")
        _emit(value, inner, write)
        head = ","
    write("{}" if head == "{" else nl + "}")


def _render(obj: Any, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it
    where ``nl``, a newline and the indent, ends the lines around it."""
    if isinstance(obj, str):
        return _json_str(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            body = sep.join(map(_json_str, obj))
        except TypeError:  # a member that is not a string
            body = sep.join([_render(x, inner) for x in obj])
        return f"[{inner}{body}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        try:
            body = sep.join([f"{_json_str(k)}: {_json_str(obj[k])}" for k in keys])
        except TypeError:  # a key or a value that is not a string
            if not all(isinstance(k, str) for k in keys):
                # json converts such keys; its text has no newline but those
                # that end its lines, so replacing them indents it.
                return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)
            body = sep.join([f"{_json_str(k)}: {_render(obj[k], inner)}" for k in keys])
        return f"{{{inner}{body}{nl}}}"
    return json.dumps(obj)


def _type_graph(node_types, edge_types: dict[str, tuple[str, str]]) -> dict:
    return {
        "node_types": sorted(node_types),
        "edge_types": {t: {"source": s, "target": g} for t, (s, g) in edge_types.items()},
    }


def _graph(store: ElementStore, nodes, edges) -> dict:
    """The elements ``nodes`` and ``edges`` of ``store``, with their types
    and endpoints, as the formats write them."""
    return {
        "nodes": {n: store.elem_type(n) for n in nodes},
        "edges": {
            e: dict(zip(("type", "source", "target"), (store.elem_type(e), *store.endpoint(e))))
            for e in edges
        },
    }


def _require(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise CorpusSyntaxError(f"expected an object", where)
    if key not in obj:
        raise CorpusSyntaxError(f"missing key {key!r}", where)
    value = obj[key]
    if not isinstance(value, kind):
        raise CorpusSyntaxError(f"key {key!r} must be a {kind.__name__}", where)
    return value


def check_format(obj: Any, expected: str, where: str) -> None:
    """Require ``obj`` to be an object whose ``format`` marker is
    ``expected``; every parser of an ``mv-*`` input starts here."""
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
    """Parse and fully validate one corpus file.

    The document is read one version at a time (``_read_corpus``), and the
    history is handed its deltas. Anything that reader does not expect (a
    duplicate key, ``versions`` before ``type_graph``, ``elements``,
    ``root`` or ``modifications``, a decode error, a wrong type, or a
    failed check) is read again from the start by the whole-document
    reader, ``_parse_document``, so every accepted history and every error
    is that reader's."""
    try:
        return _read_corpus(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (_Irregular, ModelError, ValueError, KeyError, TypeError, RecursionError):
        pass
    return _parse_document(data)


def _parse_document(data: bytes | str) -> ModelVersioning:
    """Parse and fully validate one corpus file, decoded whole by
    ``json.loads``, with a ``Model`` per version; every error that
    ``parse_corpus`` raises is raised here."""
    obj = load_json(data, "corpus")
    check_format(obj, CORPUS_FORMAT, "corpus")
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
        try:
            versions[vid] = Model(store, tg, nodes, edges)
        except (TypeError, ValueError) as err:
            # Every registered id is a string, so a non-string id always
            # fails here (unhashable: TypeError; else unregistered).
            if not {*map(type, nodes), *map(type, edges)} <= {str}:  # JSON gives exact types
                raise CorpusSyntaxError("element ids must be strings", where) from None
            raise ValidationError(f"{where}: {err}") from err
        # The model holds the store's id objects; the decoded copies die now.
        del versions_obj[vid]
    return ModelVersioning(versions, _modifications(obj), root)


def _modifications(obj: dict) -> list[tuple[str, str]]:
    mods = []
    for k, pair in enumerate(_require(obj, "modifications", list, "corpus")):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise CorpusSyntaxError("modification must be a [from, to] pair", f"modifications[{k}]")
        mods.append((pair[0], pair[1]))
    return mods


class _Irregular(Exception):
    """Input that ``_read_corpus`` leaves to the whole-document reader."""


_scan_once = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match


def _value(text: str, idx: int) -> tuple[Any, int]:
    """The JSON value that starts at ``text[idx]``, decoded as
    ``json.loads`` decodes it, and the index after it."""
    try:
        return _scan_once(text, idx)
    except StopIteration:
        raise _Irregular from None


def _object(text: str, idx: int, take: Callable[[str, int], int]) -> int:
    """Walk the JSON object that starts at ``text[idx]`` as json's own
    scanner does, and return the index after it. ``take(key, start)``
    reads each member's value from ``start`` and returns the index after
    that value. A duplicate key, or anything json rejects, is _Irregular."""
    if text[idx:idx + 1] != "{":
        raise _Irregular
    idx = _space(text, idx + 1).end()
    if text[idx:idx + 1] == "}":
        return idx + 1
    seen = set()
    while True:
        if text[idx:idx + 1] != '"':
            raise _Irregular
        key, idx = json.decoder.scanstring(text, idx + 1)
        if key in seen:
            raise _Irregular
        seen.add(key)
        idx = _space(text, idx).end()
        if text[idx:idx + 1] != ":":
            raise _Irregular
        idx = _space(text, take(key, _space(text, idx + 1).end())).end()
        if text[idx:idx + 1] == "}":
            return idx + 1
        if text[idx:idx + 1] != ",":
            raise _Irregular
        idx = _space(text, idx + 1).end()


def _read_corpus(text: str) -> ModelVersioning:
    """The corpus in ``text``, read one version at a time. It raises
    _Irregular, or the error of a failed check, on anything that
    ``parse_corpus`` leaves to the whole-document reader.

    The top-level object and ``versions`` are walked with json's own
    scanner; every other value is decoded whole. ``type_graph``,
    ``elements``, ``root`` and ``modifications`` must come before
    ``versions``. Then each version entry is decoded on its own, and its
    ids are swapped for the store's own, which is also the check that
    they are registered (``_VersionReader``)."""
    head: dict[str, Any] = {}
    versions: _VersionReader | None = None

    def take(key: str, start: int) -> int:
        nonlocal versions
        if key != "versions":
            head[key], end = _value(text, start)
            return end
        versions = _VersionReader(text, head)
        return _object(text, start, versions.take)

    end = _object(text, _space(text, 0).end(), take)
    if _space(text, end).end() != len(text) or versions is None:
        raise _Irregular
    return versions.history(head)


class _VersionReader:
    """The entries of a corpus's ``versions``, taken one at a time, and the
    spans built from them. ``root`` and ``modifications`` must come before
    ``versions``, as they do in the canonical form, or the document is
    _Irregular. Each modification's span is built as soon as both its ends
    are read, and a version's sets are dropped after its last span; the
    root's stay, as the history's ``root_members``."""

    def __init__(self, text: str, head: dict[str, Any]):
        if "root" not in head or "modifications" not in head:
            raise _Irregular
        self.text = text
        self.type_graph = _parse_type_graph(_require(head, "type_graph", dict, "corpus"), "type_graph")
        self.store = ElementStore()
        _fill_store(self.store, _require(head, "elements", dict, "corpus"), "elements")
        self.spans = SpanBuilder(self.store)
        self.ids: list[str] = []
        self.members: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        self.root = _require(head, "root", str, "corpus")
        # Per version, its modifications, and how many of their spans are
        # not built yet.
        self.pairs: dict[str, list[tuple[str, str]]] = {}
        for pair in set(_modifications(head)):
            for v in set(pair):
                self.pairs.setdefault(v, []).append(pair)
        self.left = {v: len(pairs) for v, pairs in self.pairs.items()}

    def take(self, vid: str, start: int) -> int:
        entry, end = _value(self.text, start)
        where = f"versions.{vid}"
        nodes = _require(entry, "nodes", list, where)
        edges = _require(entry, "edges", list, where)
        own_nodes, own_edges = self.store._own_nodes, self.store._own_edges
        members = self.members
        members[vid] = (frozenset(map(own_nodes.__getitem__, nodes)),
                        frozenset(map(own_edges.__getitem__, edges)))
        self.ids.append(vid)
        # A pair's other end, once read, is held until this span is built.
        left, root = self.left, self.root
        for a, b in self.pairs.get(vid, ()):
            if a in members and b in members:
                self.spans.add(a, b, members[a], members[b])
                for v in {a, b}:
                    left[v] -= 1
                    if not left[v] and v != root:
                        del members[v]
        if vid not in left and vid != root:
            del members[vid]
        return end

    def history(self, head: dict[str, Any]) -> ModelVersioning:
        """The history, once the whole document is read. A span not built
        has an end that is not a version: _Irregular."""
        check_format(head, CORPUS_FORMAT, "corpus")
        if any(self.left.values()):
            raise _Irregular
        return ModelVersioning._from_deltas(self.store, self.type_graph, self.ids, self.root,
                                            self.members[self.root], self.spans)


def write_corpus(versioning: ModelVersioning) -> bytes:
    """Serialise a versioning canonically. The versions are written as
    ``replay`` builds them, each as its sorted node and edge id lists: the
    root's are sorted, and every other version's are derived from its
    parent's lists by the deltas of the span between them (``_edited``).
    So no more lists are held than ``replay`` holds."""
    store, tg = versioning.store, versioning.type_graph
    nodes, edges = versioning.root_members
    members = versioning.replay((sorted(nodes), sorted(edges)), _edited)
    obj = {
        "format": CORPUS_FORMAT,
        "type_graph": _type_graph(tg.node_types, tg.edge_types),
        "elements": _graph(store, store.node_ids(), store.edge_ids()),
        "root": versioning.root,
        "versions": _Entries((vid, {"nodes": nodes, "edges": edges})
                             for vid, (nodes, edges) in members),
        "modifications": [list(pair) for pair in sorted(versioning.modifications)],
    }
    return canonical_json(_Entries(sorted(obj.items())))


def _edited(ids: list[str], deleted, created) -> list[str]:
    """The sorted list ``ids`` without ``deleted``, which it holds, and
    with ``created``, which it lacks. Each deletion is a bisect; the
    created ids go on the end, and one sort merges that short run into
    the long sorted one."""
    out = ids.copy()
    for x in deleted:
        del out[bisect_left(out, x)]
    out += created
    out.sort()
    return out


def parse_constraints(data: bytes | str, type_graph: TypeGraph) -> list[Pattern]:
    """Parse a constraint file; patterns are validated against the corpus types."""
    obj = load_json(data, "constraints")
    check_format(obj, CONSTRAINTS_FORMAT, "constraints")
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
        except ModelError as err:
            raise ValidationError(f"{where}: {err}") from err
        out.append(pattern)
    return out


def write_constraints(patterns: list[Pattern]) -> bytes:
    obj = {
        "format": CONSTRAINTS_FORMAT,
        "patterns": {
            p.name: _graph(p.graph.store, p.graph.node_set, p.graph.edge_set) for p in patterns
        },
    }
    return canonical_json(obj)


VERSION_NODE_TYPE = "version"
SUC_EDGE_TYPE = "suc"


def write_mv_encoding(mvm: MultiVersionModel) -> bytes:
    """Serialise the fold as one typed graph in edge-as-node form, with
    versions, succession, creation and deletion as typed nodes and edges.

    The naming scheme lives here alone. Corpus node type ``T`` and edge
    type ``t`` become node types ``T_mv`` and ``t_mv``; the source and
    target legs of ``t`` are edge types ``t_src`` and ``t_tgt``. Node type
    ``version`` and edge type ``suc`` join them, and each mv type ``X``
    gets creation and deletion edge types ``cv_X`` and ``dv_X`` into
    ``version``. Corpus element ids stay node ids (``origin`` maps each to
    itself); edge ``e``'s legs are ``src:e`` and ``tgt:e``, version ``v``
    is node ``version:v``, and marks are ``suc:a:b``, ``cv:x:v``, ``dv:x:v``.

    Raises ValidationError when the corpus type names collide with this
    scheme, or when an element or version id contains the ``:`` that
    separates the parts of the encoding's own ids.
    """
    base = mvm.union.type_graph
    store = mvm.union.store
    mv_type = {t: f"{t}_mv" for t in (*base.node_types, *base.edge_types)}
    node_types = [VERSION_NODE_TYPE, *mv_type.values()]
    edge_types = {SUC_EDGE_TYPE: (VERSION_NODE_TYPE, VERSION_NODE_TYPE)}
    for t, ends in base.edge_types.items():
        for leg, end in zip(("src", "tgt"), ends):
            edge_types[f"{t}_{leg}"] = (mv_type[t], mv_type[end])
    for mv in mv_type.values():
        edge_types[f"cv_{mv}"] = edge_types[f"dv_{mv}"] = (mv, VERSION_NODE_TYPE)
    names = node_types + list(edge_types)
    if len(set(names)) != len(names):
        raise ValidationError("base type names collide with the reserved mv naming scheme")
    dag = mvm.dag
    elements = (*sorted(mvm.union.node_set), *sorted(mvm.union.edge_set))
    clash = next((x for x in (*elements, *dag.ids) if ":" in x), None)
    if clash is not None:
        raise ValidationError(f"id {clash!r} contains ':', the encoding's id separator")
    nodes = {x: mv_type[store.elem_type(x)] for x in elements}
    nodes.update((f"version:{v}", VERSION_NODE_TYPE) for v in dag.ids)
    edges: dict[str, dict[str, str]] = {}

    def link(eid: str, t: str, source: str, target: str) -> None:
        edges[eid] = {"type": t, "source": source, "target": target}

    for e in mvm.union.edge_set:
        t = store.elem_type(e)
        for leg, end in zip(("src", "tgt"), store.endpoint(e)):
            link(f"{leg}:{e}", f"{t}_{leg}", e, end)
    for a in dag.ids:
        for b in dag.successors(a):
            link(f"suc:{a}:{b}", SUC_EDGE_TYPE, f"version:{a}", f"version:{b}")
    for mark, marks in (("cv", mvm.cv), ("dv", mvm.dv)):
        for x, vids in marks.items():
            for v in dag.ids_of(vids):
                link(f"{mark}:{x}:{v}", f"{mark}_{nodes[x]}", x, f"version:{v}")
    obj = {
        "format": ENCODING_FORMAT,
        "type_graph": _type_graph(node_types, edge_types),
        "nodes": nodes,
        "edges": edges,
        "origin": {x: x for x in elements},
    }
    return canonical_json(obj)


def write_model(model: Model, label: str | None = None) -> bytes:
    """Canonical rendering of one model, used by projection output."""
    obj = {"format": MODEL_FORMAT, **_graph(model.store, model.node_set, model.edge_set)}
    if label is not None:
        obj["version"] = label
    return canonical_json(obj)
