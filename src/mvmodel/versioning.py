"""Version histories: DAGs of models linked by difference spans.

A span, the ``ModelModification`` from one model to another, is maximally
preserving by construction, as all versions share one element store: an
element survives exactly when it is in both models. It is its four deltas
(created and deleted nodes and edges); a history keeps one per
modification, and the merges in ``mvmodel.merge`` read two from one base.

``VersionDag`` is the history without its models: the ids, the root and
the modifications, checked for shape. It owns the version sets, each one
a bitmask whose bit k stands for the k-th id in id order: the ancestor and
descendant masks, ``reach`` and the merge bases that each lcp mode draws.
The fold in ``mvmodel.mvm`` and its analyses read only the DAG.
``ModelVersioning`` is a ``VersionDag`` plus its deltas: the root's
members and one span per modification, from which ``versions`` builds
each version's model on access. Its validation keeps the union ``Model``
and the creation and deletion marks, which every fold of the history
wraps."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Container, Mapping
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import ElementStore, Model, TypeGraph
from .errors import (
    CycleDetected,
    InvalidVersion,
    NoCommonRoot,
    StoreMismatch,
    UnknownVersion,
    ValidationError,
)
from . import core

VersionId = str

LCP_MODES = ("all", "single")

_EMPTY: frozenset[str] = frozenset()
_NOTHING = (_EMPTY, _EMPTY)  # the members of the empty model


def check_lcp_mode(mode: str) -> None:
    if mode not in LCP_MODES:
        raise ValueError(f"lcp mode must be one of {LCP_MODES}, got {mode!r}")


def _deltas(source: frozenset[str], target: frozenset[str]) -> tuple[frozenset, frozenset]:
    """(created, deleted): the target-only and the source-only members.
    |created| - |deleted| = |target| - |source|, so the difference that the
    sizes prove non-empty is taken first, and the other only when the size
    derived from it is not 0."""
    grow = len(target) - len(source)
    if grow >= 0:
        created = target - source
        return created, (source - target if len(created) > grow else _EMPTY)
    deleted = source - target
    return (target - source if len(deleted) > -grow else _EMPTY), deleted


def _in_sorted(ids: list[str], x: str) -> bool:
    k = bisect_left(ids, x)
    return k < len(ids) and ids[k] == x


class ModelModification(NamedTuple):
    """A span: the difference between two models, read as source-to-target
    evolution, as its four deltas: what the target adds to the source and
    what it drops, by kind. The preserved part is what the source holds
    outside the deleted sets. A history keeps one per modification, and the
    merges read two from one base."""

    created_nodes: frozenset[str]
    deleted_nodes: frozenset[str]
    created_edges: frozenset[str]
    deleted_edges: frozenset[str]

    @classmethod
    def between(cls, source: Model, target: Model) -> "ModelModification":
        if source.store is not target.store:
            raise StoreMismatch("modification endpoints use different element stores")
        if source.type_graph != target.type_graph:
            raise ValidationError("modification endpoints use different type graphs")
        return cls(*_deltas(source.node_set, target.node_set),
                   *_deltas(source.edge_set, target.edge_set))


class VersionDag:
    """A rooted DAG of version ids: their numbering, the version sets as
    masks and the merge bases. Construction checks the DAG's shape (see
    ``validate``). It holds no model; the fold and its analyses read only
    this."""

    def __init__(
        self,
        ids: Iterable[VersionId],
        modifications: Iterable[tuple[VersionId, VersionId]],
        root: VersionId,
    ):
        self.ids: tuple[VersionId, ...] = tuple(sorted(set(ids)))
        self.modifications: frozenset[tuple[VersionId, VersionId]] = frozenset(
            (a, b) for a, b in modifications
        )
        self.root = root
        succ: dict[VersionId, list[VersionId]] = {v: [] for v in self.ids}
        pred: dict[VersionId, list[VersionId]] = {v: [] for v in self.ids}
        for a, b in sorted(self.modifications):
            if a in succ and b in pred:
                succ[a].append(b)
                pred[b].append(a)
        self._succ = {v: tuple(ws) for v, ws in succ.items()}
        self._pred = {v: tuple(ws) for v, ws in pred.items()}
        self._lcp_table: dict[tuple[VersionId, VersionId], int] | None = None
        self.validate()

    def successors(self, version_id: VersionId) -> tuple[VersionId, ...]:
        if version_id not in self._succ:
            raise UnknownVersion(version_id)
        return self._succ[version_id]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.ids)} versions, "
            f"{len(self.modifications)} modifications, root={self.root!r})"
        )

    # -- version sets as bitmasks ----------------------------------------
    #
    # The versions are numbered once, in id order: a set of versions is an
    # int whose bit k stands for ``ids[k]``, and ``position`` maps each id
    # to its k. Lower bits are lower ids, so a mask's bits, lowest first,
    # are its versions in report order.

    def ids_of(self, mask: int) -> list[VersionId]:
        """The versions of a bitmask, in id order."""
        return [self.ids[k] for k in bits(mask)]

    def descendants(self, mask: int) -> int:
        """The versions at or below a member of ``mask``."""
        post, out = self._post, 0
        while mask:  # lowest member first; members already covered are skipped
            low = mask & -mask
            out |= low | post[low.bit_length() - 1]
            mask &= ~out
        return out

    def reach(self, starts: int, barriers: int) -> int:
        """Each start's descendants (itself included) minus the descendants
        of the barriers below it (themselves included).

        With an element's creation versions as starts and its deletion
        versions as barriers this is the versions that hold the element,
        its presence. The closed form is exact on the marks ``cv`` and
        ``dv`` because they mark every version whose parents disagree on
        an element.
        """
        out = 0
        for s in bits(starts):
            below = self.descendants(1 << s)
            out |= below & ~self.descendants(barriers & below)
        return out

    # -- shape ------------------------------------------------------------

    def validate(self) -> None:
        """Check the DAG's shape; raises the first violation found. One
        topological sort decides acyclicity and reachability from the root;
        as ``order`` it visits the versions to build the ancestor and
        descendant masks that the merge masks, bases and ``reach`` read."""
        self._check_ids(self._succ, self.modifications, self.root)
        self._number()
        root_bit = 1 << self.position[self.root]
        missing = [v for v, m in zip(self.ids, self._pre) if not m & root_bit and v != self.root]
        if missing:
            raise NoCommonRoot(missing)

    @staticmethod
    def _check_ids(ids: Container, modifications: Iterable[tuple], root: VersionId) -> None:
        """The checks before the shape's: at least one version in ``ids``,
        and every id that the root and the modifications name among them."""
        if not ids:
            raise ValidationError("a versioning needs at least one version")
        for v in (root, *(v for pair in sorted(modifications) for v in pair)):
            if v not in ids:
                raise UnknownVersion(v)

    def _number(self) -> None:
        """Sort the versions topologically (``order``), number them in id
        order (``position``) and keep each one's strict ancestors (``_pre``)
        and strict descendants (``_post``) as bitmasks, with the merge masks
        drawn from them: ``merge_partners``, for each position the versions
        it has a merge base with, and ``mergeable``, the versions with any
        partner. ``order`` is only the closure's visiting order. Raises
        CycleDetected when there is no topological order.

        The partners are in closed form: validation proves that every
        version descends from the root, so two versions other than the root
        always share an ancestor, and they are partners exactly when neither
        is an ancestor of the other. The root is an ancestor of every other
        version, so the same expression leaves it no partner."""
        indegree = {v: len(ps) for v, ps in self._pred.items()}
        ready = [v for v, n in indegree.items() if not n]
        order: list[VersionId] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self._succ[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    ready.append(w)
        if len(order) < len(self.ids):
            # Every version left over has a parent left over: walk up
            # parents until one repeats, and report that loop.
            path, v = [], next(v for v, n in indegree.items() if n)
            while v not in path:
                path.append(v)
                v = next(p for p in self._pred[v] if indegree[p])
            raise CycleDetected([v, *reversed(path[path.index(v):])])
        self.order = tuple(order)
        self.position = position = {v: k for k, v in enumerate(self.ids)}
        self._pre = pre = _closure(order, position, self._pred)
        self._post = post = _closure(reversed(order), position, self._succ)
        full = (1 << len(order)) - 1
        self.merge_partners = [full & ~(pre[k] | post[k] | 1 << k) for k in range(len(order))]
        self.mergeable = sum(1 << k for k, p in enumerate(self.merge_partners) if p)

    def drawn_bases(self, mode: str) -> Callable[[int, int], int]:
        """A function of two partner positions that gives the mask of their
        merge bases that lcp mode ``mode`` analyses: all of them (``all``)
        or the least id (``single``).

        A pair's merge bases are the maximal members of its common
        ancestors, so the drawn mask depends on the common mask alone and is
        memoised on it; a history has few distinct common masks."""
        check_lcp_mode(mode)
        pre, single = self._pre, mode == "single"
        memo: dict[int, int] = {}

        def draw(a: int, b: int) -> int:
            common = pre[a] & pre[b]
            drawn = memo.get(common)
            if drawn is None:
                drawn = _maxima(common, pre)
                if single:
                    drawn &= -drawn  # the lowest bit is the least id
                memo[common] = drawn
            return drawn

        return draw

    def latest_common_predecessor_table(self) -> dict[tuple[VersionId, VersionId], int]:
        """The merge-base mask of every unordered version pair, keyed (i, j)
        with i < j: ``drawn_bases("all")`` of the pair for merge partners,
        0 for any other pair. A layout of the fold's draw for the
        per-version route, which files pairs under their masks; the folded
        analyses draw from ``merge_partners`` and ``drawn_bases`` directly.
        """
        if self._lcp_table is None:
            ids, partners, draw = self.ids, self.merge_partners, self.drawn_bases("all")
            table: dict[tuple[VersionId, VersionId], int] = {}
            for a, i in enumerate(ids):
                mine = partners[a]
                for b in range(a + 1, len(ids)):
                    table[i, ids[b]] = draw(a, b) if mine >> b & 1 else 0
            self._lcp_table = table
        return self._lcp_table


class SpanBuilder:
    """One history's spans, built one at a time, for
    ``ModelVersioning._build``.

    ``add`` builds the span of a modification from the (nodes, edges)
    member sets of its two ends, each a pair of frozensets of the store's
    own ids, and keeps it in ``spans``; ``keep`` keeps a span whose maker
    knows its deltas, with its target's members as sorted id lists. Each
    span is checked as it comes in, against its target's members, for
    whether it carries properness from its source to its target: every
    edge it creates has both ends in the target, and no node it deletes
    keeps an incident edge there. ``proper`` stays True while every span
    does, so a caller may drop a version's members once its last span is
    in."""

    def __init__(self, store: ElementStore):
        self.spans: dict[tuple[VersionId, VersionId], ModelModification] = {}
        self.proper = True
        self._edge_decl = store._edges
        self._incident: dict[str, list[str]] = {}
        self._indexed = 0

    def add(self, source_id: VersionId, target_id: VersionId, source: tuple, target: tuple) -> None:
        self.spans[source_id, target_id] = self.span(source, target)

    def keep(self, source_id: VersionId, target_id: VersionId, span: ModelModification,
             target: tuple[list[str], list[str]]) -> None:
        nodes, edges = target
        self._check(span, partial(_in_sorted, nodes), partial(_in_sorted, edges))
        self.spans[source_id, target_id] = span

    def span(self, source: tuple, target: tuple) -> ModelModification:
        (source_nodes, source_edges), (nodes, edges) = source, target
        span = ModelModification(*_deltas(source_nodes, nodes), *_deltas(source_edges, edges))
        self._check(span, nodes.__contains__, edges.__contains__)
        return span

    def _check(self, span: ModelModification, has_node: Callable, has_edge: Callable) -> None:
        if self.proper:
            decl = self._edge_decl
            self.proper = all(has_node(n) for e in span.created_edges for n in decl[e][1:]) and (
                not span.deleted_nodes
                or not any(map(has_edge, self._incident_to(span.deleted_nodes))))

    def _incident_to(self, nodes: frozenset[str]) -> Iterator[str]:
        """The registered edges with an end in ``nodes``. The index is
        built on the first span that deletes a node, and extended by the
        edges registered since, for a store that grows as the spans are
        built (the generator's)."""
        decl, index = self._edge_decl, self._incident
        if self._indexed < len(decl):
            for e, (_, src, dst) in islice(decl.items(), self._indexed, None):
                index.setdefault(src, []).append(e)
                index.setdefault(dst, []).append(e)
            self._indexed = len(decl)
        return chain.from_iterable(index.get(n, ()) for n in nodes)


class ModelVersioning(VersionDag):
    """A version DAG whose versions are models over one element store;
    construction validates it (see ``validate``), so every instance is well
    formed.

    It holds its deltas, not its versions: the root's node and edge sets
    (``root_members``) and, in ``spans``, each modification's
    ``ModelModification``. Every history is built by one route,
    ``_build``: the corpus reader and the generator hand it their spans
    (``_from_deltas``), and the public constructor, which takes a model
    per version, hands it spans built from its models' member sets.
    ``versions`` is a read-only mapping that builds each model on access:
    ``version`` replays the deltas along one path from the root, through
    each version's least parent, and ``replay`` builds every version in id
    order, each from that parent's member sets.
    """

    def __init__(
        self,
        versions: Mapping[VersionId, Model],
        modifications: Iterable[tuple[VersionId, VersionId]],
        root: VersionId,
    ):
        models = dict(sorted(versions.items()))
        pairs = frozenset((a, b) for a, b in modifications)
        self._check_ids(models, pairs, root)
        ref = next(iter(models.values()))
        for vid, m in models.items():
            if m.store is not ref.store:
                raise StoreMismatch(f"version {vid!r} uses a different element store")
            if m.type_graph != ref.type_graph:
                raise InvalidVersion(vid, ValidationError("type graph differs between versions"))
        members = {vid: (m.node_set, m.edge_set) for vid, m in models.items()}
        spans = SpanBuilder(ref.store)
        for a, b in pairs:
            spans.add(a, b, members[a], members[b])
        try:
            self._build(ref.store, ref.type_graph, models, root, members[root], spans)
        except (CycleDetected, NoCommonRoot):
            self._check_each(models.items())  # a broken version wins over a bad shape
            raise

    @classmethod
    def _from_deltas(cls, *deltas) -> "ModelVersioning":
        """The history that ``_build`` builds from ``deltas``, as the corpus
        reader and the generator hand them over: a bad shape raises at
        once, as no model is given to check in full."""
        self = cls.__new__(cls)
        self._build(*deltas)
        return self

    def _build(self, store: ElementStore, type_graph: TypeGraph, ids: Iterable[VersionId],
               root: VersionId, root_members: tuple, spans: SpanBuilder) -> None:
        """Build the history of versions ``ids`` over ``store`` and
        ``type_graph`` whose root holds ``root_members`` and whose
        modifications are the spans built in ``spans``: keep the root's
        members and the spans, then number the DAG, which calls
        ``validate``. The first span, from the empty model to the root, is
        checked for properness with the others, then dropped."""
        spans.span(_NOTHING, root_members)
        self.store, self.type_graph = store, type_graph
        self.root_members, self.spans, self._proper = root_members, spans.spans, spans.proper
        VersionDag.__init__(self, ids, spans.spans, root)

    # -- basic access ---------------------------------------------------

    @property
    def versions(self) -> Mapping[VersionId, Model]:
        """Each version's model, by id; iteration goes in id order."""
        return _Versions(self)

    def version(self, version_id: VersionId) -> Model:
        if version_id not in self.position:
            raise UnknownVersion(version_id)
        path = []
        while version_id != self.root:
            parent = self._pred[version_id][0]
            path.append((parent, version_id))
            version_id = parent
        members = self.root_members
        for span in reversed(path):
            members = _step(members, self.spans[span], _edit)
        return Model._wrap(self.store, self.type_graph, *members)

    def replay(self, root: tuple, edit: Callable) -> Iterator[tuple[VersionId, tuple]]:
        """Yield (version id, members) for every version, in id order. The
        root's members are ``root``, a (nodes, edges) pair; every other
        version's are its least parent's, edited per kind by ``edit(ids,
        deleted, created)`` with the deltas of the span between them.

        Each version is built once, from that parent. A pair is held until
        it is yielded and every version built from it is built; a parent
        that comes later in id order is built first, on demand."""
        parent = {v: ps[0] for v, ps in self._pred.items() if ps}
        spans = self.spans
        waiting = Counter(parent.values())  # per version: its unbuilt children,
        waiting.update(self.ids)  # and its own yield
        held = {self.root: root}
        for vid in self.ids:
            path, v = [], vid
            while v not in held:
                path.append(v)
                v = parent[v]
            for w in reversed(path):
                held[w] = _step(held[v], spans[v, w], edit)
                waiting[v] -= 1
                if not waiting[v]:
                    del held[v]
                v = w
            yield vid, held[vid]
            waiting[vid] -= 1
            if not waiting[vid]:
                del held[vid]

    def __eq__(self, other: object) -> bool:
        """Value equality: same shape and same element content, compared
        on the root's members and the spans' deltas. The shape is the root
        and the modifications: every other version descends from the root,
        so the ids are the root and the modifications' targets.

        Unlike Model equality this does not require store identity, so a
        versioning equals its serialization round trip.
        """
        if not isinstance(other, ModelVersioning):
            return NotImplemented
        return (
            self.root == other.root
            and self.modifications == other.modifications
            and self.type_graph == other.type_graph
            and self.root_members == other.root_members
            and self.spans == other.spans
            and self.store.snapshot() == other.store.snapshot()
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the whole versioning; raises the first violation found. A
        bad shape raises at once (``VersionDag.validate``). A valid history
        is proven valid by its deltas: each span carries properness
        (``SpanBuilder``), and its elements conform to the type graph
        (``_mark``, which keeps the fold's marks). Only when that fails is
        every version replayed and checked in full, in id order, so
        ``InvalidVersion`` names the first broken one."""
        super().validate()
        if not (self._proper and self._mark()):
            self._check_each(self.versions.items())

    @staticmethod
    def _check_each(versions: Iterable[tuple[VersionId, Model]]) -> None:
        """Check each (id, model) in full, in the order given; raises the
        ``InvalidVersion`` of the first broken one."""
        for vid, m in versions:
            try:
                core.validate_model(m)
            except Exception as err:
                raise InvalidVersion(vid, err) from err

    def _mark(self) -> bool:
        """Whether every element of the history conforms to the type graph,
        checked once per element of the union of the versions; if so, keep
        the union and the marks.

        That union is the root's members and every span's created
        elements, which is exact because the shape check has proven that
        every version descends from the root: on a path from the root to a
        version that holds an element, the first span whose target holds
        it creates it. Properness holds on the root, and carries across
        every span, so by induction from the root it holds for every
        version.

        What the history keeps is set here: ``union`` is the union as a
        ``Model``; ``cv`` and ``dv`` map each element to the mask of the
        versions that create and delete it (the root creates its members,
        and span (a, b) marks at b what b adds to a and what it drops)."""
        store, tg = self.store, self.type_graph
        root_nodes, root_edges = self.root_members
        deltas = self.spans.values()
        nodes = root_nodes.union(*(delta.created_nodes for delta in deltas))
        edges = root_edges.union(*(delta.created_edges for delta in deltas))
        # The store's tables, read directly: a method call per element would
        # cost more than the check it makes.
        node_type, edge_decl = store._nodes, store._edges
        if not {node_type[n] for n in nodes} <= tg.node_types:
            return False
        edge_types = tg.edge_types
        for e in edges:
            t, src, dst = edge_decl[e]
            if t not in edge_types or (node_type[src], node_type[dst]) != edge_types[t]:
                return False
        position = self.position
        cv = dict.fromkeys(chain(root_nodes, root_edges), 1 << position[self.root])
        dv: dict[str, int] = {}
        for (_, target), delta in self.spans.items():
            bit = 1 << position[target]
            for x in chain(delta.created_edges, delta.created_nodes):
                cv[x] = cv.get(x, 0) | bit
            for x in chain(delta.deleted_nodes, delta.deleted_edges):
                dv[x] = dv.get(x, 0) | bit
        self.union = Model._wrap(store, tg, nodes, edges)
        self.cv, self.dv = cv, dv
        return True

    # -- spans ------------------------------------------------------------

    def max_preserving_mod(self, i: VersionId, j: VersionId) -> ModelModification:
        """The span from version i to version j that preserves their intersection."""
        return ModelModification.between(self.version(i), self.version(j))


class _Versions(Mapping):
    """A history's versions as a read-only mapping from id to ``Model``,
    each built on access; ``items`` and ``values`` are generators that
    build them in one ``replay``. Unknown ids raise KeyError."""

    __slots__ = ("_history",)

    def __init__(self, history: ModelVersioning):
        self._history = history

    def __getitem__(self, version_id: VersionId) -> Model:
        if version_id not in self._history.position:
            raise KeyError(version_id)
        return self._history.version(version_id)

    def __contains__(self, version_id: object) -> bool:
        return version_id in self._history.position

    def __iter__(self) -> Iterator[VersionId]:
        return iter(self._history.ids)

    def __len__(self) -> int:
        return len(self._history.ids)

    def items(self) -> Iterator[tuple[VersionId, Model]]:
        h = self._history
        wrap, store, tg = Model._wrap, h.store, h.type_graph
        for vid, members in h.replay(h.root_members, _edit):
            yield vid, wrap(store, tg, *members)

    def values(self) -> Iterator[Model]:
        for _, model in self.items():
            yield model


def _step(members: tuple, delta: ModelModification, edit: Callable) -> tuple:
    """A (nodes, edges) pair carried across a span: ``edit`` applied to each
    kind with that kind's deleted and created ids."""
    nodes, edges = members
    return (edit(nodes, delta.deleted_nodes, delta.created_nodes),
            edit(edges, delta.deleted_edges, delta.created_edges))


def _edit(ids: frozenset[str], deleted: frozenset[str], created: frozenset[str]) -> frozenset[str]:
    """``ids`` without ``deleted`` and with ``created``: the same object when
    both are empty, so a kind that a span leaves alone shares its set."""
    if deleted:
        ids = ids - deleted
    if created:
        ids = ids | created
    return ids


def _closure(visit: Iterable[VersionId], position: dict, links: dict) -> list[int]:
    """For each version's position, the mask of the versions reachable
    from it over one or more ``links``. ``visit`` takes every version after
    the versions it links to: a topological order over parents, its
    reverse over successors."""
    masks = [0] * len(position)
    for v in visit:
        mask = 0
        for w in links[v]:
            j = position[w]
            mask |= masks[j] | (1 << j)
        masks[position[v]] = mask
    return masks


def _maxima(common: int, pre: list[int]) -> int:
    """The members of ``common`` that are ancestors of no other member.

    Takes the highest unvisited member, shadows its ancestors, and repeats
    until every member is visited or shadowed; a maximal member is never
    shadowed, so this holds for any numbering. Where id order is
    topological (the generator's ids up to ``v999``) every visited member
    is maximal: one round per merge base; elsewhere there may be more.
    """
    shadow = 0
    rest = common
    while rest:
        top = rest.bit_length() - 1
        shadow |= pre[top]
        rest &= ~(shadow | (1 << top))
    return common & ~shadow


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
