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

from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Model
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
        self._lcp_table: dict[tuple[VersionId, VersionId], frozenset[VersionId]] | None = None
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
        if not self.ids:
            raise ValidationError("a versioning needs at least one version")
        for v in (self.root, *(v for pair in sorted(self.modifications) for v in pair)):
            if v not in self._succ:
                raise UnknownVersion(v)
        self._number()
        root_bit = 1 << self.position[self.root]
        missing = [v for v, m in zip(self.ids, self._pre) if not m & root_bit and v != self.root]
        if missing:
            raise NoCommonRoot(missing)

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

    def latest_common_predecessor_table(
        self,
    ) -> dict[tuple[VersionId, VersionId], frozenset[VersionId]]:
        """Merge-base sets for every unordered version pair, keyed (i, j) with i < j.

        Read by the per-version route only; the folded analyses use
        ``merge_partners`` and ``drawn_bases`` instead. One pass over all
        pairs: a set is non-empty exactly for partners, and holds the maxima
        of the pair's common ancestors, as ``drawn_bases`` draws them. Pairs
        with equal common ancestors share one frozenset.
        """
        if self._lcp_table is None:
            ids, pre, partners = self.ids, self._pre, self.merge_partners
            empty: frozenset[VersionId] = frozenset()
            bases_of: dict[int, frozenset[VersionId]] = {}
            table: dict[tuple[VersionId, VersionId], frozenset[VersionId]] = {}
            for a, i in enumerate(ids):
                pre_i, mine = pre[a], partners[a]
                for b in range(a + 1, len(ids)):
                    pair = (i, ids[b])
                    if not mine >> b & 1:
                        table[pair] = empty
                        continue
                    common = pre_i & pre[b]
                    bases = bases_of.get(common)
                    if bases is None:
                        bases = bases_of[common] = frozenset(self.ids_of(_maxima(common, pre)))
                    table[pair] = bases
            self._lcp_table = table
        return self._lcp_table


class ModelVersioning(VersionDag):
    """A version DAG whose versions are models over one element store;
    construction validates it (see ``validate``), so every instance is well
    formed.

    It holds its deltas, not its versions: the root's node and edge sets
    (``root_members``) and, in ``spans``, each modification's
    ``ModelModification``. The models it is given are read by validation
    and then dropped. ``versions`` is a read-only mapping that builds each
    model on access: ``version`` replays the deltas along one path from the
    root, through each version's least parent, and ``replay`` builds every
    version in id order, each from that parent's member sets.
    """

    def __init__(
        self,
        versions: Mapping[VersionId, Model],
        modifications: Iterable[tuple[VersionId, VersionId]],
        root: VersionId,
    ):
        self._given: dict[VersionId, Model] | None = dict(sorted(versions.items()))
        super().__init__(self._given, modifications, root)
        self._given = None

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
        on the root's members and the spans' deltas.

        Unlike Model equality this does not require store identity, so a
        versioning equals its serialization round trip.
        """
        if not isinstance(other, ModelVersioning):
            return NotImplemented
        return (
            self.root == other.root
            and self.modifications == other.modifications
            and self.ids == other.ids
            and self.type_graph == other.type_graph
            and self.root_members == other.root_members
            and self.spans == other.spans
            and self.store.snapshot() == other.store.snapshot()
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the whole versioning; raises the first violation found.
        The DAG checks its shape first (``VersionDag.validate``). A valid
        history is proven valid by its deltas, which are kept as the fold's
        marks (``_valid_by_delta``); only when that fails, or the shape is
        bad, is every version checked in full, in id order, so
        ``InvalidVersion`` names the first broken one and wins over
        ``CycleDetected`` and ``NoCommonRoot``. It reads the given models
        during construction, and the replayed ones afterwards."""
        try:
            super().validate()
            shape_error = None
        except (CycleDetected, NoCommonRoot) as err:
            shape_error = err
        models = self._given if self._given is not None else dict(self.versions.items())
        ref = next(iter(models.values()))
        for vid, m in models.items():
            if m.store is not ref.store:
                raise StoreMismatch(f"version {vid!r} uses a different element store")
            if m.type_graph != ref.type_graph:
                raise InvalidVersion(vid, ValidationError("type graph differs between versions"))
        self.store, self.type_graph = ref.store, ref.type_graph
        if shape_error is None and self._valid_by_delta(models):
            return
        for vid, m in models.items():
            try:
                core.validate_model(m)
            except Exception as err:
                raise InvalidVersion(vid, err) from err
        if shape_error is not None:
            raise shape_error

    def _valid_by_delta(self, models: Mapping[VersionId, Model]) -> bool:
        """Whether a history of valid shape is valid, proven without
        visiting a version in full; False when a version is invalid.

        The history's first span runs from the empty model to the root,
        and then one span per modification. Types are checked once per
        element of the union of the versions. That union is every span's
        created elements, which is exact because the shape check has proven
        that every version descends from the root: on a path from the root
        to a version that holds an element, the first span whose target
        holds it creates it.

        Properness holds on the empty model and carries across a span
        (a, b) when every edge created in b has both endpoints in b and no
        node deleted from a keeps an incident edge in b; by induction from
        the empty model it holds for every version.

        What the history keeps is set here: ``spans`` maps each
        modification to its span; ``union`` is the union as a ``Model``;
        ``cv`` and ``dv`` map each element to the mask of the versions that
        create and delete it (span (a, b) marks at b what b adds to a and
        what it drops); and ``root_members``, from which ``version`` and
        ``replay`` start."""
        store, tg, root = self.store, self.type_graph, models[self.root]
        between = ModelModification.between
        self.spans = {(a, b): between(models[a], models[b]) for a, b in self.modifications}
        spans = [(self.root, between(Model(store, tg), root))]
        spans += [(b, delta) for (_, b), delta in self.spans.items()]
        nodes = frozenset().union(*(delta.created_nodes for _, delta in spans))
        edges = frozenset().union(*(delta.created_edges for _, delta in spans))
        # The store's tables, read directly: a method call per element would
        # cost more than the check it makes.
        node_type, edge_decl = store._nodes, store._edges
        if not {node_type[n] for n in nodes} <= tg.node_types:
            return False
        edge_types = tg.edge_types
        incident: dict[str, list[str]] = {}
        for e in edges:
            t, src, dst = edge_decl[e]
            if t not in edge_types or (node_type[src], node_type[dst]) != edge_types[t]:
                return False
            incident.setdefault(src, []).append(e)
            incident.setdefault(dst, []).append(e)
        cv: dict[str, int] = {}
        dv: dict[str, int] = {}
        position = self.position
        for target, delta in spans:
            tgt, bit = models[target], 1 << position[target]
            if not all(tgt.node_set.issuperset(edge_decl[e][1:]) for e in delta.created_edges):
                return False
            if not all(tgt.edge_set.isdisjoint(incident.get(n, ())) for n in delta.deleted_nodes):
                return False
            for x in delta.created_edges.union(delta.created_nodes):
                cv[x] = cv.get(x, 0) | bit
            for x in delta.deleted_nodes.union(delta.deleted_edges):
                dv[x] = dv.get(x, 0) | bit
        self.union = Model(store, tg, nodes, edges)
        self.cv, self.dv = cv, dv
        self.root_members = (root.node_set, root.edge_set)
        return True

    # -- spans ------------------------------------------------------------

    def max_preserving_mod(self, i: VersionId, j: VersionId) -> ModelModification:
        """The span from version i to version j that preserves their intersection."""
        return ModelModification.between(self.version(i), self.version(j))


class _Versions(Mapping):
    """A history's versions as a read-only mapping from id to ``Model``,
    each built on access; ``items`` and ``values`` build them in one
    ``replay``. Unknown ids raise KeyError."""

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

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self) -> Iterator[tuple[VersionId, Model]]:
        h = self._mapping._history
        wrap, store, tg = Model._wrap, h.store, h.type_graph
        for vid, members in h.replay(h.root_members, _edit):
            yield vid, wrap(store, tg, *members)


class _Values(ValuesView):
    def __iter__(self) -> Iterator[Model]:
        return (model for _, model in _Items(self._mapping))


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
