"""Folding a version history into a single multi-version graph.

The folded graph is the union of all versions: every element any
version contains, over the shared store and type graph. Which versions
contain an element is not stored per element but derived from creation
and deletion marks on the version DAG: an element is present in every
version that descends from one of its creation versions with none of its
deletion versions in between. Every version set is a bitmask over the
history's one numbering, ``ModelVersioning.order``.
"""

from __future__ import annotations

from .core import Model, graph_union
from .errors import NotStructural, UnknownVersion
from .versioning import ModelModification, ModelVersioning, bits


class MultiVersionModel:
    """One graph standing for a whole version history.

    ``union`` holds every element of every version; ``cv`` and ``dv`` map
    each element to the versions that create and delete it. Presence is
    derived from these marks on demand, as a bitmask over
    ``versioning.order``, and memoised.
    """

    def __init__(
        self,
        union: Model,
        versioning: ModelVersioning,
        cv: dict[str, frozenset[str]],
        dv: dict[str, frozenset[str]],
    ):
        self.union = union
        self.versioning = versioning
        self.cv = cv
        self.dv = dv
        self.node_elements = tuple(sorted(union.node_set))
        self.edge_elements = tuple(sorted(union.edge_set))
        self._presence_cache: dict[str, int] = {}
        self._below: list[int] | None = None

    def descendants(self, mask: int) -> int:
        """The versions at or below a member of ``mask``. Each version's
        descendant mask is built on first use and dropped with the
        presence cache."""
        below = self._below
        if below is None:
            versioning = self.versioning
            order, position = versioning.order, versioning.position
            below = self._below = [0] * len(order)
            for k in reversed(range(len(order))):
                for w in versioning.successors(order[k]):
                    below[k] |= below[position[w]]
                below[k] |= 1 << k
        out = 0
        while mask:  # lowest member first; members already covered are skipped
            out |= below[(mask & -mask).bit_length() - 1]
            mask &= ~out
        return out

    def reach(self, starts: int, barriers: int) -> int:
        """Each start's descendants (itself included) minus the descendants
        of the barriers below it (themselves included).

        With an element's creation versions as starts and its deletion
        versions as barriers this is the versions that hold the element;
        the other way round, the versions without it that have a strict
        ancestor with it. The closed form is exact on these marks because
        ``comb`` marks every version whose parents disagree on an element.
        """
        out = 0
        for s in bits(starts):
            below = self.descendants(1 << s)
            out |= below & ~self.descendants(barriers & below)
        return out

    def presence(self, element: str) -> int:
        """The mask of the versions containing the element: the reach from
        its creation versions, with its deletion versions as barriers."""
        cached = self._presence_cache.get(element)
        if cached is not None:
            return cached
        if element not in self.cv:
            raise NotStructural(element)
        mask = self.versioning.mask
        result = self.reach(mask(self.cv[element]), mask(self.dv.get(element, ())))
        self._presence_cache[element] = result
        return result

    def reset_presence_cache(self) -> None:
        self._presence_cache = {}
        self._below = None

    def proj(self, version_id: str) -> Model:
        """Recover one version's model from the folded form."""
        if version_id not in self.versioning.versions:
            raise UnknownVersion(version_id)
        bit = 1 << self.versioning.position[version_id]
        nodes = [x for x in self.node_elements if self.presence(x) & bit]
        edges = [x for x in self.edge_elements if self.presence(x) & bit]
        return Model(self.union.store, self.union.type_graph, nodes, edges)

    def proj_delta(self, i: str, j: str) -> ModelModification:
        """The span between two recovered versions."""
        return ModelModification(self.proj(i), self.proj(j), i, j)


def comb(versioning: ModelVersioning) -> MultiVersionModel:
    """Fold a version history into a multi-version model.

    Creation marks: the root's elements are created at the root; every
    modification marks the elements it adds as created at its target.
    Deletion marks: every modification marks the elements it removes as
    deleted at its target.
    """
    base_model = versioning.version(versioning.root)
    union = graph_union(list(versioning.versions.values()))

    cv: dict[str, set[str]] = {}
    dv: dict[str, set[str]] = {}
    root = versioning.root
    for x in base_model.node_set | base_model.edge_set:
        cv.setdefault(x, set()).add(root)
    for a, b in sorted(versioning.modifications):
        ma = versioning.version(a)
        mb = versioning.version(b)
        for x in (mb.node_set - ma.node_set) | (mb.edge_set - ma.edge_set):
            cv.setdefault(x, set()).add(b)
        for x in (ma.node_set - mb.node_set) | (ma.edge_set - mb.edge_set):
            dv.setdefault(x, set()).add(b)

    return MultiVersionModel(
        union,
        versioning,
        {x: frozenset(vs) for x, vs in cv.items()},
        {x: frozenset(vs) for x, vs in dv.items()},
    )
