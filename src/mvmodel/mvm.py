"""Folding a version history into a single multi-version graph.

The folded graph is the union of all versions: every element any
version contains, over the shared store and type graph. Which versions
contain an element is not stored per element as a plain set but derived
from creation and deletion marks on the version DAG: an element is
present in every version reachable along successor paths from one of its
creation versions without touching one of its deletion versions.
"""

from __future__ import annotations

from collections import deque

from .core import Model, graph_union
from .errors import NotStructural, UnknownVersion
from .versioning import ModelModification, ModelVersioning


class MultiVersionModel:
    """One graph standing for a whole version history.

    ``union`` holds every element of every version. The version DAG is
    kept as plain adjacency (successor map) and per-element
    creation/deletion version sets; presence is derived on demand and
    memoised.
    """

    __slots__ = (
        "union",
        "versioning",
        "version_ids",
        "suc",
        "cv",
        "dv",
        "node_elements",
        "edge_elements",
        "_presence_cache",
    )

    def __init__(
        self,
        union: Model,
        versioning: ModelVersioning,
        suc: dict[str, tuple[str, ...]],
        cv: dict[str, frozenset[str]],
        dv: dict[str, frozenset[str]],
    ):
        self.union = union
        self.versioning = versioning
        self.version_ids = tuple(versioning.versions)
        self.suc = suc
        self.cv = cv
        self.dv = dv
        self.node_elements = tuple(sorted(union.node_set))
        self.edge_elements = tuple(sorted(union.edge_set))
        self._presence_cache: dict[str, frozenset[str]] = {}

    def reach(self, starts: frozenset[str], barriers: frozenset[str]) -> frozenset[str]:
        """Versions reachable along successor edges from ``starts``.

        Barrier versions are excluded, start versions included, and no
        path continues through a barrier.
        """
        seen = set(starts - barriers)
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in self.suc.get(v, ()):
                if w not in seen and w not in barriers:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def presence(self, element: str) -> frozenset[str]:
        """Versions containing the element: the reach from its creation
        versions, with its deletion versions as barriers."""
        cached = self._presence_cache.get(element)
        if cached is not None:
            return cached
        if element not in self.cv:
            raise NotStructural(element)
        result = self.reach(self.cv[element], self.dv.get(element, frozenset()))
        self._presence_cache[element] = result
        return result

    def reset_presence_cache(self) -> None:
        self._presence_cache = {}

    def proj(self, version_id: str) -> Model:
        """Recover one version's model from the folded form."""
        if version_id not in self.versioning.versions:
            raise UnknownVersion(version_id)
        nodes = [x for x in self.node_elements if version_id in self.presence(x)]
        edges = [x for x in self.edge_elements if version_id in self.presence(x)]
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

    suc = {v: versioning.successors(v) for v in versioning.versions}
    return MultiVersionModel(
        union,
        versioning,
        suc,
        {x: frozenset(vs) for x, vs in cv.items()},
        {x: frozenset(vs) for x, vs in dv.items()},
    )
