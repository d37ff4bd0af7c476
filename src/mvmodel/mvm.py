"""Folding a version history into a single multi-version graph.

The folded graph is the union of all versions: every element any
version contains, over the shared store and type graph. Which versions
contain an element is not stored per element but derived from creation
and deletion marks on the version DAG: an element is present in every
version that descends from one of its creation versions with none of its
deletion versions in between. The union and the marks are recorded by
the history's validation. The fold reads no version's model, only the
``VersionDag``: every version set, the marks included, is a bitmask whose
bit k stands for the DAG's k-th id, and its ancestor and descendant masks
give ``reach``.
"""

from __future__ import annotations

from .core import Model
from .errors import NotStructural, UnknownVersion
from .versioning import ModelModification, ModelVersioning, VersionDag


class MultiVersionModel:
    """One graph standing for a whole version history.

    ``union`` holds every element of every version; ``cv`` and ``dv`` map
    each element to the mask of the versions that create and delete it.
    Presence is derived from these marks on demand, as a mask too, and
    memoised.
    """

    def __init__(
        self,
        union: Model,
        dag: VersionDag,
        cv: dict[str, int],
        dv: dict[str, int],
    ):
        self.union = union
        self.dag = dag
        self.cv = cv
        self.dv = dv
        self._presence_cache: dict[str, int] = {}

    def presence(self, element: str) -> int:
        """The mask of the versions containing the element: the reach from
        its creation versions, with its deletion versions as barriers."""
        cached = self._presence_cache.get(element)
        if cached is not None:
            return cached
        if element not in self.cv:
            raise NotStructural(element)
        result = self.dag.reach(self.cv[element], self.dv.get(element, 0))
        self._presence_cache[element] = result
        return result

    def proj(self, version_id: str) -> Model:
        """Recover one version's model from the folded form."""
        if version_id not in self.dag.position:
            raise UnknownVersion(version_id)
        bit = 1 << self.dag.position[version_id]
        nodes = [x for x in self.union.node_set if self.presence(x) & bit]
        edges = [x for x in self.union.edge_set if self.presence(x) & bit]
        return Model(self.union.store, self.union.type_graph, nodes, edges)

    def proj_delta(self, i: str, j: str) -> ModelModification:
        """The span between two recovered versions."""
        return ModelModification(self.proj(i), self.proj(j), i, j)


def comb(versioning: ModelVersioning) -> MultiVersionModel:
    """Fold a version history into a multi-version model.

    Validating the history already built the union of its versions as a
    ``Model`` and recorded the marks (see ``ModelVersioning._valid_by_delta``):
    the root's elements are created at the root, and every modification
    marks what it adds as created and what it removes as deleted at its
    target. The fold only wraps them, with the versioning as its DAG, so
    the folds of one history share its union and that union's index.
    """
    return MultiVersionModel(versioning.union, versioning, versioning.cv, versioning.dv)
