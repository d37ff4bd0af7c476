"""Exception types raised by the public API.

Everything derives from ModelError so callers (and the CLI) can treat
"the input or request was bad" uniformly; plain ValueError is reserved
for programming mistakes such as registering a duplicate element id.
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all domain errors."""


class DanglingEdge(ModelError):
    """An edge is present without one of its endpoint nodes."""

    def __init__(self, edge_id: str):
        super().__init__(f"edge {edge_id!r} lacks an endpoint node in the graph")
        self.edge_id = edge_id


class UnknownType(ModelError):
    """An element's type is not declared by the type graph."""

    def __init__(self, element_id: str):
        super().__init__(f"element {element_id!r} has a type the type graph does not declare")
        self.element_id = element_id


class TypeMismatch(ModelError):
    """An edge connects nodes whose types differ from its declared endpoint types."""

    def __init__(self, element_id: str):
        super().__init__(f"edge {element_id!r} violates its type's endpoint declaration")
        self.element_id = element_id


class TypeGraphMismatch(ModelError):
    """Two graphs that must share a type graph do not."""


class StoreMismatch(ModelError):
    """Two graphs that must share an element store do not."""


class CycleDetected(ModelError):
    """The modification relation of a versioning contains a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("modification cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class NoCommonRoot(ModelError):
    """Some version is not reachable from the declared root."""

    def __init__(self, unreachable: list[str]):
        super().__init__("versions not descended from the root: " + ", ".join(unreachable))
        self.unreachable = unreachable


class InvalidVersion(ModelError):
    """A version's model fails validation."""

    def __init__(self, version_id: str, cause: Exception):
        super().__init__(f"version {version_id!r} is invalid: {cause}")
        self.version_id = version_id
        self.cause = cause


class UnknownVersion(ModelError):
    """A version id is not part of the versioning."""

    def __init__(self, version_id: str):
        super().__init__(f"unknown version {version_id!r}")
        self.version_id = version_id


class SourceMismatch(ModelError):
    """Two modifications that must share a source model do not."""


class IncompleteStrategy(ModelError):
    """A merge strategy does not decide exactly the detected conflicts."""


class ImproperResult(ModelError):
    """A merge produced a graph with dangling edges."""


class TooManyConflicts(ModelError):
    """Strategy enumeration was asked to expand more conflicts than its bound."""

    def __init__(self, count: int, bound: int):
        super().__init__(f"{count} conflicts exceed the enumeration bound of {bound}")
        self.count = count
        self.bound = bound


class NotStructural(ModelError):
    """A multi-version query named something that is not an element of the fold."""

    def __init__(self, node_id: str):
        super().__init__(f"{node_id!r} is not an element of the multi-version model")
        self.node_id = node_id


class ParamError(ModelError):
    """Generator or benchmark parameters are out of range or malformed."""


class CorpusSyntaxError(ModelError):
    """A corpus, constraint, or parameter file is not well-formed."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ValidationError(ModelError):
    """File content is well-formed but semantically inconsistent."""


class BenchMismatch(ModelError):
    """The two benchmark execution modes disagreed on result counts."""
