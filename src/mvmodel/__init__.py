"""Typed-graph models, version histories, and multi-version analyses.

The package keeps every version of a model inside one graph: versions are
id sets over a shared element store, histories are acyclic successor
graphs of maximally preserving modifications, and the fold (the union of
all versions plus presence marks) lets constraint checking,
merge-conflict detection, and merge previews run once over the whole
history instead of once per version.
"""

from .analysis import mcheck_mv, pcheck_m_mv, pcheck_mv
from .baseline import svm_check, svm_conflicts, svm_merge_check
from .bench import BenchParams, BenchReport, parse_bench_params, run_bench
from .core import (
    ElementStore,
    Match,
    Model,
    Pattern,
    TypeGraph,
    find_monomorphisms,
    pcheck,
    validate_model,
    validate_pattern,
)
from .corpus import (
    parse_constraints,
    parse_corpus,
    write_constraints,
    write_corpus,
    write_model,
    write_mv_encoding,
)
from .errors import (
    BenchMismatch,
    CorpusSyntaxError,
    CycleDetected,
    DanglingEdge,
    ImproperResult,
    IncompleteStrategy,
    InvalidVersion,
    ModelError,
    NoCommonRoot,
    NotStructural,
    ParamError,
    StoreMismatch,
    TooManyConflicts,
    TypeGraphMismatch,
    TypeMismatch,
    UnknownType,
    UnknownVersion,
    ValidationError,
)
from .generate import (
    GeneratorParams,
    generate_versioning,
    parse_generator_params,
    write_generator_params,
)
from .merge import (
    Decision,
    enumerate_strategies,
    insert_delete_conflicts,
    merge,
    merge_min,
)
from .mvm import MultiVersionModel, comb
from .oo import oo_constraint_patterns, oo_type_graph
from .reports import MergeConflictReport, MergeViolationReport, VersionedViolation
from .versioning import ModelModification, ModelVersioning, VersionDag

__version__ = "0.1.0"

__all__ = [
    "BenchMismatch",
    "BenchParams",
    "BenchReport",
    "CorpusSyntaxError",
    "CycleDetected",
    "DanglingEdge",
    "Decision",
    "ElementStore",
    "GeneratorParams",
    "ImproperResult",
    "IncompleteStrategy",
    "InvalidVersion",
    "Match",
    "MergeConflictReport",
    "MergeViolationReport",
    "Model",
    "ModelError",
    "ModelModification",
    "ModelVersioning",
    "MultiVersionModel",
    "NoCommonRoot",
    "NotStructural",
    "ParamError",
    "Pattern",
    "StoreMismatch",
    "TooManyConflicts",
    "TypeGraph",
    "TypeGraphMismatch",
    "TypeMismatch",
    "UnknownType",
    "UnknownVersion",
    "ValidationError",
    "VersionDag",
    "VersionedViolation",
    "comb",
    "enumerate_strategies",
    "find_monomorphisms",
    "generate_versioning",
    "insert_delete_conflicts",
    "mcheck_mv",
    "merge",
    "merge_min",
    "oo_constraint_patterns",
    "oo_type_graph",
    "parse_bench_params",
    "parse_constraints",
    "parse_corpus",
    "parse_generator_params",
    "pcheck",
    "pcheck_m_mv",
    "pcheck_mv",
    "run_bench",
    "svm_check",
    "svm_conflicts",
    "svm_merge_check",
    "validate_model",
    "validate_pattern",
    "write_constraints",
    "write_corpus",
    "write_generator_params",
    "write_model",
    "write_mv_encoding",
]
