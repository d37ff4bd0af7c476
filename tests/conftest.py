from __future__ import annotations

import random
from pathlib import Path

import pytest

from mvmodel import (
    ElementStore,
    GeneratorParams,
    Model,
    ModelVersioning,
    Pattern,
    TypeGraph,
    generate_versioning,
    validate_model,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def build_store(type_graph: TypeGraph, nodes: dict[str, str], edges: dict[str, tuple[str, str, str]]) -> ElementStore:
    """Store from literal dicts: nodes id->type, edges id->(type, src, tgt)."""
    store = ElementStore()
    for n, t in nodes.items():
        store.add_node(n, t)
    for e, (t, s, g) in edges.items():
        store.add_edge(e, t, s, g)
    return store


def full_model(store: ElementStore, type_graph: TypeGraph) -> Model:
    return Model(store, type_graph, store.node_ids(), store.edge_ids())


def read_encoding(doc: dict) -> Model:
    """Read an ``mv-encoding/1`` document back as one model over its own
    type graph; ``validate_model`` raises if it is not a valid typed graph."""
    tg = doc["type_graph"]
    type_graph = TypeGraph(
        tg["node_types"], {t: (d["source"], d["target"]) for t, d in tg["edge_types"].items()}
    )
    edges = {e: (d["type"], d["source"], d["target"]) for e, d in doc["edges"].items()}
    model = full_model(build_store(type_graph, doc["nodes"], edges), type_graph)
    validate_model(model)
    return model


def assert_one_numbering(versioning: ModelVersioning) -> None:
    """``position`` numbers the versions in id order, the numbering of
    every version-set mask's bits, and ``order`` is a topological order
    of the same versions."""
    ids = versioning.ids
    assert list(ids) == sorted(ids)
    assert versioning.position == {v: k for k, v in enumerate(ids)}
    at = {v: k for k, v in enumerate(versioning.order)}
    assert sorted(at) == list(ids)
    assert all(at[a] < at[b] for a, b in versioning.modifications)


def make_pattern(name: str, type_graph: TypeGraph, nodes: dict[str, str], edges: dict[str, tuple[str, str, str]]) -> Pattern:
    store = build_store(type_graph, nodes, edges)
    return Pattern(name, full_model(store, type_graph))


def rename_versions(versioning: ModelVersioning, seed: int) -> ModelVersioning:
    """The same history with version ids shuffled, so that id order is not a
    topological order; the root gets the id that sorts last."""
    others = [v for v in versioning.ids if v != versioning.root]
    random.Random(seed).shuffle(others)
    new = {v: f"w{k:03d}" for k, v in enumerate(others)}
    new[versioning.root] = "z_root"
    return ModelVersioning(
        {new[v]: m for v, m in versioning.versions.items()},
        {(new[a], new[b]) for a, b in versioning.modifications},
        new[versioning.root],
    )


def merge_history(seed: int) -> ModelVersioning:
    """A generated history with two-parent versions and renamed ids."""
    params = GeneratorParams(
        seed=seed,
        base_size=6,
        branch_factor=2 + seed % 2,
        version_count=12 + seed % 7,
        edits_per_modification=2,
        deletion_bias=0.4,
    )
    return rename_versions(generate_versioning(params), seed)
