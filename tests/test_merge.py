"""Conflict detection and three-way merging of modification pairs."""

from __future__ import annotations

import importlib
import itertools

import pytest
from hypothesis import given, settings

from mvmodel import (
    Decision,
    ImproperResult,
    IncompleteStrategy,
    Model,
    ModelModification,
    TooManyConflicts,
    TypeGraph,
    enumerate_strategies,
    find_monomorphisms,
    insert_delete_conflicts,
    merge,
    merge_min,
    pcheck,
    validate_model,
)
from conftest import build_store, make_pattern
from mvmodel.versioning import LCP_MODES
from oracles import id_set_conflicts, merge_triplets
from strategies import histories

TG = TypeGraph({"N"}, {"link": ("N", "N")})
span = ModelModification.between


def four_node_store():
    return build_store(
        TG,
        {"n1": "N", "n2": "N", "n3": "N", "n4": "N"},
        {
            "e13": ("link", "n1", "n3"),
            "e12": ("link", "n1", "n2"),
            "e42": ("link", "n4", "n2"),
        },
    )


def fork():
    """Left deletes n4; right creates an edge out of n4. Classic clash."""
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3", "n4"}, set())
    left = Model(store, TG, {"n1", "n2", "n3"}, {"e13"})
    right = Model(store, TG, {"n1", "n2", "n3", "n4"}, {"e12", "e42"})
    m1 = span(base, left)
    m2 = span(base, right)
    return base, m1, m2


def test_insert_delete_conflicts_finds_the_fork_clash():
    base, m1, m2 = fork()
    assert insert_delete_conflicts(base, m1, m2) == [("e42", "n4")]
    # symmetric in the argument order
    assert insert_delete_conflicts(base, m2, m1) == [("e42", "n4")]


def test_elements_both_sides_delete_are_no_conflict():
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3", "n4"}, {"e13"})
    # Both sides drop n3 and e13; left also drops n4, which right links to n2.
    left = Model(store, TG, {"n1", "n2"}, set())
    right = Model(store, TG, {"n1", "n2", "n4"}, {"e42"})
    m1 = span(base, left)
    m2 = span(base, right)
    assert insert_delete_conflicts(base, m1, m2) == [("e42", "n4")]


def test_insert_delete_conflicts_gives_one_key_per_deleted_endpoint():
    store = build_store(
        TG,
        {"n1": "N", "n2": "N"},
        {"e": ("link", "n1", "n2")},
    )
    base = Model(store, TG, {"n1", "n2"}, set())
    creator = span(base, Model(store, TG, {"n1", "n2"}, {"e"}))
    dropper = span(base, Model(store, TG, set(), set()))
    assert insert_delete_conflicts(base, creator, dropper) == [("e", "n1"), ("e", "n2")]


def test_a_created_self_loop_on_a_deleted_node_gives_one_key():
    store = build_store(TG, {"n1": "N", "n2": "N"}, {"loop": ("link", "n1", "n1")})
    base = Model(store, TG, {"n1", "n2"}, set())
    creator = span(base, Model(store, TG, {"n1", "n2"}, {"loop"}))
    dropper = span(base, Model(store, TG, {"n2"}, set()))
    assert insert_delete_conflicts(base, creator, dropper) == [("loop", "n1")]
    assert insert_delete_conflicts(base, dropper, creator) == [("loop", "n1")]


def test_an_edge_both_sides_create_over_a_node_both_delete_gives_one_key():
    """Two improper targets that each create e and delete its source n1
    find the same key from both sides; it is reported once."""
    store = build_store(TG, {"n1": "N", "n2": "N"}, {"e": ("link", "n1", "n2")})
    base = Model(store, TG, {"n1", "n2"}, set())
    m1 = span(base, Model(store, TG, {"n2"}, {"e"}))
    m2 = span(base, Model(store, TG, {"n2"}, {"e"}))
    assert insert_delete_conflicts(base, m1, m2) == [("e", "n1")]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_insert_delete_conflicts_equals_the_id_set_oracle(versioning):
    """On every merge triplet, in both lcp modes and both argument orders,
    the detection that reads each created edge once from the store gives
    the conflicts that set algebra on the spans' id sets gives."""
    for lcp in LCP_MODES:
        for i, j, c in merge_triplets(versioning, lcp):
            base = versioning.version(c)
            m1 = versioning.max_preserving_mod(c, i)
            m2 = versioning.max_preserving_mod(c, j)
            expected = id_set_conflicts(base, versioning.version(i), versioning.version(j))
            assert insert_delete_conflicts(base, m1, m2) == expected
            assert insert_delete_conflicts(base, m2, m1) == expected


def test_a_span_merged_with_itself_has_no_conflict():
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3"}, {"e12"})
    both = Model(store, TG, {"n1", "n3"}, set())
    m = span(base, both)
    assert insert_delete_conflicts(base, m, m) == []


def test_merge_without_conflicts_unions_changes():
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3", "n4"}, set())
    left = Model(store, TG, {"n1", "n2", "n3", "n4"}, {"e12"})
    right = Model(store, TG, {"n1", "n2", "n4"}, set())
    m1 = span(base, left)
    m2 = span(base, right)
    merged = merge(base, m1, m2, {})
    assert merged.node_set == {"n1", "n2", "n4"}
    assert merged.edge_set == {"e12"}
    validate_model(merged)


def test_merge_strategy_must_cover_conflicts_exactly():
    base, m1, m2 = fork()
    with pytest.raises(IncompleteStrategy):
        merge(base, m1, m2, {})
    with pytest.raises(IncompleteStrategy):
        merge(
            base,
            m1,
            m2,
            {
                ("e42", "n4"): Decision.REVERT_EDGE_CREATION,
                ("e13", "n1"): Decision.REVERT_EDGE_CREATION,
            },
        )


def test_merge_reads_decisions_by_their_string_values():
    """A strategy may decide with each Decision's string value; it merges
    as the Decision itself does."""
    base, m1, m2 = fork()
    for decision in Decision:
        by_value = merge(base, m1, m2, {("e42", "n4"): decision.value})
        assert by_value == merge(base, m1, m2, {("e42", "n4"): decision})


@pytest.mark.parametrize("value", [None, "revert", 1])
def test_merge_rejects_a_value_that_is_no_decision(monkeypatch, value):
    """A value that is neither a Decision nor its string value raises
    IncompleteStrategy naming its key, before the conflicts are detected."""
    base, m1, m2 = fork()
    merge_module = importlib.import_module("mvmodel.merge")
    monkeypatch.setattr(merge_module, "insert_delete_conflicts", None)
    with pytest.raises(IncompleteStrategy, match=r"\('e42', 'n4'\)"):
        merge(base, m1, m2, {("e42", "n4"): value})


def test_revert_edge_creation_drops_the_edge():
    base, m1, m2 = fork()
    merged = merge(base, m1, m2, {("e42", "n4"): Decision.REVERT_EDGE_CREATION})
    assert merged.node_set == {"n1", "n2", "n3"}
    assert merged.edge_set == {"e12", "e13"}


def test_revert_node_deletion_restores_only_the_node():
    base, m1, m2 = fork()
    merged = merge(base, m1, m2, {("e42", "n4"): Decision.REVERT_NODE_DELETION})
    assert merged.node_set == {"n1", "n2", "n3", "n4"}
    assert merged.edge_set == {"e12", "e13", "e42"}


def improper_fork():
    """Left keeps n1 and both its edges, but drops their other endpoints: an
    improper target. Right changes nothing, so there is no conflict."""
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3", "n4"}, set())
    broken = Model(store, TG, {"n1"}, {"e13", "e12"})
    m1 = span(base, broken)
    m2 = span(base, base)
    return base, m1, m2


def test_a_dangling_target_edge_makes_an_improper_result():
    """Only properness is checked on the merged model; the first dangling
    edge in id order is named."""
    base, m1, m2 = improper_fork()
    with pytest.raises(ImproperResult, match=r"^merge produced a dangling edge: 'e12'$"):
        merge_min(base, m1, m2)


def test_improper_targets_get_every_decision_map():
    """enumerate_strategies builds no trial merge: improper targets get
    every decision map too, and merge raises on each one that dangles."""
    base, m1, m2 = improper_fork()
    assert enumerate_strategies(base, m1, m2) == [{}]
    with pytest.raises(ImproperResult):
        merge(base, m1, m2, {})


def test_merge_min_reverts_every_conflicting_creation():
    base, m1, m2 = fork()
    merged = merge_min(base, m1, m2)
    assert merged.edge_set == {"e12", "e13"}
    assert merged == merge(base, m1, m2, {("e42", "n4"): Decision.REVERT_EDGE_CREATION})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_merge_min_is_merge_under_its_applied_strategy(versioning):
    """merge_min builds its model without calling merge; on every merge
    triplet it equals merge under the strategy that reverts every
    conflicting edge creation, and that strategy is the first one
    enumerate_strategies yields wherever the conflicts can be enumerated."""
    for i, j, c in merge_triplets(versioning, "all"):
        base = versioning.version(c)
        m1 = versioning.max_preserving_mod(c, i)
        m2 = versioning.max_preserving_mod(c, j)
        keys = insert_delete_conflicts(base, m1, m2)
        all_revert = dict.fromkeys(keys, Decision.REVERT_EDGE_CREATION)
        assert merge(base, m1, m2, all_revert) == merge_min(base, m1, m2)
        if len(keys) <= 16:
            assert enumerate_strategies(base, m1, m2)[0] == all_revert


@settings(derandomize=True, deadline=None, max_examples=200)
@given(histories())
def test_every_decision_map_merges_properly(versioning):
    """On valid spans every decision map gives a proper merge, so
    enumerate_strategies returns all 2**k of them, and each merged model
    is valid."""
    for i, j, c in merge_triplets(versioning, "all"):
        base = versioning.version(c)
        m1 = versioning.max_preserving_mod(c, i)
        m2 = versioning.max_preserving_mod(c, j)
        k = len(insert_delete_conflicts(base, m1, m2))
        if k <= 8:
            strategies = enumerate_strategies(base, m1, m2)
            assert len(strategies) == 2**k
            for strategy in strategies:
                validate_model(merge(base, m1, m2, strategy))


def test_merge_min_is_contained_in_every_strategy_result():
    base, m1, m2 = fork()
    low = merge_min(base, m1, m2)
    for strategy in enumerate_strategies(base, m1, m2):
        other = merge(base, m1, m2, strategy)
        assert low.node_set <= other.node_set
        assert low.edge_set <= other.edge_set


def test_enumerate_strategies_spans_the_decision_space():
    base, m1, m2 = fork()
    strategies = enumerate_strategies(base, m1, m2)
    assert len(strategies) == 2
    assert strategies == [
        {("e42", "n4"): Decision.REVERT_EDGE_CREATION},
        {("e42", "n4"): Decision.REVERT_NODE_DELETION},
    ]
    for s in strategies:
        validate_model(merge(base, m1, m2, s))


def test_enumerate_strategies_bound(monkeypatch):
    store = build_store(
        TG,
        {f"n{i}": "N" for i in range(6)},
        {f"e{i}": ("link", f"n{i}", f"n{i}") for i in range(5)},
    )
    base = Model(store, TG, {f"n{i}" for i in range(6)}, set())
    creator = span(base, Model(store, TG, {f"n{i}" for i in range(6)}, {f"e{i}" for i in range(5)}))
    dropper = span(base, Model(store, TG, {"n5"}, set()))
    assert len(insert_delete_conflicts(base, creator, dropper)) == 5
    detections = []

    def detected(*args):
        detections.append(args)
        return insert_delete_conflicts(*args)

    merge_module = importlib.import_module("mvmodel.merge")
    monkeypatch.setattr(merge_module, "insert_delete_conflicts", detected)
    assert len(enumerate_strategies(base, creator, dropper)) == 32
    assert len(detections) == 1
    with pytest.raises(TooManyConflicts):
        enumerate_strategies(base, creator, dropper, bound=4)


def test_minimal_merge_violations_are_strategy_independent():
    """What the smallest merge flags is flagged by every other strategy too."""
    store = four_node_store()
    base = Model(store, TG, {"n1", "n2", "n3", "n4"}, set())
    left = Model(store, TG, {"n1", "n2", "n3"}, {"e13", "e12"})
    right = Model(store, TG, {"n1", "n2", "n3", "n4"}, {"e42"})
    m1 = span(base, left)
    m2 = span(base, right)
    pattern = make_pattern(
        "fan-out",
        TG,
        {"a": "N", "b": "N", "c": "N"},
        {"x": ("link", "a", "b"), "y": ("link", "a", "c")},
    )
    floor = pcheck(merge_min(base, m1, m2), pattern)
    assert floor  # n1 links to both n2 and n3 in every outcome
    results = [
        set(pcheck(merge(base, m1, m2, s), pattern))
        for s in enumerate_strategies(base, m1, m2)
    ]
    assert set(floor) == set.intersection(*results)
