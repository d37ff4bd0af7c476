"""Typed graphs, model validation, and the monomorphism matcher."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmodel import (
    DanglingEdge,
    ElementStore,
    Match,
    Model,
    Pattern,
    TypeGraph,
    TypeGraphMismatch,
    TypeMismatch,
    UnknownType,
    ValidationError,
    find_monomorphisms,
    pcheck,
    validate_model,
    validate_pattern,
)
from conftest import build_store, full_model, make_pattern
from oracles import brute_force_monomorphisms

CLS_TG = TypeGraph(node_types={"Class"}, edge_types={"superclass": ("Class", "Class")})
AB_TG = TypeGraph(
    node_types={"A", "B"},
    edge_types={"a2a": ("A", "A"), "a2b": ("A", "B"), "b2b": ("B", "B")},
)


def test_type_graph_rejects_shared_namespace():
    with pytest.raises(ValueError):
        TypeGraph(node_types={"T"}, edge_types={"T": ("T", "T")})


def test_type_graph_rejects_undeclared_endpoint_type():
    with pytest.raises(ValueError):
        TypeGraph(node_types={"A"}, edge_types={"e": ("A", "B")})


def test_type_graph_value_equality():
    a = TypeGraph({"A", "B"}, {"e": ("A", "B")})
    b = TypeGraph(["B", "A"], {"e": ("A", "B")})
    assert a == b and hash(a) == hash(b)
    assert a != TypeGraph({"A", "B"}, {"e": ("B", "A")})


def test_store_rejects_duplicate_and_dangling():
    store = ElementStore()
    store.add_node("n", "A")
    with pytest.raises(ValueError):
        store.add_node("n", "A")
    with pytest.raises(ValueError):
        store.add_edge("n", "a2a", "n", "n")
    with pytest.raises(ValueError):
        store.add_edge("e", "a2a", "n", "missing")
    store.add_edge("e", "a2a", "n", "n")
    with pytest.raises(ValueError):
        store.add_edge("e", "a2a", "n", "n")


def test_model_requires_registered_ids():
    store = build_store(AB_TG, {"x": "A"}, {})
    with pytest.raises(ValueError):
        Model(store, AB_TG, {"y"}, set())
    with pytest.raises(ValueError):
        Model(store, AB_TG, {"x"}, {"x"})


def _unhashable_message() -> str:
    with pytest.raises(TypeError) as err:
        frozenset([[]])
    return str(err.value)


@pytest.mark.parametrize("one_shot", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("nodes, edges, kind, message", [
    (["x", "ghost"], [], ValueError, "'ghost' is not a registered node"),
    (["x", "y"], ["e", "ghost"], ValueError, "'ghost' is not a registered edge"),
    (["x", "e"], [], ValueError, "'e' is not a registered node"),
    (["x", "x"], ["x"], ValueError, "'x' is not a registered edge"),
    (["x", []], [], TypeError, None),
    (["x", "y"], ["e", []], TypeError, None),
    # The least unregistered id is named, wherever it stands in the input
    # and however far the input was read before the first miss.
    (["x", "g2", "y", "g1"], [], ValueError, "'g1' is not a registered node"),
    (["g1", "x", "g2"], [], ValueError, "'g1' is not a registered node"),
    (["x", "ghost"], ["phantom"], ValueError, "'ghost' is not a registered node"),
    # Every id is hashed before any is found unregistered, as sets of
    # both inputs are built first.
    (["ghost"], [[]], TypeError, None),
], ids=["node", "edge", "edge-as-node", "node-as-edge", "unhashable-node", "unhashable-edge",
        "least-node", "first-miss-least", "node-before-edge", "unhashable-edge-before-node"])
def test_model_pins_the_error_for_each_bad_id(nodes, edges, kind, message, one_shot):
    store = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("a2a", "x", "y")})
    if one_shot:
        nodes, edges = iter(nodes), (e for e in edges)
    with pytest.raises(kind) as err:
        Model(store, AB_TG, nodes, edges)
    assert type(err.value) is kind
    assert str(err.value) == (message or _unhashable_message())


def test_model_equality_is_store_identity_plus_id_sets():
    store = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("a2a", "x", "y")})
    m1 = Model(store, AB_TG, {"x", "y"}, {"e"})
    m2 = Model(store, AB_TG, {"x", "y"}, {"e"})
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1 != Model(store, AB_TG, {"x", "y"}, set())
    other = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("a2a", "x", "y")})
    assert m1 != Model(other, AB_TG, {"x", "y"}, {"e"})


def test_model_equals_itself_without_comparing_id_sets():
    """The identity shortcut skips the set comparison; distinct models with
    equal sets still compare equal, and one over another store does not."""
    compared = []

    class CountingSet(frozenset):
        def __eq__(self, other):
            compared.append(other)
            return frozenset.__eq__(self, other)

        __hash__ = frozenset.__hash__

    store = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("a2a", "x", "y")})
    m1 = Model(store, AB_TG, {"x", "y"}, {"e"})
    m1.node_set = CountingSet(m1.node_set)
    assert m1 == m1 and not compared
    twin = Model(store, AB_TG, {"x", "y"}, {"e"})
    assert twin is not m1 and m1 == twin and compared
    other = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("a2a", "x", "y")})
    assert m1 != Model(other, AB_TG, {"x", "y"}, {"e"})


def test_validate_model_accepts_well_typed_graph():
    store = build_store(AB_TG, {"x": "A", "y": "B"}, {"e": ("a2b", "x", "y")})
    validate_model(full_model(store, AB_TG))


def test_validate_model_reports_dangling_edge_first():
    store = build_store(AB_TG, {"x": "A", "y": "B"}, {"e": ("a2b", "x", "y")})
    broken = Model(store, AB_TG, {"x"}, {"e"})
    with pytest.raises(DanglingEdge) as exc:
        validate_model(broken)
    assert exc.value.edge_id == "e"


def test_validate_model_unknown_node_type():
    tg = TypeGraph({"A"}, {})
    store = build_store(tg, {"x": "Z"}, {})
    with pytest.raises(UnknownType):
        validate_model(full_model(store, tg))


def test_validate_model_edge_type_mismatch():
    # edge registered with b2b but both endpoints typed A
    store = build_store(AB_TG, {"x": "A", "y": "A"}, {"e": ("b2b", "x", "y")})
    with pytest.raises(TypeMismatch) as exc:
        validate_model(full_model(store, AB_TG))
    assert exc.value.element_id == "e"


def test_validate_pattern_rejects_empty():
    with pytest.raises(ValidationError):
        validate_pattern(Pattern("empty", Model(ElementStore(), AB_TG)))


def test_two_superclasses_give_two_symmetric_matches():
    """A class extending two others is found once per assignment order."""
    host_store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    host = full_model(host_store, CLS_TG)
    pattern = make_pattern(
        "unique-superclass",
        CLS_TG,
        {"cls": "Class", "sup_a": "Class", "sup_b": "Class"},
        {"ext_a": ("superclass", "cls", "sup_a"), "ext_b": ("superclass", "cls", "sup_b")},
    )
    assert find_monomorphisms(pattern, host) == [
        Match(
            nodes=(("cls", "c1"), ("sup_a", "c2"), ("sup_b", "c3")),
            edges=(("ext_a", "e12"), ("ext_b", "e13")),
        ),
        Match(
            nodes=(("cls", "c1"), ("sup_a", "c3"), ("sup_b", "c2")),
            edges=(("ext_a", "e13"), ("ext_b", "e12")),
        ),
    ]


def test_matching_is_injective_on_nodes():
    # one host node with a self-loop must not satisfy a two-node pattern
    host_store = build_store(CLS_TG, {"c": "Class"}, {"loop": ("superclass", "c", "c")})
    host = full_model(host_store, CLS_TG)
    pattern = make_pattern(
        "edge", CLS_TG, {"a": "Class", "b": "Class"}, {"e": ("superclass", "a", "b")}
    )
    assert find_monomorphisms(pattern, host) == []


def test_self_loop_pattern_matches_self_loop():
    host_store = build_store(CLS_TG, {"c": "Class"}, {"loop": ("superclass", "c", "c")})
    host = full_model(host_store, CLS_TG)
    pattern = make_pattern("loop", CLS_TG, {"a": "Class"}, {"e": ("superclass", "a", "a")})
    assert find_monomorphisms(pattern, host) == [
        Match(nodes=(("a", "c"),), edges=(("e", "loop"),))
    ]


def test_parallel_pattern_edges_need_distinct_host_edges():
    pattern = make_pattern(
        "double",
        CLS_TG,
        {"a": "Class", "b": "Class"},
        {"e1": ("superclass", "a", "b"), "e2": ("superclass", "a", "b")},
    )
    single = build_store(
        CLS_TG, {"x": "Class", "y": "Class"}, {"h": ("superclass", "x", "y")}
    )
    assert find_monomorphisms(pattern, full_model(single, CLS_TG)) == []
    double = build_store(
        CLS_TG,
        {"x": "Class", "y": "Class"},
        {"h1": ("superclass", "x", "y"), "h2": ("superclass", "x", "y")},
    )
    matches = find_monomorphisms(pattern, full_model(double, CLS_TG))
    assert len(matches) == 2
    for m in matches:
        assert set(m.edge_map.values()) == {"h1", "h2"}
    # Three parallel host edges: every ordered pair of distinct ones.
    hs = ("h1", "h2", "h3")
    triple = full_model(
        build_store(
            CLS_TG, {"x": "Class", "y": "Class"}, {h: ("superclass", "x", "y") for h in hs}
        ),
        CLS_TG,
    )
    matches = find_monomorphisms(pattern, triple)
    pairs = [(m.edge_map["e1"], m.edge_map["e2"]) for m in matches]
    assert sorted(pairs) == [(a, b) for a in hs for b in hs if a != b]
    # Parallel self-loops take distinct host loops as well.
    loops = make_pattern(
        "loops",
        CLS_TG,
        {"a": "Class"},
        {"e1": ("superclass", "a", "a"), "e2": ("superclass", "a", "a")},
    )
    looped = full_model(
        build_store(CLS_TG, {"x": "Class"}, {h: ("superclass", "x", "x") for h in hs}),
        CLS_TG,
    )
    matches = find_monomorphisms(loops, looped)
    assert len(matches) == 6
    assert all(m.edge_map["e1"] != m.edge_map["e2"] for m in matches)
    # Masked: only h1 and h3 share a version, so only they pair up.
    presence = {"x": 0b11, "y": 0b11, "h1": 0b01, "h2": 0b10, "h3": 0b01}.__getitem__
    held = find_monomorphisms(pattern, triple, presence, 0b11)
    assert [(m.edge_map["e1"], m.edge_map["e2"], mask) for m, mask in held] == [
        ("h1", "h3", 0b01),
        ("h3", "h1", 0b01),
    ]


def test_matcher_rejects_foreign_type_graph():
    host = full_model(build_store(CLS_TG, {"c": "Class"}, {}), CLS_TG)
    pattern = make_pattern("a", AB_TG, {"n": "A"}, {})
    with pytest.raises(TypeGraphMismatch):
        find_monomorphisms(pattern, host)


def test_match_images_form_an_occurrence():
    """Every reported match maps pattern edges onto edges with mapped endpoints."""
    host_store = build_store(
        AB_TG,
        {"a1": "A", "a2": "A", "b1": "B"},
        {
            "e1": ("a2a", "a1", "a2"),
            "e2": ("a2b", "a1", "b1"),
            "e3": ("a2b", "a2", "b1"),
        },
    )
    host = full_model(host_store, AB_TG)
    pattern = make_pattern(
        "vee",
        AB_TG,
        {"p": "A", "q": "A", "r": "B"},
        {"x": ("a2a", "p", "q"), "y": ("a2b", "q", "r")},
    )
    matches = find_monomorphisms(pattern, host)
    assert matches
    for m in matches:
        nm, em = m.node_map, m.edge_map
        assert len(set(nm.values())) == len(nm)
        assert len(set(em.values())) == len(em)
        for pe, he in em.items():
            assert host.store.elem_type(he) == pattern.graph.store.elem_type(pe)
            ps, pt = pattern.graph.store.endpoint(pe)
            assert host.store.endpoint(he) == (nm[ps], nm[pt])


def test_matcher_keeps_node_types_on_an_unvalidated_host():
    """Candidates drawn along an edge are type-checked too: in a host that
    breaks the type graph, an a2b edge can end at an A node."""
    host_store = build_store(
        AB_TG, {"a1": "A", "a2": "A", "b1": "B"},
        {"bad": ("a2b", "a1", "a2"), "good": ("a2b", "a1", "b1")},
    )
    host = full_model(host_store, AB_TG)
    pattern = make_pattern("ab", AB_TG, {"p": "A", "r": "B"}, {"x": ("a2b", "p", "r")})
    assert [m.node_map for m in find_monomorphisms(pattern, host)] == [{"p": "a1", "r": "b1"}]


def test_matcher_checks_every_tie_of_a_node():
    """The last node of a triangle is tied to both placed nodes. Each host
    neighbour of one image has the node's degrees but no edge from the
    other image, so a tie filter that checks one tie per node lets it
    through to a node map without host edges."""
    pattern = make_pattern(
        "triangle", CLS_TG, {"a": "Class", "b": "Class", "c": "Class"},
        {"ab": ("superclass", "a", "b"), "bc": ("superclass", "b", "c"),
         "ac": ("superclass", "a", "c")},
    )
    edges = {"xy": ("superclass", "x", "y"), "xz1": ("superclass", "x", "z1"),
             "yz2": ("superclass", "y", "z2"), "uz1": ("superclass", "u", "z1"),
             "uz2": ("superclass", "u", "z2")}
    nodes = dict.fromkeys(["x", "y", "z1", "z2", "u"], "Class")
    host = full_model(build_store(CLS_TG, nodes, edges), CLS_TG)
    assert find_monomorphisms(pattern, host) == []
    edges["yz1"] = ("superclass", "y", "z1")
    closed = full_model(build_store(CLS_TG, nodes, edges), CLS_TG)
    assert [m.node_map for m in find_monomorphisms(pattern, closed)] == [
        {"a": "x", "b": "y", "c": "z1"}
    ]


def test_pcheck_is_matcher_output(data_dir):
    host_store = build_store(
        CLS_TG,
        {"c1": "Class", "c2": "Class", "c3": "Class"},
        {"e12": ("superclass", "c1", "c2"), "e13": ("superclass", "c1", "c3")},
    )
    host = full_model(host_store, CLS_TG)
    pattern = make_pattern(
        "q", CLS_TG,
        {"cls": "Class", "sup_a": "Class", "sup_b": "Class"},
        {"ext_a": ("superclass", "cls", "sup_a"), "ext_b": ("superclass", "cls", "sup_b")},
    )
    assert pcheck(host, pattern) == find_monomorphisms(pattern, host)


# -- randomized comparison against the exhaustive oracle -------------------

NODE_TYPES = ("A", "B")
EDGE_TYPES = {"a2a": ("A", "A"), "a2b": ("A", "B"), "b2b": ("B", "B")}


@st.composite
def typed_graph(draw, max_nodes: int, max_edges: int, prefix: str):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node_types = draw(
        st.lists(st.sampled_from(NODE_TYPES), min_size=n, max_size=n)
    )
    nodes = {f"{prefix}n{i}": t for i, t in enumerate(node_types)}
    by_type = {"A": [], "B": []}
    for nid, t in nodes.items():
        by_type[t].append(nid)
    edge_count = draw(st.integers(min_value=0, max_value=max_edges))
    edges = {}
    for i in range(edge_count):
        t = draw(st.sampled_from(sorted(EDGE_TYPES)))
        st_t, tg_t = EDGE_TYPES[t]
        if not by_type[st_t] or not by_type[tg_t]:
            continue
        src = draw(st.sampled_from(by_type[st_t]))
        tgt = draw(st.sampled_from(by_type[tg_t]))
        edges[f"{prefix}e{i}"] = (t, src, tgt)
    return nodes, edges


@given(host=typed_graph(max_nodes=7, max_edges=12, prefix="h"),
       pat=typed_graph(max_nodes=4, max_edges=5, prefix="q"))
@example(
    host=({"hn0": "A", "hn1": "A", "hn2": "B"},
          {"he0": ("a2a", "hn0", "hn1"), "he1": ("a2a", "hn0", "hn1"),
           "he2": ("a2a", "hn0", "hn1"), "he3": ("a2b", "hn0", "hn2")}),
    pat=({"qn0": "A", "qn1": "A", "qn2": "B"},
         {"qe0": ("a2a", "qn0", "qn1"), "qe1": ("a2b", "qn0", "qn2"),
          "qe2": ("a2a", "qn0", "qn1")}),
)
@settings(max_examples=300, deadline=None)
def test_matcher_agrees_with_brute_force(host, pat):
    """Up to 4 pattern nodes: a node can be tied to two placed nodes,
    alongside parallel edges and self-loops. The example interleaves the
    pattern's edge ids across its edge groups (qe0 and qe2 parallel, qe1
    apart) over three parallel host edges, so each edge's image must come
    from its own group and member: 6 matches."""
    host_model = full_model(build_store(AB_TG, *host), AB_TG)
    pattern = Pattern("q", full_model(build_store(AB_TG, *pat), AB_TG))
    assert find_monomorphisms(pattern, host_model) == brute_force_monomorphisms(
        pattern, host_model
    )


@given(host=typed_graph(max_nodes=6, max_edges=8, prefix="h"),
       pat=typed_graph(max_nodes=3, max_edges=3, prefix="q"))
@settings(max_examples=60, deadline=None)
def test_matching_is_invariant_under_host_renaming(host, pat):
    """Match results track ids, not insertion order or id spelling."""
    nodes, edges = host
    renamed_nodes = {"x" + n[::-1]: t for n, t in nodes.items()}
    renamed_edges = {
        "x" + e[::-1]: (t, "x" + s[::-1], "x" + g[::-1]) for e, (t, s, g) in edges.items()
    }
    pattern = Pattern("q", full_model(build_store(AB_TG, *pat), AB_TG))
    plain = find_monomorphisms(pattern, full_model(build_store(AB_TG, nodes, edges), AB_TG))
    renamed = find_monomorphisms(
        pattern, full_model(build_store(AB_TG, renamed_nodes, renamed_edges), AB_TG)
    )
    expect = sorted(
        Match.from_maps(
            {q: "x" + h[::-1] for q, h in m.node_map.items()},
            {q: "x" + h[::-1] for q, h in m.edge_map.items()},
        )
        for m in plain
    )
    assert renamed == expect


@given(pat=typed_graph(max_nodes=4, max_edges=5, prefix="q"),
       hosts=st.lists(typed_graph(max_nodes=6, max_edges=10, prefix="h"), min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_a_reused_plan_keeps_no_host_state(pat, hosts):
    """One Pattern object matched against host after host: the plan made
    on the first call is kept on the pattern's index, and every host, each
    with its own store over the same ids, gets its brute-force matches,
    twice over. A plan that kept a host's index would answer for the
    first host."""
    pattern = Pattern("q", full_model(build_store(AB_TG, *pat), AB_TG))
    plan = None
    for nodes, edges in hosts:
        host = full_model(build_store(AB_TG, nodes, edges), AB_TG)
        expected = brute_force_monomorphisms(pattern, host)
        assert find_monomorphisms(pattern, host) == expected
        assert find_monomorphisms(pattern, host) == expected
        if len(pattern.graph.node_set) <= len(host.node_set):
            plan = plan or pattern.graph.index().plan
            assert plan is not None and pattern.graph.index().plan is plan
