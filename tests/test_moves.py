"""Graph moves: splittings, amalgamations, delays, shift, sign gadgets."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import flowinv

from flowinv.exactla import (
    IntMatrix,
    Ternary,
    cokernel,
    det,
    group_iso,
    pointed_equivalent,
    smith_diagonal,
)
from flowinv.graph import (
    MAX_VERTICES,
    GraphError,
    MultiGraph,
    is_isomorphic,
    make_edges,
    sources,
    transpose,
)
from flowinv.invariants import bowen_franks_matrix, franks_triple
from flowinv.moves import (
    DrinenVector,
    MoveError,
    Partition,
    SplitFactorization,
    VertexClassMap,
    apply_move,
    contract,
    elimination_class_map,
    eliminate_source,
    expand,
    expansion_class_map,
    in_amalgamate,
    in_delay,
    in_split,
    is_proper_in_partition,
    minus,
    minus1,
    out_amalgamate,
    out_delay,
    out_split,
    proper_in_partition_vector,
    shift,
    verify_vertex_class_map,
)


def _split_base() -> MultiGraph:
    # v carries a loop a and receives c from w; w receives b from v.
    return MultiGraph(
        ["v", "w"], [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")]
    )


def _singleton_in_partition(g: MultiGraph) -> Partition:
    return Partition.singletons(g, "in")


def _rand_graph(rng: random.Random, max_n: int = 4, max_mult: int = 2) -> MultiGraph:
    n = rng.randint(1, max_n)
    return MultiGraph.from_matrix(
        [[rng.randint(0, max_mult) for _ in range(n)] for _ in range(n)]
    )


def _rand_pis_graph(rng: random.Random, max_n: int = 4) -> MultiGraph:
    from flowinv.graph import classify_graph

    while True:
        g = _rand_graph(rng, max_n)
        r = classify_graph(g)
        if r.purely_infinite_simple and not r.has_sources:
            return g


def _rand_partition(rng: random.Random, g: MultiGraph, mode: str) -> Partition:
    classes = {}
    for v in range(g.n):
        edges = list(g.in_edges(v) if mode == "in" else g.out_edges(v))
        if not edges:
            continue
        rng.shuffle(edges)
        k = rng.randint(1, len(edges))
        cls = [[] for _ in range(k)]
        for i, e in enumerate(edges):
            cls[i % k].append(e.id)
        classes[v] = cls
    return Partition(classes)


def _bf_data(g: MultiGraph):
    group, project = cokernel(bowen_franks_matrix(g))
    return group, det(bowen_franks_matrix(g)), project([1] * g.n)


# ---------------------------------------------------------------------------
# Partitions.


def test_partition_validate_errors():
    g = _split_base()
    with pytest.raises(MoveError):
        Partition({0: [["b"]]}).validate(g, "in")  # b enters w, not v
    with pytest.raises(MoveError):
        Partition({0: [["a", "a"], ["c"]]}).validate(g, "in")
    with pytest.raises(MoveError):
        Partition({0: [["a"]]}).validate(g, "in")  # misses c
    with pytest.raises(MoveError):
        Partition({0: [["a", "c"]]}).validate(g, "in")  # w unlisted but fed
    with pytest.raises(MoveError):
        Partition({9: [["a"]]}).validate(g, "in")
    with pytest.raises(ValueError):
        Partition.trivial(g, "sideways")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: Partition({}).validate(g, "both"), "mode must be 'in' or 'out'"),
        (lambda g: Partition.trivial(g, "sideways"), "mode must be 'in' or 'out'"),
        (lambda g: Partition.singletons(g, ["in"]), "mode must be 'in' or 'out'"),
        (lambda g: DrinenVector("diagonal"), "kind must be 'source' or 'range'"),
        (lambda g: DrinenVector.from_edges(g, "in"), "kind must be 'source' or 'range'"),
    ],
    ids=["validate", "trivial", "singletons", "vector", "from-edges"],
)
def test_side_value_error_texts_are_pinned(call, message):
    with pytest.raises(ValueError) as info:
        call(_split_base())
    assert type(info.value) is ValueError and str(info.value) == message


def test_partition_helpers():
    g = _split_base()
    triv = Partition.trivial(g, "in")
    triv.validate(g, "in")
    assert triv.m(0) == 1 and triv.m(1) == 1
    single = Partition.singletons(g, "in")
    single.validate(g, "in")
    assert single.m(0) == 2 and single.m(1) == 1


# ---------------------------------------------------------------------------
# Splitting pictures.


def test_in_split_picture():
    g = _split_base()
    res = in_split(g, _singleton_in_partition(g))
    assert res.graph.labels == ("v#1", "v#2", "w#1")
    assert res.graph.incidence().to_lists() == [[1, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert res.blocks == ((0, 1), (2,))


def test_out_split_picture():
    g = _split_base()
    res = out_split(g, Partition.singletons(g, "out"))
    assert res.graph.labels == ("v#1", "v#2", "w#1")
    assert res.graph.incidence().to_lists() == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_split_results_share_one_type():
    # Both splittings return a SplitResult; only the in-split carries the
    # factorization.  Every field reads as it did when each had its own type.
    g = _split_base()
    res = out_split(g, Partition.singletons(g, "out"))
    assert res.factorization is None
    assert res.graph.labels == ("v#1", "v#2", "w#1")
    assert res.graph.incidence().to_lists() == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
    assert res.blocks == ((0, 1), (2,))
    assert res.class_map.vectors == ((1, 1, 0), (0, 0, 1))
    res_in = in_split(g, Partition.singletons(g, "in"))
    assert type(res_in) is type(res)
    assert res_in.blocks == ((0, 1), (2,))
    assert res_in.class_map.vectors == ((1, 0, 0), (0, 0, 1))
    assert res_in.factorization.r.to_lists() == [[1, 0, 1], [0, 1, 0]]
    assert res_in.factorization.s.to_lists() == [[1, 0], [1, 0], [0, 1]]


def test_trivial_splittings_change_nothing():
    rng = random.Random(31)
    for _ in range(30):
        g = _rand_graph(rng)
        assert in_split(g, Partition.trivial(g, "in")).graph == g
        assert out_split(g, Partition.trivial(g, "out")).graph == g


def test_in_split_factorization_identities():
    rng = random.Random(32)
    seen_sourcefree = 0
    for _ in range(100):
        g = _rand_graph(rng)
        if not g.edges:
            continue
        p = _rand_partition(rng, g, "in")
        res = in_split(g, p)
        fac = res.factorization
        assert (fac.r @ fac.s) == g.incidence()
        if not sources(g):
            seen_sourcefree += 1
            assert (fac.s @ fac.r) == res.graph.incidence()
    assert seen_sourcefree >= 20


def test_split_class_maps_verify():
    rng = random.Random(33)
    for _ in range(25):
        g = _rand_pis_graph(rng)
        pin = _rand_partition(rng, g, "in")
        res = in_split(g, pin)
        assert verify_vertex_class_map(g, res.graph, res.class_map)
        pout = _rand_partition(rng, g, "out")
        res2 = out_split(g, pout)
        assert verify_vertex_class_map(g, res2.graph, res2.class_map)


def test_split_duality_via_transpose():
    rng = random.Random(34)
    for _ in range(50):
        g = _rand_graph(rng)
        p = _rand_partition(rng, g, "out")
        lhs = out_split(g, p).graph
        rhs = transpose(in_split(transpose(g), p).graph)
        assert lhs == rhs


def test_split_labels_stay_distinct_under_collisions():
    g = MultiGraph(["v0", "v0#1"], [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")])
    res = in_split(g, Partition.singletons(g, "in"))
    assert len(set(res.graph.labels)) == res.graph.n


# ---------------------------------------------------------------------------
# Amalgamations.


def test_in_amalgamate_inverts_in_split():
    rng = random.Random(35)
    for _ in range(50):
        g = _rand_graph(rng)
        p = _rand_partition(rng, g, "in")
        res = in_split(g, p)
        assert in_amalgamate(res.graph, res.blocks) == g


def test_out_amalgamate_inverts_out_split():
    rng = random.Random(36)
    for _ in range(50):
        g = _rand_graph(rng)
        p = _rand_partition(rng, g, "out")
        res = out_split(g, p)
        assert out_amalgamate(res.graph, res.blocks) == g


def test_amalgamate_recovers_stripped_labels():
    g = _split_base()
    res = in_split(g, _singleton_in_partition(g))
    merged = in_amalgamate(res.graph, [["v#1", "v#2"], ["w#1"]])
    assert merged.labels == ("v", "w")
    assert merged == g


def test_in_amalgamate_rejects_mismatched_rows():
    g = MultiGraph.from_matrix([[1, 1], [1, 0]])
    with pytest.raises(MoveError) as exc:
        in_amalgamate(g, [[0, 1]])
    assert "different outgoing rows" in str(exc.value)


def test_out_amalgamate_rejects_mismatched_columns():
    g = MultiGraph.from_matrix([[1, 1], [1, 0]])
    with pytest.raises(MoveError) as exc:
        out_amalgamate(g, [[0, 1]])
    assert "different incoming columns" in str(exc.value)


def test_amalgamate_rejects_unfed_member():
    # Rows match (both zero), but vertex 2 has no incoming edges, so its
    # recovered partition class would be empty.
    g = MultiGraph.from_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(MoveError) as exc:
        in_amalgamate(g, [[0], [1, 2]])
    assert "no incoming edges" in str(exc.value)
    h = transpose(g)
    with pytest.raises(MoveError) as exc:
        out_amalgamate(h, [[0], [1, 2]])
    assert "no outgoing edges" in str(exc.value)


def test_amalgamate_rejects_bad_blocks():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    with pytest.raises(MoveError):
        in_amalgamate(g, [[0]])
    with pytest.raises(MoveError):
        in_amalgamate(g, [[0, 1], [1]])
    with pytest.raises(MoveError, match="^blocks must be nonempty$"):
        in_amalgamate(g, [["v0", "v1"], []])


# ---------------------------------------------------------------------------
# Source elimination, expansion, contraction.


def test_eliminate_source_picture():
    g = MultiGraph.from_matrix([[0, 0, 1], [0, 0, 1], [0, 1, 0]], labels=["v", "p1", "p2"])
    out = eliminate_source(g, "v")
    assert out.labels == ("p1", "p2")
    assert out.incidence().to_lists() == [[0, 1], [1, 0]]


def test_eliminate_source_errors():
    g = MultiGraph.from_matrix([[1, 1], [0, 0]])
    with pytest.raises(MoveError):
        eliminate_source(g, 0)  # has a loop, not a source
    with pytest.raises(MoveError):
        eliminate_source(MultiGraph.from_matrix([[0]]), 0)


def test_expand_picture():
    g = MultiGraph.from_matrix([[1, 0, 1], [1, 0, 0], [0, 1, 0]])
    out = expand(g, 0)
    assert out.labels == ("v0", "v1", "v2", "v0*")
    assert out.incidence().to_lists() == [
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 0, 1, 0],
    ]


def test_expand_of_a_point():
    out = expand(MultiGraph.from_matrix([[0]]), 0)
    assert out.incidence().to_lists() == [[0, 1], [0, 0]]


def test_contract_inverts_expand():
    rng = random.Random(37)
    for _ in range(40):
        g = _rand_graph(rng)
        v = rng.randrange(g.n)
        assert contract(expand(g, v), v, g.n) == g


def test_contract_errors():
    g = MultiGraph.from_matrix([[0, 2], [1, 0]])
    with pytest.raises(MoveError):
        contract(g, 0, 0)
    with pytest.raises(MoveError):
        contract(g, 0, 1)  # two outgoing edges at v0
    k = MultiGraph.from_matrix([[0, 1], [1, 1]])
    with pytest.raises(MoveError):
        contract(k, 0, 1)  # the bridge exists but v1 has in-degree 2
    h = MultiGraph.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(MoveError):
        contract(h, 0, 2)  # v0's edge points at v1, not v2


# ---------------------------------------------------------------------------
# Delays.


def test_zero_delay_is_identity():
    rng = random.Random(38)
    for _ in range(20):
        g = _rand_graph(rng)
        assert out_delay(g, DrinenVector.from_edges(g, "source")) == g
        assert in_delay(g, DrinenVector.from_edges(g, "range")) == g


def test_out_delay_chain_picture():
    g = MultiGraph(["v", "w"], [(0, 1, "a"), (1, 0, "b")])
    d = DrinenVector.from_edges(g, "source", {"a": 2})
    out = out_delay(g, d)
    assert out.labels == ("v", "v^1", "v^2", "w")
    assert out.incidence().to_lists() == [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ]


def test_out_delay_of_expansion_vector_is_expansion():
    rng = random.Random(39)
    for _ in range(30):
        g = _rand_graph(rng)
        v = rng.randrange(g.n)
        assert is_isomorphic(
            out_delay(g, DrinenVector.expansion_at(g, v)), expand(g, v)
        )


def test_delay_duality_via_transpose():
    rng = random.Random(40)
    for _ in range(50):
        g = _rand_graph(rng)
        edges = {e.id: rng.randint(0, 2) for e in g.edges}
        lhs = in_delay(g, DrinenVector.from_edges(g, "range", edges))
        gt = transpose(g)
        rhs = transpose(out_delay(gt, DrinenVector.from_edges(gt, "source", edges)))
        assert lhs == rhs


def test_delay_validation_errors():
    g = MultiGraph(["v", "w"], [(0, 1, "a"), (1, 0, "b")])
    with pytest.raises(MoveError):
        out_delay(g, DrinenVector("range"))
    with pytest.raises(MoveError):
        in_delay(g, DrinenVector("source"))
    with pytest.raises(MoveError):
        DrinenVector("source", edges={"zz": 1}).validate(g)
    with pytest.raises(MoveError):
        DrinenVector("source", edges={"a": -1}).validate(g)
    with pytest.raises(MoveError):
        # vertex value 0 but max outgoing edge delay 2 violates the max rule
        DrinenVector("source", edges={"a": 2}).validate(g)
    with pytest.raises(MoveError, match="^delay names vertex 5, graph has 2$"):
        out_delay(g, DrinenVector("source", {5: 1}))
    with pytest.raises(MoveError, match="^negative delay at vertex v$"):
        out_delay(g, DrinenVector("source", {0: -1}))
    with pytest.raises(ValueError):
        DrinenVector("diagonal")


def test_delay_past_the_vertex_budget_is_refused(monkeypatch):
    # The chains would add MAX_VERTICES - 1 vertices to the graph's two.
    g = MultiGraph(["v", "w"], [(0, 1, "a"), (1, 0, "b")])
    text = f"^{MAX_VERTICES + 1} vertices exceed the vertex budget of {MAX_VERTICES}$"
    with pytest.raises(MoveError, match=text):
        out_delay(g, DrinenVector.from_edges(g, "source", {"a": MAX_VERTICES - 1}))
    with pytest.raises(MoveError, match=text):
        in_delay(g, DrinenVector.from_edges(g, "range", {"b": MAX_VERTICES - 1}))
    # At a budget of 7, a delay to 7 vertices is made and one to 8 is not.
    monkeypatch.setattr(flowinv.graph, "MAX_VERTICES", 7)
    for d, kind in ((out_delay, "source"), (in_delay, "range")):
        assert d(g, DrinenVector.from_edges(g, kind, {"a": 3, "b": 2})).n == 7
        with pytest.raises(MoveError, match="^8 vertices exceed the vertex budget of 7$"):
            d(g, DrinenVector.from_edges(g, kind, {"a": 3, "b": 3}))


def test_proper_in_partition_vector_matches_split_invariants():
    rng = random.Random(41)
    for _ in range(25):
        g = _rand_pis_graph(rng)
        p = _rand_partition(rng, g, "in")
        assert is_proper_in_partition(g, p)  # no sinks, so always proper
        delayed = in_delay(g, proper_in_partition_vector(g, p))
        split = in_split(g, p).graph
        sg, sd, _ = _bf_data(split)
        dg, dd, _ = _bf_data(delayed)
        assert sd == dd
        assert group_iso(sg, dg)


def test_improper_partition_detected():
    # splitting the incoming edges of a sink is not proper
    g = MultiGraph(["v", "s"], [(0, 0, "a"), (0, 1, "b"), (0, 1, "c")])
    p = Partition({0: [["a"]], 1: [["b"], ["c"]]})
    p.validate(g, "in")
    assert not is_proper_in_partition(g, p)
    assert is_proper_in_partition(g, Partition({0: [["a"]], 1: [["b", "c"]]}))


# ---------------------------------------------------------------------------
# Shift.


def test_shift_picture():
    g = MultiGraph.from_matrix([[2, 1], [1, 1]])
    out = shift(g, 0, 1)
    assert out.incidence().to_lists() == [[1, 1], [1, 1]]


def test_shift_preserves_bowen_franks_data():
    rng = random.Random(42)
    found = 0
    while found < 30:
        g = _rand_graph(rng, max_n=4, max_mult=3)
        m = g.incidence().to_lists()
        pairs = [
            (v, w)
            for v in range(g.n)
            for w in range(g.n)
            if v != w
            and g.out_degree(v) > 0
            and g.out_degree(w) > 0
            and all(m[v][j] >= m[w][j] for j in range(g.n))
        ]
        if not pairs:
            continue
        found += 1
        v, w = rng.choice(pairs)
        out = shift(g, v, w)
        ga, da, ua = _bf_data(g)
        gb, db, ub = _bf_data(out)
        assert da == db
        assert group_iso(ga, gb)
        ta, tb = franks_triple(g), franks_triple(out)
        assert pointed_equivalent(ta.pointed, tb.pointed) is Ternary.YES


def test_shift_errors():
    g = MultiGraph.from_matrix([[2, 1], [1, 1]])
    with pytest.raises(MoveError):
        shift(g, 0, 0)
    with pytest.raises(MoveError) as exc:
        shift(g, 1, 0)
    assert "does not dominate" in str(exc.value)
    h = MultiGraph.from_matrix([[1, 1], [0, 0]])
    with pytest.raises(MoveError):
        shift(h, 0, 1)  # w is a sink


# ---------------------------------------------------------------------------
# Sign gadgets.


def test_minus_gadget_picture():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    out = minus(g)
    assert out.labels == ("v0", "v1", "w0", "w1")
    assert out.incidence().to_lists() == [
        [1, 1, 0, 0],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
    ]


def test_minus_flips_det_and_keeps_group():
    rng = random.Random(43)
    for _ in range(30):
        g = _rand_pis_graph(rng)
        ga, da, _ = _bf_data(g)
        gb, db, _ = _bf_data(minus(g))
        assert db == -da
        assert group_iso(ga, gb)


def test_minus1_flips_det_and_keeps_pointed_pair():
    rng = random.Random(44)
    for _ in range(30):
        g = _rand_pis_graph(rng)
        out = minus1(g)
        assert len(sources(out)) == len(sources(g)) + 1
        ta, tb = franks_triple(g), franks_triple(out)
        assert tb.determinant == -ta.determinant
        assert pointed_equivalent(ta.pointed, tb.pointed) is Ternary.YES


_TRIANGLE = MultiGraph(["w0", "w2", "x"], [(0, 1, "m"), (1, 0, "m.0"), (1, 2, "e"), (2, 2, "m.2")])


@pytest.mark.parametrize(
    "g, at, labels, added",
    [
        (
            MultiGraph.from_matrix([[2]]),
            None,
            ["v0", "w0", "w1", "w2"],
            [(0, 1, "m"), (1, 0, "m.0"), (1, 1, "m.1"), (1, 2, "m.2"), (2, 1, "m.3"),
             (2, 2, "m.4"), (3, 0, "m.5")],
        ),
        (
            MultiGraph.from_matrix([[1, 1], [1, 0]]),
            None,
            ["v0", "v1", "w0", "w1", "w2"],
            [(1, 2, "m"), (2, 1, "m.0"), (2, 2, "m.1"), (2, 3, "m.2"), (3, 2, "m.3"),
             (3, 3, "m.4"), (4, 1, "m.5")],
        ),
        (
            MultiGraph.from_matrix([[1, 1], [1, 0]]),
            0,
            ["v0", "v1", "w0", "w1", "w2"],
            [(0, 2, "m"), (2, 0, "m.0"), (2, 2, "m.1"), (2, 3, "m.2"), (3, 2, "m.3"),
             (3, 3, "m.4"), (4, 0, "m.5")],
        ),
        (
            _TRIANGLE,
            None,
            ["w0", "w2", "x", "w00", "w1", "w20"],
            [(2, 3, "m.1"), (3, 2, "m.3"), (3, 3, "m.4"), (3, 4, "m.5"), (4, 3, "m.6"),
             (4, 4, "m.7"), (5, 2, "m.8")],
        ),
        (
            _TRIANGLE,
            "w0",
            ["w0", "w2", "x", "w00", "w1", "w20"],
            [(0, 3, "m.1"), (3, 0, "m.3"), (3, 3, "m.4"), (3, 4, "m.5"), (4, 3, "m.6"),
             (4, 4, "m.7"), (5, 0, "m.8")],
        ),
    ],
)
def test_minus1_labels_and_edges_are_pinned(g, at, labels, added):
    # Written by the gadget code before minus1 became minus plus its source:
    # fresh labels and edge ids dodge the ones the graph already has.
    out = minus1(g, at)
    assert list(out.labels) == labels
    kept = [(e.source, e.target, e.id) for e in g.edges]
    assert [(e.source, e.target, e.id) for e in out.edges] == kept + added


def test_minus1_eliminates_to_minus():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    bigger = minus1(g, 1)
    assert sources(bigger) == [bigger.vertex("w2")]
    assert eliminate_source(bigger, "w2") == minus(g, 1)


def test_gadget_attachment_errors():
    line = MultiGraph.from_matrix([[0, 1], [0, 0]])
    with pytest.raises(MoveError):
        minus(line)  # no cycle anywhere
    g = MultiGraph.from_matrix([[1, 1], [0, 0]])
    with pytest.raises(MoveError):
        minus(g, 1)  # vertex 1 is not on a cycle


# ---------------------------------------------------------------------------
# Vertex class maps.


def test_elimination_class_map_verifies():
    g = MultiGraph.from_matrix([[0, 0, 1], [0, 0, 1], [0, 1, 0]])
    small = eliminate_source(g, 0)
    assert verify_vertex_class_map(small, g, elimination_class_map(g, 0))


@pytest.mark.parametrize(
    "rows, message",
    [([[1, 1], [1, 1]], "vertex v0 is not a source"), ([[0]], "cannot remove the only vertex")],
    ids=["not-a-source", "only-vertex"],
)
def test_elimination_class_map_refuses_what_eliminate_source_refuses(rows, message):
    g = MultiGraph.from_matrix(rows)
    with pytest.raises(MoveError, match=f"^{message}$"):
        eliminate_source(g, 0)
    with pytest.raises(MoveError, match=f"^{message}$"):
        elimination_class_map(g, 0)


def test_expansion_class_map_verifies():
    rng = random.Random(45)
    for _ in range(20):
        g = _rand_pis_graph(rng)
        v = rng.randrange(g.n)
        assert verify_vertex_class_map(g, expand(g, v), expansion_class_map(g, v))


@pytest.mark.parametrize(
    "seed, expected",
    [
        (
            7,
            {
                "elimination": ((0, 1, 0), (0, 0, 1)),
                "expansion": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                "in": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                "out": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 1)),
            },
        ),
        (
            36,
            {
                "elimination": ((1, 0, 0), (0, 0, 1)),
                "expansion": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                "in": ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
                "out": ((1, 0, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1)),
            },
        ),
    ],
)
def test_class_map_vectors_are_pinned(seed, expected):
    # Seeded 3-vertex graphs with one source: [[0, 1, 2], [0, 0, 2],
    # [0, 1, 2]] and [[0, 0, 1], [0, 0, 2], [2, 0, 0]].  The vectors were
    # written by the code before the class maps shared one builder.
    rng = random.Random(seed)
    g = _rand_graph(rng)
    (v,) = sources(g)
    got = {
        "elimination": elimination_class_map(g, v).vectors,
        "expansion": expansion_class_map(g, v).vectors,
        "in": in_split(g, _rand_partition(rng, g, "in")).class_map.vectors,
        "out": out_split(g, _rand_partition(rng, g, "out")).class_map.vectors,
    }
    assert got == expected


def test_verify_rejects_zero_map():
    from flowinv.moves import VertexClassMap

    g = MultiGraph.from_matrix([[4]])  # cokernel Z/3, nontrivial
    cmap = VertexClassMap(((0,),))
    assert not verify_vertex_class_map(g, g, cmap)


def test_verify_rejects_map_off_the_lattice():
    from flowinv.moves import VertexClassMap

    # I - A^t = [[1, -3], [-1, 0]] spans {(x, y) : x + y = 0 mod 3}, with
    # cokernel Z/3.  The map below is onto the cokernel and the groups agree,
    # but it sends the lattice column (1, -1) to (0, -1), off the lattice.
    g = MultiGraph.from_matrix([[0, 1], [3, 1]])
    cmap = VertexClassMap(((-1, -1), (-1, 0)))
    b = bowen_franks_matrix(g)
    assert cmap.as_matrix() @ b == IntMatrix.from_rows([[0, 3], [-1, 3]])
    assert smith_diagonal(cmap.as_matrix().hstack(b)) == (1, 1)
    assert not verify_vertex_class_map(g, g, cmap)


def test_verify_rejects_well_defined_map_between_unequal_groups():
    # x -> 2x carries the lattice 2Z of rose(3) into the lattice 4Z of
    # rose(5), so the map is well defined, but Z/2 is not Z/4.
    rose3, rose5 = MultiGraph.from_matrix([[3]]), MultiGraph.from_matrix([[5]])
    assert not verify_vertex_class_map(rose3, rose5, VertexClassMap(((2,),)))


def test_verify_rejects_bad_shape():
    from flowinv.moves import VertexClassMap

    g = MultiGraph.from_matrix([[4]])
    with pytest.raises(ValueError):
        verify_vertex_class_map(g, g, VertexClassMap(((1, 0),)))


# ---------------------------------------------------------------------------
# Uniform dispatch.


def test_apply_move_each_kind():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    assert apply_move(g, "expand", {"vertex": "v0"}) == expand(g, 0)
    assert apply_move(expand(g, 0), "contract", {"vertex": "v0", "star": "v0*"}) == g
    p = Partition.singletons(g, "in")
    split = apply_move(g, "in-split", {"partition": p})
    assert split == in_split(g, p).graph
    blocks = [["v0#1", "v0#2"], ["v1#1", "v1#2"]]
    assert apply_move(split, "in-amalgamate", {"blocks": blocks}) == g
    q = Partition.singletons(g, "out")
    osplit = apply_move(g, "out-split", {"partition": q})
    assert apply_move(osplit, "out-amalgamate", {"blocks": blocks}) == g
    d = DrinenVector.from_edges(g, "source", {g.edges[0].id: 1})
    assert apply_move(g, "out-delay", {"vector": d}) == out_delay(g, d)
    r = DrinenVector.from_edges(g, "range", {g.edges[0].id: 1})
    assert apply_move(g, "in-delay", {"vector": r}) == in_delay(g, r)
    assert apply_move(g, "minus", {}) == minus(g)
    assert apply_move(g, "minus1", {"vertex": 0}) == minus1(g, 0)
    two = MultiGraph.from_matrix([[2, 1], [1, 1]])
    assert apply_move(two, "shift", {"v": 0, "w": 1}) == shift(two, 0, 1)
    fed = MultiGraph.from_matrix([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    assert apply_move(fed, "eliminate", {"vertex": 0}) == eliminate_source(fed, 0)
    with pytest.raises(MoveError):
        apply_move(g, "teleport", {})


# ---------------------------------------------------------------------------
# The six mirrored moves against results pinned in a file.


def test_apply_move_missing_argument_raises_key_error():
    with pytest.raises(KeyError):
        apply_move(MultiGraph.from_matrix([[1, 1], [1, 1]]), "expand", {})


def test_move_table_calls_the_module_globals(monkeypatch):
    # A wrapper put on flowinv.moves after import (as a tracer does) is what
    # apply_move calls.
    import flowinv.moves

    calls = []

    def wrapped(g, p):
        calls.append(p)
        return in_split(g, p)

    monkeypatch.setattr(flowinv.moves, "in_split", wrapped)
    g = _split_base()
    p = Partition.singletons(g, "in")
    assert apply_move(g, "in-split", {"partition": p}) == in_split(g, p).graph
    assert calls == [p]


def _golden_graph(spec) -> MultiGraph:
    if "matrix" in spec:
        return MultiGraph.from_matrix(spec["matrix"], labels=spec["labels"])
    return MultiGraph(spec["labels"], [tuple(t) for t in spec["edges"]])


def _edge_list(g: MultiGraph) -> dict:
    return {
        "labels": list(g.labels),
        "edges": [[e.source, e.target, e.id] for e in g.edges],
    }


def _golden_result(case, g=None) -> dict:
    """The result of a case of moves_golden.json, in the file's terms; the
    move is made on ``g`` when given, else on the case's graph."""
    if g is None:
        g = _golden_graph(case["graph"])
    move = case["move"]
    mode = move.split("-", 1)[0]
    if move.endswith("-split"):
        p = Partition({int(v): cls for v, cls in case["partition"].items()})
        res = (in_split if mode == "in" else out_split)(g, p)
        out = _edge_list(res.graph)
        out["blocks"] = [list(b) for b in res.blocks]
        out["class_map"] = [list(vec) for vec in res.class_map.vectors]
        if mode == "in":
            fac = res.factorization
            out["r"] = fac.r.to_lists() if fac else None
            out["s"] = fac.s.to_lists() if fac else None
        return out
    if move.endswith("-amalgamate"):
        merge = in_amalgamate if mode == "in" else out_amalgamate
        return _edge_list(merge(g, case["blocks"]))
    vec = case["vector"]
    d = DrinenVector(
        vec["kind"], {int(v): x for v, x in vec["vertices"].items()}, vec["edges"]
    )
    return _edge_list((in_delay if mode == "in" else out_delay)(g, d))


def test_mirrored_moves_match_golden_file():
    # 509 cases of in/out splits, amalgamations and delays: seeded
    # matrix-built graphs, edge lists with ids other than e0, e1, ... in
    # shuffled order, and labels the new labels collide with (v0 beside
    # v0#1).  Labels, edges in order with their ids, blocks, class maps and
    # the in-split factorization were written by the code before each mirror
    # became the transpose-conjugate of its twin, as was the text of every
    # MoveError and GraphError.  The three splits of a graph with edges
    # "a#1" and "a" pin the fresh id "a#1.0" of the copy that would clash.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 509
    for k, case in enumerate(cases):
        try:
            got = _golden_result(case)
        except (MoveError, GraphError) as exc:
            got = {"error": type(exc).__name__, "message": str(exc)}
        assert got == case["expect"], f"case {k}: {case['move']}"


def test_split_and_delay_children_take_the_bulk_check(monkeypatch):
    # The splittings and delays hand their child a list of Edges with int
    # endpoints and str ids, which MultiGraph takes through its bulk check:
    # with the per-item pass made to fail, every golden split and delay
    # that succeeds still builds its golden result.  These are the only
    # edge-list builds of the moves; classify set-up splits its graphs.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]

    def refuse(items, n):
        raise AssertionError("the per-item pass ran")

    built = 0
    for k, case in enumerate(cases):
        if case["move"].endswith("-amalgamate") or "error" in case["expect"]:
            continue
        g = _golden_graph(case["graph"])
        with monkeypatch.context() as patch:
            patch.setattr(flowinv.graph, "_edges_item_by_item", refuse)
            got = _golden_result(case, g)
        assert got == case["expect"], f"case {k}: {case['move']}"
        built += 1
    assert built == 230


_EDGE_MOVES = {
    "transpose": lambda g: g.transpose(),
    "permuted": lambda g, perm: g.permuted(perm),
    "expand": expand,
    "contract": contract,
    "eliminate_source": eliminate_source,
    "shift": shift,
    "minus": minus,
    "minus1": minus1,
}


def test_edge_building_moves_match_golden_file():
    # 1,569 cases of the moves that name no edge, which build the child's
    # matrix and derive its edges on first read, on 144 seeded graphs:
    # matrix-built ones and edge lists in shuffled
    # order with ids such as "a#1", "f", "m.0" and automatic ones, so the
    # fresh-id branches of expand, shift and the sign gadgets run, and
    # labels the new ones collide with.  Labels, edges in order with their
    # ids, each vertex's out- and in-edge ids and the matrix, or the text of
    # every MoveError and GraphError, were written by the code before the
    # moves handed over finished Edge tuples.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_edges_golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    graphs, cases = golden["graphs"], golden["cases"]
    assert (len(graphs), len(cases)) == (144, 1569)
    for k, case in enumerate(cases):
        g = _golden_graph(graphs[case["graph"]])
        try:
            h = _EDGE_MOVES[case["move"]](g, *case["args"])
        except (MoveError, GraphError) as exc:
            got = {"error": type(exc).__name__, "message": str(exc)}
        else:
            got = _edge_list(h)
            got["out"] = [[e.id for e in h.out_edges(v)] for v in range(h.n)]
            got["in"] = [[e.id for e in h.in_edges(v)] for v in range(h.n)]
            got["matrix"] = h.incidence().to_lists()
        assert got == case["expect"], f"case {k}: {case['move']}"


def test_matrix_first_moves_build_no_edge_and_derive_their_matrix(monkeypatch):
    # Each move of the golden file builds the child's matrix and no edge;
    # the edges it derives on first read, counted, give back that matrix.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_edges_golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    built = []

    def counted(triples):
        built.append(1)
        return make_edges(triples)

    answered = 0
    for k, case in enumerate(golden["cases"]):
        if "error" in case["expect"]:
            continue
        g = _golden_graph(golden["graphs"][case["graph"]])
        g.edges  # the parent's edges exist before the move
        with monkeypatch.context() as patch:
            for module in (flowinv.graph, flowinv.moves):
                patch.setattr(module, "make_edges", counted)
            h = _EDGE_MOVES[case["move"]](g, *case["args"])
            assert not built, f"case {k}: {case['move']} built edges"
        assert h.incidence().to_lists() == case["expect"]["matrix"], k
        assert MultiGraph(h.labels, h.edges).incidence() == h.incidence(), k
        answered += 1
    assert answered >= 1000


def test_long_chains_of_matrix_first_moves_derive_edges_in_a_loop():
    # 3,003 moves on top of one another: the edges come from the root's by
    # one pass over the rules, with no recursion.
    g = MultiGraph(["a", "b"], [(0, 1, "x"), (1, 0, "y"), (1, 1, "z"), (0, 1, "w")])
    h = g
    for _ in range(1001):
        h = contract(expand(h, 0), 0, 2).transpose()
    assert h.incidence().to_lists() == [[0, 1], [2, 1]]
    assert h.edges == ((1, 0, "x"), (0, 1, "y"), (1, 1, "z"), (1, 0, "w"))


def _eager_split_extras(g: MultiGraph, p: Partition, mode: str, res):
    """The class map and factorization of ``res``, the splitting of g by p,
    built the way the splittings built them eagerly before both became
    cached properties: the kernel counted, for each new vertex, the old
    edges from each old vertex that land on it (the columns of R) while it
    copied the edges.  Kept as an oracle."""
    n, blocks = g.n, res.blocks
    if mode == "out":
        vectors = []
        for v in range(n):
            vec = [0] * res.graph.n
            for idx in blocks[v]:
                vec[idx] = 1
            vectors.append(tuple(vec))
        return VertexClassMap(tuple(vectors)), None

    class_of = {
        eid: i for classlist in p.classes.values() for i, cls in enumerate(classlist) for eid in cls
    }
    heads = [[0] * n for _ in range(res.graph.n)]
    for src, tgt, eid in g.edges:
        heads[blocks[tgt][class_of[eid]]][src] += 1

    classes = [(v, c) for v in range(n) if p.m(v) for c in blocks[v]]
    factorization = None
    if classes:
        r = IntMatrix.from_rows([[heads[c][w] for _, c in classes] for w in range(n)])
        s = IntMatrix.from_rows([[int(v == w) for w in range(n)] for v, _ in classes])
        factorization = SplitFactorization(r=r, s=s)

    vectors = []
    for v in range(n):
        vec = [0] * res.graph.n
        vec[blocks[v][0]] = 1
        vectors.append(tuple(vec))
    return VertexClassMap(tuple(vectors)), factorization


def _golden_split_cases():
    """(graph, partition, mode) of every split case of moves_golden.json
    that splits, and trivial, singleton and seeded random splittings of
    every graph of moves_edges_golden.json, which has no split case."""
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "moves_golden.json"), encoding="utf-8") as fh:
        for case in json.load(fh)["cases"]:
            if case["move"].endswith("-split") and "error" not in case["expect"]:
                p = Partition({int(v): cls for v, cls in case["partition"].items()})
                yield _golden_graph(case["graph"]), p, case["move"].split("-")[0]
    with open(os.path.join(data, "moves_edges_golden.json"), encoding="utf-8") as fh:
        graphs = json.load(fh)["graphs"]
    rng = random.Random(161)
    for spec in graphs:
        g = _golden_graph(spec)
        for mode in ("in", "out"):
            for p in (
                Partition.trivial(g, mode),
                Partition.singletons(g, mode),
                _rand_partition(rng, g, mode),
            ):
                yield g, p, mode


def test_lazy_split_extras_match_the_eager_oracle():
    count = 0
    for g, p, mode in _golden_split_cases():
        res = (in_split if mode == "in" else out_split)(g, p)
        assert "class_map" not in vars(res) and "factorization" not in vars(res)
        want_map, want_factorization = _eager_split_extras(g, p, mode, res)
        assert res.class_map == want_map
        assert res.factorization == want_factorization
        assert res.class_map is vars(res)["class_map"]
        assert res.factorization is vars(res)["factorization"]
        count += want_factorization is not None
    assert count >= 200


def test_moves_and_search_leave_split_extras_unbuilt(monkeypatch):
    from flowinv import flowsearch

    results = []

    def kept(split):
        def run(g, p):
            results.append(split(g, p))
            return results[-1]

        return run

    for owner in (flowinv.moves, flowsearch):
        for name in ("in_split", "out_split"):
            monkeypatch.setattr(owner, name, kept(getattr(owner, name)))
    g = MultiGraph.from_matrix([[1, 2], [1, 1]])
    for mode in ("in", "out"):
        apply_move(g, f"{mode}-split", {"partition": Partition.singletons(g, mode)})
    assert [r.mode for r in results] == ["in", "out"]
    search = flowsearch._Search(max_vertices=4, entry_cap=9, partition_cap=8)
    neighbors = search.neighbors(g.incidence().entries)
    for kind, _, recipe in neighbors:
        if kind.endswith("-split"):
            flowsearch._realize(g, kind, recipe)
    assert {r.mode for r in results[2:]} == {"in", "out"}
    for res in results:
        assert "class_map" not in vars(res) and "factorization" not in vars(res)


def _resplit(g: MultiGraph, blocks, mode: str):
    """Re-split the amalgamation of ``g`` by its recovered partition.

    The certification the amalgamations once ran on every quotient, kept as
    an oracle: returns the re-split matrix and g's matrix with its vertices
    in block order, both in the orientation of an in-amalgamation (columns
    for rows on the out side).
    """
    merge = in_amalgamate if mode == "in" else out_amalgamate
    rows = g.incidence().entries
    quotient = merge(g, blocks).incidence().entries
    if mode == "out":
        rows, quotient = tuple(zip(*rows)), tuple(zip(*quotient))
    quotient = MultiGraph.from_matrix(quotient)
    norm = [[g.vertex(v) for v in block] for block in blocks]
    bundle_ids: dict[tuple[int, int], list[str]] = {}
    for e in quotient.edges:
        bundle_ids.setdefault((e.source, e.target), []).append(e.id)
    classes = {}
    for bj, block in enumerate(norm):
        if quotient.in_degree(bj) == 0:
            continue
        cls = [[] for _ in block]
        cursor = [0] * len(norm)
        for pos, u in enumerate(block):
            for bi in range(len(norm)):
                count = rows[norm[bi][0]][u]
                ids = bundle_ids.get((bi, bj), [])
                cls[pos].extend(ids[cursor[bi] : cursor[bi] + count])
                cursor[bi] += count
        classes[bj] = cls
    order = [v for block in norm for v in block]
    resplit = in_split(quotient, Partition(classes)).graph.incidence().entries
    return resplit, tuple(tuple(rows[a][b] for b in order) for a in order)


def _equal_signature_groupings(rng: random.Random, g: MultiGraph, mode: str):
    """A random grouping of g's vertices into blocks of equal rows (in) or
    equal columns (out)."""
    rows = g.incidence().entries
    if mode == "out":
        rows = tuple(zip(*rows))
    groups: dict[tuple, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(tuple(rows[v]), []).append(v)
    blocks = []
    for members in groups.values():
        members = list(members)
        rng.shuffle(members)
        while members:
            take = rng.randint(1, len(members))
            blocks.append(members[:take])
            members = members[take:]
    rng.shuffle(blocks)
    return blocks


def test_amalgamation_resplit_reproduces_the_graph():
    # Once an amalgamation's block rows match and no member of a larger
    # block is unfed, re-splitting the quotient by the recovered partition
    # gives back g's matrix in block order; this is why the move needs no
    # re-split of its own.  Checked on every golden amalgamation that
    # succeeds and on random groupings of vertices with equal rows or
    # columns, among them split graphs, where such vertices abound.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = [c for c in json.load(fh)["cases"] if c["move"].endswith("-amalgamate")]
    assert len(cases) == 242
    checked = 0
    for case in cases:
        if "error" in case["expect"]:
            continue
        g = _golden_graph(case["graph"])
        resplit, want = _resplit(g, case["blocks"], case["move"].split("-", 1)[0])
        assert resplit == want, case
        checked += 1
    assert checked > 100

    rng = random.Random(4242)
    merged = 0
    for _ in range(300):
        g = _rand_graph(rng, max_n=4, max_mult=2)
        mode = rng.choice(("in", "out"))
        if rng.random() < 0.7 and g.edges:
            split = in_split if rng.random() < 0.5 else out_split
            side = "in" if split is in_split else "out"
            g = split(g, _rand_partition(rng, g, side)).graph
        blocks = _equal_signature_groupings(rng, g, mode)
        try:
            resplit, want = _resplit(g, blocks, mode)
        except MoveError as exc:
            assert "partition class would be empty" in str(exc)
            continue
        assert resplit == want, (g.incidence().to_lists(), blocks, mode)
        merged += any(len(block) > 1 for block in blocks)
    assert merged > 100


_SPLIT_100K = """
import sys
from flowinv.graph import MultiGraph
from flowinv.moves import Partition, in_split, out_split

n = 8
rows = [[0] * n for _ in range(n)]
for i in range(n):
    rows[i][i] = 6250
    rows[i][(i + 1) % n] = 6250
g = MultiGraph.from_matrix(rows)
for mode, split in (("in", in_split), ("out", out_split)):
    edges = g.in_edges if mode == "in" else g.out_edges
    p = Partition({v: [[e.id for e in edges(v)][k::2] for k in (0, 1)] for v in range(n)})
    print(mode, split(g, p).graph.edge_count)
"""


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
def test_hundred_thousand_edge_splits_answer_within_budget():
    # Splitting every vertex of a 1e5-edge graph in two is linear work; a
    # split that looked up each class member by a scan over all edges took
    # minutes.  A child process under a wall budget and a 1 GiB address-space
    # cap fails fast instead of hanging the suite.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(flowinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _SPLIT_100K],
        capture_output=True,
        text=True,
        timeout=10.0,
        preexec_fn=cap,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["in", "200000", "out", "200000"]
