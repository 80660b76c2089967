"""Directed multigraphs: structure, classification, text format, isomorphism."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

import flowinv
from flowinv.exactla import IntMatrix
from flowinv.graph import (
    MAX_VERTICES,
    Edge,
    GraphError,
    MultiGraph,
    ParseError,
    _canonical_order,
    _refinement_cells,
    canonical_key,
    canonical_permutation,
    canonical_rows_key,
    classify_graph,
    format_graph,
    incidence_matrix,
    int_string_limit,
    is_isomorphic,
    parse_graph,
    sinks,
    sources,
    strongly_connected_components,
    transpose,
)
from flowinv.moves import MoveError, minus, minus1


def _rose(petals: int) -> MultiGraph:
    return MultiGraph.from_matrix([[petals]])


def _rand_graph(rng: random.Random, max_n: int = 4, max_mult: int = 2) -> MultiGraph:
    n = rng.randint(1, max_n)
    return MultiGraph.from_matrix(
        [[rng.randint(0, max_mult) for _ in range(n)] for _ in range(n)]
    )


# ---------------------------------------------------------------------------
# Construction and basic accessors.


def test_construction_from_matrix():
    g = MultiGraph.from_matrix([[1, 2], [0, 1]])
    assert g.n == 2
    assert g.labels == ("v0", "v1")
    assert g.incidence().to_lists() == [[1, 2], [0, 1]]
    assert len(g.edges) == 4
    assert [e.id for e in g.edges] == ["e0", "e1", "e2", "e3"]


def test_construction_with_labels_and_edge_ids():
    g = MultiGraph(["a", "b"], [(0, 1, "x"), (1, 0, "y")])
    assert g.labels == ("a", "b")
    assert g.edge_by_id("x").target == 1
    assert g.out_degree(0) == 1 and g.in_degree(0) == 1
    with pytest.raises(GraphError, match="^no edge with id 'nope'$"):
        g.edge_by_id("nope")


def test_construction_errors():
    with pytest.raises(GraphError):
        MultiGraph([])
    with pytest.raises(GraphError):
        MultiGraph(2, [(0, 5)])
    with pytest.raises(GraphError):
        MultiGraph(2, [(0, 1, "x"), (1, 0, "x")])
    with pytest.raises(GraphError):
        MultiGraph.from_matrix([[1, 2], [0]])
    with pytest.raises(GraphError):
        MultiGraph.from_matrix([[-1]])
    with pytest.raises(GraphError):
        MultiGraph.from_matrix([[1]], labels=["a", "b"])
    with pytest.raises(GraphError):
        MultiGraph(1, [(0, 0)], matrix=[[1]])


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (2, [[1, 2], [0]], "incidence matrix must be square of size 2"),
        (2, [[1], [1]], "incidence matrix must be square of size 2"),
        (1, [[1], [1]], "incidence matrix must be square of size 1"),
        (3, [[0, 1, 2], [3, 0, -1], [-2, 0, 0]], "negative multiplicity at (1, 2)"),
        (2, [[0, -1], [-1, 0]], "negative multiplicity at (0, 1)"),
        (3, [[0, -1], [-1, 0]], "incidence matrix must be square of size 3"),
    ],
)
def test_matrix_construction_error_messages(n, rows, message):
    # The first negative entry in row-major order is named.  An IntMatrix,
    # whose entries are taken without conversion, is checked the same way.
    entries = tuple(map(tuple, rows))
    for matrix in (rows, IntMatrix(len(entries), len(entries[0]), entries)):
        with pytest.raises(GraphError) as exc:
            MultiGraph(n, matrix=matrix)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.5, 1], [1, 0.9]], "non-integer multiplicity 1.5 at (0, 0)"),
        ([[1, 1], [1, 0.9]], "non-integer multiplicity 0.9 at (1, 1)"),
        ([[-1, 2.5], [0, 0]], "non-integer multiplicity 2.5 at (0, 1)"),
        ([[1, 1], [-0.5, 0]], "non-integer multiplicity -0.5 at (1, 0)"),
        ([[1, Fraction(1, 2)], [0, 0]], "non-integer multiplicity Fraction(1, 2) at (0, 1)"),
        ([["2", 1], [1, 0]], "non-integer multiplicity '2' at (0, 0)"),
        ([[1, 2, 0.25], [0, 0, 0], [0, 0, 0]], "non-integer multiplicity 0.25 at (0, 2)"),
        # Entries int() cannot convert at all, not only those it would change.
        ([[float("inf")]], "non-integer multiplicity inf at (0, 0)"),
        ([[1, None], [1, 0]], "non-integer multiplicity None at (0, 1)"),
        ([[1, 1], [float("nan"), 0.5]], "non-integer multiplicity nan at (1, 0)"),
    ],
)
def test_non_integer_multiplicities_are_errors(rows, message):
    # int() would truncate such an entry into another graph, so the first
    # one in row-major order is named, before any negative entry.
    for build in (MultiGraph.from_matrix, lambda r: MultiGraph(len(r), matrix=r)):
        with pytest.raises(GraphError) as exc:
            build(rows)
        assert str(exc.value) == message


def test_integral_multiplicities_convert_and_int_matrices_stay():
    for rows in ([[2.0, True], [False, 1]], [[Fraction(2), 1], [0, 1.0]]):
        entries = MultiGraph.from_matrix(rows).incidence().entries
        assert entries == ((2, 1), (0, 1))
        assert {type(k) for row in entries for k in row} == {int}
    m = IntMatrix(2, 2, ((1, 2), (0, 1)))
    assert MultiGraph(2, matrix=m).incidence().entries is m.entries
    # Rows given as an iterator, as a move hands over a transposed matrix.
    assert MultiGraph(2, matrix=zip((1, 0), (2, 1))).incidence() == m


def _square_matrices(st):
    """Hypothesis strategy: square matrices up to 6 by 6, entries 0..4."""
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def test_matrix_built_graph_matches_eager_edge_list(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(_square_matrices(st))
    def check(rows):
        n = len(rows)
        cells = [(i, j) for i in range(n) for j in range(n) for _ in range(rows[i][j])]
        eager = MultiGraph(n, [(i, j, f"e{k}") for k, (i, j) in enumerate(cells)])

        lazy = MultiGraph.from_matrix(rows)
        assert classify_graph(lazy).to_dict() == classify_graph(eager).to_dict()
        assert canonical_key(lazy) == canonical_key(eager)
        assert repr(lazy) == repr(eager)
        for v in range(n):
            assert lazy.out_degree(v) == len(eager.out_edges(v))
            assert lazy.in_degree(v) == len(eager.in_edges(v))
        assert lazy.edge_count == len(eager.edges)
        assert lazy.edges == eager.edges

        # Each edge accessor, read first, derives the same edges.
        for v in range(n):
            assert MultiGraph.from_matrix(rows).out_edges(v) == eager.out_edges(v)
            assert MultiGraph.from_matrix(rows).in_edges(v) == eager.in_edges(v)
        for e in eager.edges:
            assert MultiGraph.from_matrix(rows).edge_by_id(e.id) == e

        for style in ("edges", "matrix"):
            assert parse_graph(format_graph(eager, style)).edges == eager.edges

    check()


def test_edge_is_a_named_tuple():
    # repr and hash are those of the frozen dataclass Edge was; being a
    # tuple it also unpacks, orders and equals the plain triple.
    e = Edge(0, 1, "x")
    assert repr(e) == "Edge(source=0, target=1, id='x')"
    assert hash(e) == hash((0, 1, "x"))
    assert (e.source, e.target, e.id) == (0, 1, "x")
    assert e == (0, 1, "x") and tuple(e) == (0, 1, "x")
    src, tgt, eid = e
    assert (src, tgt, eid) == (0, 1, "x")
    assert sorted([Edge(1, 0, "a"), Edge(0, 2, "b"), Edge(0, 1, "c")]) == [
        (0, 1, "c"),
        (0, 2, "b"),
        (1, 0, "a"),
    ]
    assert flowinv.Edge is Edge


def _build_reference(vertices, edges):
    """The edge path of ``MultiGraph.__init__`` as a loop over the items,
    kept as an oracle for the one-pass build: the edges as (source, target,
    id) triples, each vertex's out- and in-edges, and the matrix rows; or a
    GraphError."""
    n = vertices if isinstance(vertices, int) else len(vertices)
    built = []
    mat = [[0] * n for _ in range(n)]
    seen_ids = set()
    auto = 0
    for item in edges:
        if isinstance(item, Edge):
            src, tgt, eid = item.source, item.target, item.id
        elif len(item) == 2:
            src, tgt = item
            eid = None
        else:
            src, tgt, eid = item
        try:
            outside = not (0 <= src < n and 0 <= tgt < n)
        except TypeError:
            outside = False
        if outside:
            raise GraphError(f"edge endpoint out of range: ({src}, {tgt})")
        if any(isinstance(x, str) or x != int(x) for x in (src, tgt)):
            raise GraphError(f"edge endpoint is not an integer: ({src!r}, {tgt!r})")
        if eid is None:
            while f"e{auto}" in seen_ids:
                auto += 1
            eid = f"e{auto}"
            auto += 1
        eid = str(eid)
        if eid in seen_ids:
            raise GraphError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        built.append((int(src), int(tgt), eid))
        mat[int(src)][int(tgt)] += 1
    out = [[e for e in built if e[0] == v] for v in range(n)]
    inc = [[e for e in built if e[1] == v] for v in range(n)]
    return built, out, inc, mat


def _build_outcome(build, n, items):
    """What building a graph from ``items`` gives, in the reference's terms."""
    try:
        got = build(n, items)
    except GraphError as exc:
        return ("error", str(exc))
    if build is _build_reference:
        return ("graph", *got)
    for e in got.edges:
        assert (type(e), type(e.source), type(e.target), type(e.id)) == (Edge, int, int, str)

    def triples(edges):
        return [(e.source, e.target, e.id) for e in edges]

    return (
        "graph",
        triples(got.edges),
        [triples(got.out_edges(v)) for v in range(n)],
        [triples(got.in_edges(v)) for v in range(n)],
        got.incidence().to_lists(),
    )


def _edge_items(st, n):
    """Hypothesis strategy: edge-list items for n vertices, mostly valid."""
    valid = st.integers(0, n - 1)
    endpoint = st.one_of(
        valid,
        valid,
        valid,
        valid,
        st.integers(-1, n),
        st.booleans(),
        st.sampled_from([0.0, 0.5, n - 0.5, -0.5, float(n), float("nan")]),
    )
    eid = st.one_of(
        st.none(),
        st.integers(0, 3),
        st.sampled_from(["e0", "e1", "e2", "x", "a#1", "1"]),
        st.integers(0, 99).map("k{}".format),
        st.integers(0, 99).map("k{}".format),
    )
    return st.one_of(
        st.builds(Edge, st.integers(0, n - 1), st.integers(0, n - 1), eid),
        st.builds(Edge, endpoint, endpoint, eid),
        st.tuples(endpoint, endpoint),
        st.tuples(endpoint, endpoint, eid),
    )


def test_edge_list_build_matches_reference_loop(hypothesis_api):
    # Mixed lists of Edge items, 2-tuples and 3-tuples with None, int or str
    # ids, out-of-range and duplicate items, bool and float endpoints: the
    # one-pass build and the per-item loop give equal graphs (matrix, edges,
    # each vertex's out- and in-edges, in order) or the same GraphError.
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(_edge_items(st, n), max_size=8))
        )
    )
    def check(case):
        n, items = case
        want = _build_outcome(_build_reference, n, items)
        assert _build_outcome(MultiGraph, n, items) == want
        assert _build_outcome(MultiGraph, n, iter(items)) == want

    check()


def _valid_edges(count: int) -> list:
    """``count`` Edges on vertices 0..2 with ids k0, k1, ..., as a move
    hands them over."""
    return [Edge(k % 3, k * 7 % 3, f"k{k}") for k in range(count)]


def _random_edge_item(rng: random.Random, n: int):
    """A seeded edge-list item for n vertices, mostly valid: the kinds of
    _edge_items, drawn without hypothesis."""

    def endpoint():
        pick = rng.random()
        if pick < 0.7:
            return rng.randrange(n)
        if pick < 0.8:
            return rng.randint(-1, n)
        if pick < 0.9:
            return rng.random() < 0.5
        return rng.choice([0.0, 0.5, n - 0.5, -0.5, float(n), float("nan")])

    def eid():
        pick = rng.random()
        if pick < 0.3:
            return None
        if pick < 0.45:
            return rng.randint(0, 3)
        if pick < 0.65:
            return rng.choice(["e0", "e1", "e2", "x", "a#1", "1"])
        return f"k{rng.randint(0, 99)}"

    kind = rng.randrange(4)
    if kind == 0:
        return Edge(rng.randrange(n), rng.randrange(n), eid())
    if kind == 1:
        return Edge(endpoint(), endpoint(), eid())
    if kind == 2:
        return (endpoint(), endpoint())
    return (endpoint(), endpoint(), eid())


def test_edge_list_build_matches_reference_on_seeded_lists():
    # The seeded counterpart of the property test above, which runs without
    # hypothesis: mixed lists of Edges, pairs and triples with None, int or
    # str ids, bool and float endpoints, duplicate ids and out-of-range
    # items; and lists of Edges with int endpoints and str ids, all valid
    # but for at most one item that is out of range or reuses an id.
    rng = random.Random(2611)
    kinds = {"graph": 0, "error": 0}
    for _ in range(3000):
        n = rng.randint(1, 4)
        size = rng.randint(0, 10)
        if rng.random() < 0.4:
            items = [
                Edge(rng.randrange(n), rng.randrange(n), f"k{rng.randrange(16)}")
                for _ in range(size)
            ]
            if items and rng.random() < 0.3:
                items[rng.randrange(size)] = Edge(rng.randrange(n), rng.randint(-1, n), "x")
        else:
            items = [_random_edge_item(rng, n) for _ in range(size)]
        want = _build_outcome(_build_reference, n, items)
        assert _build_outcome(MultiGraph, n, items) == want, (n, items)
        assert _build_outcome(MultiGraph, n, iter(items)) == want, (n, items)
        kinds[want[0]] += 1
    assert min(kinds.values()) > 1000, kinds


@pytest.mark.parametrize(
    "n, items, message",
    [
        (2, [(0, 5), (0, 0, "x"), (0, 0, "x")], "edge endpoint out of range: (0, 5)"),
        (2, [(0, 0, "x"), (0, 0, "x"), (0, 5)], "duplicate edge id 'x'"),
        (2, [(0, 0, "x"), (5, 0, "x")], "edge endpoint out of range: (5, 0)"),
        (2, [(0, 0, "x"), (1, 1, "y"), (1, 0, "x"), (2, 0)], "duplicate edge id 'x'"),
        (2, [(0, 0), (0, 0, "e0")], "duplicate edge id 'e0'"),
        (2, [(0, 0, "e1"), (0, 0), (1, 1), (0, 1, "e2")], "duplicate edge id 'e2'"),
        (2, [(0, 0, 1), (0, 0, "1")], "duplicate edge id '1'"),
        (2, [Edge(0, 0, "x"), Edge(0, 9, "y"), Edge(0, 0, "x")], "edge endpoint out of range: (0, 9)"),
        (2, [Edge(1, 1, "x"), (0, 0, "x")], "duplicate edge id 'x'"),
        (3, [(0.5, 2.5), (-0.5, 0)], "edge endpoint is not an integer: (0.5, 2.5)"),
        (3, [(0.5, 3.0)], "edge endpoint out of range: (0.5, 3.0)"),
        (2, [(float("nan"), 0)], "edge endpoint out of range: (nan, 0)"),
        (2, [(True, 2)], "edge endpoint out of range: (True, 2)"),
        (1, [(0, -1, "x"), (0, 0, "x")], "edge endpoint out of range: (0, -1)"),
        (3, [*_valid_edges(10_000), Edge(2, 0, "k17")], "duplicate edge id 'k17'"),
        (3, [*_valid_edges(10_000), Edge(1, 3, "z")], "edge endpoint out of range: (1, 3)"),
        (2, [(0, 0), ("0", 1)], "edge endpoint is not an integer: ('0', 1)"),
        (2, [(0, 1.0), (0.5, 1.5)], "edge endpoint is not an integer: (0.5, 1.5)"),
    ],
)
def test_edge_list_first_error_wins(n, items, message):
    # The first offending item in list order is named; within an item the
    # range check comes before the integer check, and both before the
    # duplicate check.  Texts from the per-item loop, _build_reference.  The long lists of Edges are valid
    # up to their last item, which the per-item pass names.
    for build in (_build_reference, MultiGraph):
        with pytest.raises(GraphError) as exc:
            build(n, items)
        assert str(exc.value) == message


def test_vertex_resolution():
    g = MultiGraph(["a", "b", "7"])
    assert g.vertex("a") == 0
    assert g.vertex(1) == 1
    assert g.vertex("7") == 2, "label match beats index match"
    assert g.vertex("2") == 2
    with pytest.raises(GraphError):
        g.vertex("missing")
    with pytest.raises(GraphError):
        g.vertex(3)


def test_vertex_reads_names_that_are_not_str_as_integers():
    g = MultiGraph.from_matrix([[1, 1], [1, 0]])
    assert g.vertex(1.0) == 1
    assert type(g.vertex(True)) is int and g.vertex(True) == 1
    assert g.vertex(0.0) == 0
    for name, message in [
        (0.7, "vertex 0.7 is not an integer"),
        (None, "vertex None is not an integer"),
        (float("nan"), "vertex nan is not an integer"),
        (2.0, "vertex index 2 out of range"),
    ]:
        with pytest.raises(GraphError) as exc:
            g.vertex(name)
        assert str(exc.value) == message


def test_permuted_reads_integral_entries():
    g = MultiGraph(["a", "b"], [(0, 0, "x"), (0, 1, "y"), (1, 0, "z")])
    h = g.permuted([1.0, 0.0])
    assert (h.labels, h.edges) == (("b", "a"), ((1, 1, "x"), (1, 0, "y"), (0, 1, "z")))
    for perm in ([0.5, 1], [1.0, 1.0], ["1", "0"], [None, 0]):
        with pytest.raises(GraphError) as exc:
            g.permuted(perm)
        assert str(exc.value) == "not a permutation"


def test_equality_ignores_labels_and_edge_ids():
    a = MultiGraph(["x", "y"], [(0, 1, "p")])
    b = MultiGraph(["u", "w"], [(0, 1, "q")])
    c = MultiGraph(["x", "y"], [(1, 0, "p")])
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_permuted_moves_rows_and_columns():
    g = MultiGraph.from_matrix([[0, 2], [1, 0]], labels=["a", "b"])
    h = g.permuted([1, 0])
    assert h.labels == ("b", "a")
    assert h.incidence().to_lists() == [[0, 1], [2, 0]]


# ---------------------------------------------------------------------------
# Incidence, transpose, sources, sinks, components.


def test_incidence_and_transpose():
    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    assert incidence_matrix(g).to_lists() == [[1, 1, 1], [0, 0, 1], [1, 0, 0]]
    assert incidence_matrix(transpose(g)).to_lists() == [[1, 0, 1], [1, 0, 0], [1, 1, 0]]
    assert transpose(transpose(g)) == g


def test_sources_and_sinks():
    g = MultiGraph.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert sources(g) == [0]
    assert sinks(g) == [2]
    assert sources(_rose(2)) == [] and sinks(_rose(2)) == []


def test_strongly_connected_components():
    g = MultiGraph.from_matrix([[0, 1, 0], [1, 0, 0], [1, 0, 0]])
    comps = [sorted(c) for c in strongly_connected_components(g)]
    assert sorted(comps) == [[0, 1], [2]]
    assert len(strongly_connected_components(_rose(1))) == 1


def _scc_reference(rows) -> list[list[int]]:
    """Tarjan's algorithm as strongly_connected_components ran it before
    its frames held iterators: a successor index per frame, an on-stack
    flag per vertex.  Kept as the oracle for the order of the components."""
    n = len(rows)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = itertools.count()
    components: list[list[int]] = []
    succ = [[w for w, k in enumerate(row) if k] for row in rows]
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _scc_closure(rows) -> set[frozenset[int]]:
    """The strongly connected components as the classes of mutual
    reachability, from the transitive closure (Warshall, one bit mask of
    reachable vertices per vertex)."""
    n = len(rows)
    reach = [
        sum(1 << w for w, k in enumerate(row) if k) | 1 << v for v, row in enumerate(rows)
    ]
    for k in range(n):
        bit = 1 << k
        for v in range(n):
            if reach[v] & bit:
                reach[v] |= reach[k]
    return {
        frozenset(w for w in range(n) if reach[v] >> w & 1 and reach[w] >> v & 1)
        for v in range(n)
    }


def _scc_family_rows(rng: random.Random, family: str, n: int) -> list[list[int]]:
    """A random square matrix of one family: sparse, dense, a DAG on a
    shuffled order, a chain with a few back edges, or any of these with
    some vertices cut off."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    if family == "sparse":
        for v in range(n):
            for _ in range(rng.randint(0, 2)):
                rows[v][rng.randrange(n)] += 1
    elif family == "dense":
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    elif family == "dag":
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    rows[order[a]][order[b]] = 1
    elif family == "chain":
        for a in range(n - 1):
            rows[order[a]][order[a + 1]] = 1
        for _ in range(rng.randint(0, 3)):
            a = rng.randrange(n)
            rows[order[a]][order[rng.randrange(a + 1)]] += 1
    else:
        rows = _scc_family_rows(rng, rng.choice(("sparse", "dense", "chain")), n)
        for v in rng.sample(range(n), rng.randint(1, n)):
            rows[v] = [0] * n
            for row in rows:
                row[v] = 0
    return rows


@pytest.mark.parametrize("family", ["sparse", "dense", "dag", "chain", "isolated"])
def test_scc_matches_closure_and_reference_order(family):
    rng = random.Random(f"scc-{family}")
    shapes = set()
    for _ in range(300):
        rows = _scc_family_rows(rng, family, rng.randint(1, 40))
        comps = strongly_connected_components(MultiGraph.from_matrix(rows))
        assert comps == _scc_reference(rows), rows
        assert all(comp == sorted(comp) for comp in comps)
        closure = _scc_closure(rows)
        assert len(comps) == len(closure) and set(map(frozenset, comps)) == closure, rows
        shapes.add((len(comps) > 1, max(map(len, comps)) > 1))
    # DAGs and bare chains have singleton components only; the other
    # families also draw graphs with one component and with several.
    assert len(shapes) >= (1 if family in ("dag", "chain") else 3), shapes


# ---------------------------------------------------------------------------
# Classification.


def test_classify_rose_is_purely_infinite_simple():
    r = classify_graph(_rose(4))
    assert r.irreducible and r.essential and not r.trivial
    assert r.every_cycle_has_exit and r.simple_lpa and r.purely_infinite_simple


def test_classify_single_loop_is_trivial():
    r = classify_graph(_rose(1))
    assert r.trivial and r.irreducible and r.essential
    assert not r.every_cycle_has_exit
    assert not r.simple_lpa and not r.purely_infinite_simple


def test_classify_acyclic_line_is_simple_but_not_pis():
    r = classify_graph(MultiGraph.from_matrix([[0, 1], [0, 0]]))
    assert r.has_sources and r.has_sinks and not r.essential
    assert r.every_cycle_has_exit and r.simple_lpa
    assert not r.purely_infinite_simple


def test_classify_cycle_with_unreachable_sink():
    # The sink cannot reach the cycle, so the algebra is not simple.
    g = MultiGraph.from_matrix([[1, 1], [0, 0]])
    r = classify_graph(g)
    assert r.has_sinks and not r.every_vertex_reaches_cycle_or_sink
    assert not r.simple_lpa


def test_classify_report_dict_keys():
    d = classify_graph(_rose(2)).to_dict()
    assert list(d) == [
        "has_sources",
        "has_sinks",
        "irreducible",
        "essential",
        "trivial",
        "every_cycle_has_exit",
        "every_vertex_reaches_cycle_or_sink",
        "simple_lpa",
        "purely_infinite_simple",
    ]


def test_pis_without_sources_equals_irreducible_essential_nontrivial():
    # Exhaustive check over all incidence matrices with n <= 3, entries <= 2
    # (entries <= 1 at n = 3 to keep the census fast).
    for n, max_mult in [(1, 2), (2, 2), (3, 1)]:
        cells = n * n
        for combo in itertools.product(range(max_mult + 1), repeat=cells):
            rows = [list(combo[i * n : (i + 1) * n]) for i in range(n)]
            r = classify_graph(MultiGraph.from_matrix(rows))
            lhs = r.purely_infinite_simple and not r.has_sources
            rhs = r.irreducible and r.essential and not r.trivial
            assert lhs == rhs, rows


def test_classification_is_relabel_invariant():
    rng = random.Random(21)
    for _ in range(50):
        g = _rand_graph(rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert classify_graph(g.permuted(perm)) == classify_graph(g)


# ---------------------------------------------------------------------------
# Report oracle: the three traversals classify_graph used before it read
# every predicate off one strongly connected component pass.


def _has_no_exit_cycle_reference(g: MultiGraph) -> bool:
    succ = {
        v: row.index(1) for v, row in enumerate(g.incidence().entries) if sum(row) == 1
    }
    state = {v: 0 for v in succ}  # 0 fresh, 1 in progress, 2 done
    for start in succ:
        if state[start]:
            continue
        path = []
        v = start
        while v in succ and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if v in succ and state[v] == 1:
            return True
        for w in path:
            state[w] = 2
    return False


def _reaches_all_reference(g: MultiGraph, targets: list[set[int]]) -> bool:
    m = g.incidence().entries
    preds = [[v for v in range(g.n) if m[v][w]] for w in range(g.n)]
    for tset in targets:
        seen = set(tset)
        frontier = list(tset)
        while frontier:
            v = frontier.pop()
            for w in preds[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != g.n:
            return False
    return True


def _cycle_vertices_reference(g: MultiGraph) -> set[int]:
    out = set()
    for comp in strongly_connected_components(g):
        if len(comp) > 1:
            out.update(comp)
    for v in range(g.n):
        if any(e.target == v for e in g.out_edges(v)):
            out.add(v)
    return out


def _report_reference(g: MultiGraph) -> dict:
    src = sources(g)
    snk = sinks(g)
    comps = strongly_connected_components(g)
    irreducible = len(comps) == 1
    m = g.incidence().entries
    cyclic_comps = [c for c in comps if len(c) > 1 or m[c[0]][c[0]]]
    trivial = (
        irreducible
        and all(g.out_degree(v) == 1 for v in range(g.n))
        and all(g.in_degree(v) == 1 for v in range(g.n))
    )
    cycle_exits = not _has_no_exit_cycle_reference(g)
    targets = [set(c) for c in cyclic_comps] + [{v} for v in snk]
    reaches = _reaches_all_reference(g, targets)
    simple = cycle_exits and reaches
    return {
        "has_sources": bool(src),
        "has_sinks": bool(snk),
        "irreducible": irreducible,
        "essential": not src and not snk,
        "trivial": trivial,
        "every_cycle_has_exit": cycle_exits,
        "every_vertex_reaches_cycle_or_sink": reaches,
        "simple_lpa": simple,
        "purely_infinite_simple": simple and bool(cyclic_comps),
    }


def _check_against_reference(rows) -> None:
    g = MultiGraph.from_matrix(rows)
    assert classify_graph(g).to_dict() == _report_reference(g), rows


def test_report_matches_reference_on_all_small_graphs():
    # Every matrix with n <= 3 and entries 0..2: 3 + 81 + 19,683 graphs.
    count = 0
    for n in (1, 2, 3):
        for combo in itertools.product(range(3), repeat=n * n):
            _check_against_reference([list(combo[i * n : (i + 1) * n]) for i in range(n)])
            count += 1
    assert count == 19_767


def _sparse_matrices(st):
    # Rows that are empty, a single edge, or mostly zero, so that sinks,
    # cycles without exits and many components come up often.
    def row(n):
        return st.one_of(
            st.just([0] * n),
            st.integers(0, n - 1).map(lambda j: [int(i == j) for i in range(n)]),
            st.lists(st.sampled_from((0, 0, 0, 0, 1, 2)), min_size=n, max_size=n),
        )

    return st.integers(1, 8).flatmap(lambda n: st.lists(row(n), min_size=n, max_size=n))


def _dense_matrices(st):
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def test_report_matches_reference_on_drawn_graphs(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.one_of(_sparse_matrices(st), _dense_matrices(st)))
    def check(rows):
        _check_against_reference(rows)

    check()


def test_sign_gadgets_attach_where_they_did():
    # Which vertices lie on a cycle depends only on which entries are
    # nonzero, so 0/1 matrices cover every case with n <= 3.
    for n in (1, 2, 3):
        for combo in itertools.product(range(2), repeat=n * n):
            g = MultiGraph.from_matrix(
                [list(combo[i * n : (i + 1) * n]) for i in range(n)]
            )
            cyclic = _cycle_vertices_reference(g)
            for gadget in (minus, minus1):
                if not cyclic:
                    with pytest.raises(MoveError):
                        gadget(g)
                    continue
                assert gadget(g) == gadget(g, max(cyclic))
                for v in range(n):
                    if v in cyclic:
                        gadget(g, v)
                    else:
                        with pytest.raises(MoveError):
                            gadget(g, v)


# ---------------------------------------------------------------------------
# Text format.


def test_parse_edges_format():
    g = parse_graph("edges 2\n0 0 1\n0 1 1\n1 0 3\n1 1 2\n")
    assert g.incidence().to_lists() == [[1, 1], [3, 2]]


def test_parse_matrix_format_with_comments():
    text = "# a comment\nmatrix 2 # header\n1 1\n3 2\n"
    assert parse_graph(text).incidence().to_lists() == [[1, 1], [3, 2]]


def test_parse_repeated_edge_lines_accumulate():
    g = parse_graph("edges 1\n0 0 1\n0 0 2\n")
    assert g.incidence().to_lists() == [[3]]


def test_format_round_trips_bit_exactly():
    rng = random.Random(22)
    for _ in range(50):
        g = _rand_graph(rng)
        for style in ("edges", "matrix"):
            text = format_graph(g, style)
            assert text.endswith("\n")
            assert parse_graph(text) == g
            assert format_graph(parse_graph(text), style) == text


def test_format_rejects_unknown_style():
    with pytest.raises(ValueError):
        format_graph(_rose(1), "dot")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_graph("")
    assert exc.value.line == 1 and exc.value.col == 1

    with pytest.raises(ParseError) as exc:
        parse_graph("triangle 2\n")
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        parse_graph("edges 2\n0 9 1\n")
    assert exc.value.line == 2 and "out of range" in exc.value.message

    with pytest.raises(ParseError) as exc:
        parse_graph("matrix 2\n1 1\n")
    assert "2 rows" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_graph("matrix 1\nx\n")
    assert exc.value.line == 2 and exc.value.col == 1

    with pytest.raises(ParseError) as exc:
        parse_graph("edges 1\n0 0 0\n")
    assert "at least 1" in exc.value.message


# The parser as it was before it split each line once, kept as the oracle
# of the current one: a regex tokenizer that records every token's column,
# and a conversion and sign check per entry.

_REFERENCE_TOKEN = re.compile(r"\S+")


def _reference_tokenize(text: str):
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in _REFERENCE_TOKEN.finditer(body)]
        if toks:
            out.append((ln, toks))
    return out


def _reference_int(ln, col, tok, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(ln, col, f"expected {what}, found {tok!r}") from None


def _parse_reference(text: str) -> MultiGraph:
    lines = _reference_tokenize(text)
    if not lines:
        raise ParseError(1, 1, "empty input")
    ln, toks = lines[0]
    if len(toks) != 2 or toks[0][1] not in ("matrix", "edges"):
        raise ParseError(ln, toks[0][0], "expected header 'matrix n' or 'edges n'")
    kind = toks[0][1]
    n = _reference_int(ln, toks[1][0], toks[1][1], "vertex count")
    if n < 1:
        raise ParseError(ln, toks[1][0], "vertex count must be at least 1")

    body = lines[1:]
    if kind == "matrix":
        if len(body) != n:
            where = body[n][0] if len(body) > n else (body[-1][0] if body else ln)
            raise ParseError(where, 1, f"matrix block needs exactly {n} rows")
        rows = []
        for row_ln, row_toks in body:
            if len(row_toks) != n:
                raise ParseError(row_ln, row_toks[0][0], f"row needs {n} entries")
            row = []
            for col, tok in row_toks:
                val = _reference_int(row_ln, col, tok, "multiplicity")
                if val < 0:
                    raise ParseError(row_ln, col, "multiplicity must be non-negative")
                row.append(val)
            rows.append(row)
        return MultiGraph.from_matrix(rows)

    rows = [[0] * n for _ in range(n)]
    for row_ln, row_toks in body:
        if len(row_toks) != 3:
            raise ParseError(row_ln, row_toks[0][0], "edge line needs 'i j k'")
        (ci, ti), (cj, tj), (ck, tk) = row_toks
        i = _reference_int(row_ln, ci, ti, "source vertex")
        j = _reference_int(row_ln, cj, tj, "target vertex")
        k = _reference_int(row_ln, ck, tk, "multiplicity")
        if not 0 <= i < n:
            raise ParseError(row_ln, ci, f"source {i} out of range 0..{n - 1}")
        if not 0 <= j < n:
            raise ParseError(row_ln, cj, f"target {j} out of range 0..{n - 1}")
        if k < 1:
            raise ParseError(row_ln, ck, "multiplicity must be at least 1")
        rows[i][j] += k
    return MultiGraph(n, matrix=rows)


def _parse_outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the graph's rows, or the error's
    (line, column, message)."""
    try:
        g = parse(text)
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.message)
    assert isinstance(g, MultiGraph)
    return ("graph", g.labels, g.incidence().entries)


# Tokens near the format: entries int() reads (signs, underscores and
# non-ASCII digits included), and negative and non-integer ones.
_GOOD_TOKENS = ("0", "1", "2", "3", "0", "1", "2", "+3", "-0", "1_0", "\u0662")
_BAD_TOKENS = ("-1", "-2", "x", "1.0", "0x1", "_1", "1__0", "3#x")
_TEXT_SPACES = (" ", " ", "  ", "\t", "\xa0", "\u2003", "\u3000", " \t")
_TEXT_ENDS = ("\n", "\n", "\r\n", "\n\n", "\n# note 1 2\n", "  # c\n")


def _graph_texts(st):
    """Hypothesis strategy: graph texts in both styles, mostly well formed,
    with comments, tabs, Unicode spaces and line ends, and wrong, negative
    or non-integer tokens, token counts and row counts.  Vertex counts are
    1..5, and about one time in ten 6..16, so that edge lines name vertices
    past 4 too; the cap keeps a matrix text, n rows of n tokens, short."""

    def often(common, rare):
        return st.sampled_from((common,) * 9 + (rare,))

    @st.composite
    def texts(draw):
        kind = draw(st.sampled_from(("matrix", "edges")))
        kind = draw(often(kind, "graph"))
        n = draw(often(draw(st.integers(1, 5)), draw(st.integers(6, 16))))
        n = draw(often(n, draw(st.integers(-1, 0))))
        count = draw(often(str(n), draw(st.sampled_from((f"+{n}", "x", f"{n}_0")))))
        header = [kind, count] + draw(often([], ["1"]))
        width = 3 if kind == "edges" else abs(n)
        vertices = tuple(map(str, range(max(n, 0))))
        good = vertices + ("1",) if kind == "edges" else _GOOD_TOKENS
        bad = tuple(map(str, (-1, n, n + 1))) + _BAD_TOKENS + _GOOD_TOKENS
        rows = abs(n) if kind == "matrix" else draw(st.integers(0, 6))
        lines = [header]
        for _ in range(draw(often(rows, draw(st.integers(0, abs(n) + 1))))):
            wrong = draw(st.sampled_from((width + 1, max(width - 1, 1))))
            size = draw(often(width, wrong))
            pool = st.sampled_from(draw(often(good, bad)))
            lines.append(draw(st.lists(pool, min_size=size, max_size=size)))
        text = draw(st.sampled_from(("", "# heading\n", "\n \t\n")))
        for toks in lines:
            lead = draw(st.sampled_from(("", "", " ", "\t", "\u3000")))
            spaces = st.sampled_from(_TEXT_SPACES)
            seps = draw(st.lists(spaces, min_size=len(toks), max_size=len(toks)))
            text += lead + "".join(t + s for t, s in zip(toks, seps)).rstrip(" ")
            text += draw(st.sampled_from(_TEXT_ENDS))
        return text

    return texts()


def test_parse_matches_reference_parser(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=600, deadline=None)
    @hyp.given(_graph_texts(st))
    def check(text):
        expected = _parse_outcome(_parse_reference, text)
        assert _parse_outcome(parse_graph, text) == expected

    check()


def test_parse_returns_a_graph_or_raises_parse_error(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.one_of(st.text(), _graph_texts(st)))
    def check(text):
        _parse_outcome(parse_graph, text)

    check()


# Every ParseError branch with its (line, column, message), as the
# reference parser reports them.
@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("", 1, 1, "empty input"),
        ("# nothing but a comment\n \t\n", 1, 1, "empty input"),
        ("triangle 2\n", 1, 1, "expected header 'matrix n' or 'edges n'"),
        ("  matrix\n", 1, 3, "expected header 'matrix n' or 'edges n'"),
        ("matrix 2 3\n", 1, 1, "expected header 'matrix n' or 'edges n'"),
        ("matrix x\n", 1, 8, "expected vertex count, found 'x'"),
        ("edges 1.5\n", 1, 7, "expected vertex count, found '1.5'"),
        ("edges 0\n", 1, 7, "vertex count must be at least 1"),
        ("matrix -3\n", 1, 8, "vertex count must be at least 1"),
        ("matrix 2\n", 1, 1, "matrix block needs exactly 2 rows"),
        ("matrix 2\n1 1\n", 2, 1, "matrix block needs exactly 2 rows"),
        ("matrix 1\n1\n\n2 # extra\n", 4, 1, "matrix block needs exactly 1 rows"),
        ("matrix 2\n1 1\n  1\n", 3, 3, "row needs 2 entries"),
        ("matrix 2\n1 1 1\n0 0\n", 2, 1, "row needs 2 entries"),
        ("matrix 2\n1 1\n1\tx\n", 3, 3, "expected multiplicity, found 'x'"),
        ("matrix 2\n0 -1\n0 0\n", 2, 3, "multiplicity must be non-negative"),
        ("matrix 2\n-1 x\n0 0\n", 2, 1, "multiplicity must be non-negative"),
        ("matrix 2\nx -1\n0 0\n", 2, 1, "expected multiplicity, found 'x'"),
        ("matrix 2\n0\xa01.0\n0 0\n", 2, 3, "expected multiplicity, found '1.0'"),
        ("matrix 2\n0\u3000 -2\n0 0\n", 2, 4, "multiplicity must be non-negative"),
        ("edges 2\n0 1\n", 2, 1, "edge line needs 'i j k'"),
        ("edges 2\n0 1 1 1\n", 2, 1, "edge line needs 'i j k'"),
        ("edges 2\na 1 1\n", 2, 1, "expected source vertex, found 'a'"),
        ("edges 2\n0 b 1\n", 2, 3, "expected target vertex, found 'b'"),
        ("edges 2\n0 1 c\n", 2, 5, "expected multiplicity, found 'c'"),
        ("edges 2\n9 9 c\n", 2, 5, "expected multiplicity, found 'c'"),
        ("edges 2\n2 1 1\n", 2, 1, "source 2 out of range 0..1"),
        ("edges 2\n-1 0 1\n", 2, 1, "source -1 out of range 0..1"),
        ("edges 2\n0 5 1\n", 2, 3, "target 5 out of range 0..1"),
        ("edges 2\n0 1 0\n", 2, 5, "multiplicity must be at least 1"),
        ("edges 2\n0 1 -4\n", 2, 5, "multiplicity must be at least 1"),
        ("edges 2 # hdr\n0 1 1 # ok\n\t0\u2003 1 # short\n", 3, 2, "edge line needs 'i j k'"),
    ],
)
def test_parse_error_table(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


@pytest.mark.parametrize("kind, col", [("matrix", 8), ("edges", 7)])
def test_parse_refuses_a_vertex_count_past_the_budget(kind, col):
    with pytest.raises(ParseError) as exc:
        parse_graph(f"{kind} {MAX_VERTICES + 1}\n0 0 1\n")
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        1,
        col,
        f"{MAX_VERTICES + 1} vertices exceed the vertex budget of {MAX_VERTICES}",
    )


@pytest.mark.skipif(int_string_limit() == 0, reason="this Python has no int-string limit")
@pytest.mark.parametrize(
    "template, line, col, what",
    [
        ("matrix 1\n{big}\n", 2, 1, "multiplicity"),
        ("matrix 2\n0 +{big}\n0 0\n", 2, 3, "multiplicity"),
        ("matrix {big}\n", 1, 8, "vertex count"),
        ("edges 1\n{big} 0 1\n", 2, 1, "source vertex"),
        ("edges 1\n0 -{big} 1\n", 2, 3, "target vertex"),
        ("edges 1\n0 0 {big}\n", 2, 5, "multiplicity"),
    ],
    ids=["entry", "signed-entry", "vertex-count", "source", "target", "edge-multiplicity"],
)
def test_parse_names_the_int_string_limit(template, line, col, what):
    limit = int_string_limit()
    with pytest.raises(ParseError) as exc:
        parse_graph(template.format(big="9" * (limit + 700)))
    assert (exc.value.line, exc.value.col) == (line, col)
    assert exc.value.message == (
        f"{what} has {limit + 700} digits, more than Python's int-string "
        f"limit of {limit} (sys.get_int_max_str_digits())"
    )


# ---------------------------------------------------------------------------
# Isomorphism and canonical keys.


def test_is_isomorphic_examples():
    a = MultiGraph.from_matrix([[0, 2], [1, 0]])
    b = MultiGraph.from_matrix([[0, 1], [2, 0]])
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, MultiGraph.from_matrix([[0, 2], [2, 0]]))
    assert not is_isomorphic(a, _rose(1))


def test_is_isomorphic_respects_vertex_budget():
    g = MultiGraph.from_matrix([[1] * 9 for _ in range(9)])
    with pytest.raises(GraphError):
        is_isomorphic(g, g)


def test_is_isomorphic_compares_counts_before_the_vertex_budget():
    # Graphs whose vertex or edge counts differ are never isomorphic, so the
    # budget does not apply to them, whichever argument is the large one.
    big = MultiGraph.from_matrix([[1] * 9 for _ in range(9)])
    denser = MultiGraph.from_matrix([[2] + [1] * 8 for _ in range(9)])
    for a, b in [(big, _rose(2)), (_rose(2), big), (big, denser), (denser, big)]:
        assert not is_isomorphic(a, b)


def test_canonical_key_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(50):
        g = _rand_graph(rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_key(g.permuted(perm)) == canonical_key(g)


def test_canonical_permutation_gives_the_key_rows():
    rng = random.Random(29)
    # Random graphs, plus graphs whose refinement leaves ties to break.
    graphs = [_rand_graph(rng) for _ in range(50)]
    graphs.append(MultiGraph.from_matrix([[1] * 4] * 4))
    graphs.append(MultiGraph.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    for g in graphs:
        perm = canonical_permutation(g)
        assert sorted(perm) == list(range(g.n))
        assert g.permuted(perm).incidence().entries == canonical_key(g)


def test_canonical_key_separates_non_isomorphic_pairs():
    a = MultiGraph.from_matrix([[1, 1], [1, 0]])
    b = MultiGraph.from_matrix([[1, 1], [1, 1]])
    assert canonical_key(a) != canonical_key(b)


def test_canonical_key_agrees_with_isomorphism():
    rng = random.Random(24)
    for _ in range(50):
        a = _rand_graph(rng, max_n=3)
        b = _rand_graph(rng, max_n=3)
        assert (canonical_key(a) == canonical_key(b)) == is_isomorphic(a, b)


def _brute_form(m):
    """Smallest row-major matrix over every vertex permutation: the
    brute-force canonical form, sharing no code with the refinement."""
    n = len(m)
    return min(
        tuple(m[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
    )


def _permute(m, p):
    n = len(m)
    return [[m[p[i]][p[j]] for j in range(n)] for i in range(n)]


def test_canonical_key_matches_brute_force_oracle(hypothesis_api):
    # Exhaustively up to 3 vertices with entries 0..1: equal keys exactly
    # when the brute-force forms agree.
    for n in range(1, 4):
        classes = {}
        for flat in itertools.product(range(2), repeat=n * n):
            m = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            classes.setdefault(_brute_form(m), set()).add(canonical_rows_key(tuple(map(tuple, m))))
        assert all(len(keys) == 1 for keys in classes.values())
        assert len(set().union(*classes.values())) == len(classes)

    # Regular graphs that colour refinement cannot tell apart.
    c6 = [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]
    two_c3 = [[int(j == 3 * (i // 3) + (i + 1) % 3) for j in range(6)] for i in range(6)]
    assert canonical_rows_key(c6) != canonical_rows_key(two_c3)

    hyp, st = hypothesis_api

    @hyp.settings(max_examples=120, deadline=None)
    @hyp.given(_square_matrices(st), st.data())
    def check(a, data):
        n = len(a)
        perm = data.draw(st.permutations(range(n)))
        b = _permute(a, perm)
        assert canonical_rows_key(b) == canonical_rows_key(a)
        # A switch keeps every row and column sum, so refinement starts from
        # the same degrees; then permute, and compare with the oracle.
        i, j, k, l = (data.draw(st.integers(0, n - 1)) for _ in range(4))
        if b[i][j] and b[k][l]:
            b[i][j] -= 1
            b[k][l] -= 1
            b[i][l] += 1
            b[k][j] += 1
        b = _permute(b, data.draw(st.permutations(range(n))))
        same = canonical_rows_key(b) == canonical_rows_key(a)
        assert same == (_brute_form(b) == _brute_form(a))
        g = MultiGraph.from_matrix(b)
        assert canonical_key(g) == canonical_rows_key(b)

    check()


def _refinement_cells_reference(m):
    """Colour refinement as it was before discrete rounds were sorted once:
    every round ranks the sorted signatures through a dict and keeps the
    new ranks, and the cells are built from the last ranks.  Kept as an
    oracle for :func:`flowinv.graph._refinement_cells`."""
    n = len(m)
    cols = tuple(zip(*m))

    def rank(sigs):
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        return [index[s] for s in sigs], len(index)

    colors, count = rank(
        [(m[v][v], tuple(sorted(zip(m[v], cols[v])))) for v in range(n)]
    )
    while count < n:
        colors, new_count = rank(
            [
                (colors[v], tuple(sorted(zip(colors, m[v], cols[v]))))
                for v in range(n)
            ]
        )
        if new_count == count:
            break
        count = new_count
    cells = [[] for _ in range(count)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _canonical_order_over_every_cell(m):
    """The canonical order as it was found before discrete refinements were
    read off directly: the product of every reference cell's permutations,
    singleton cells included, each order's rows built and compared.  Kept
    as an oracle."""
    cells = _refinement_cells_reference(m)
    best = best_order = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        rows = [tuple([m[i][j] for j in order]) for i in order]
        if best is None or rows < best:
            best, best_order = rows, order
    return best_order, tuple(best)


def _check_against_reference(m):
    """The cells, the canonical order with its rows, and the canonical
    permutation of ``m`` are those of the reference; returns whether the
    refinement was discrete."""
    cells = _refinement_cells(m)
    assert [list(c) for c in cells] == _refinement_cells_reference(m), m
    order, rows = _canonical_order_over_every_cell(m)
    assert _canonical_order(m) == (order, rows), m
    perm = [0] * len(m)
    for pos, old in enumerate(order):
        perm[old] = pos
    assert canonical_permutation(MultiGraph.from_matrix(m)) == tuple(perm), m
    return len(cells) == len(m)


def _circulant(first_row):
    n = len(first_row)
    return tuple(tuple(first_row[(j - i) % n] for j in range(n)) for i in range(n))


def test_canonical_key_refuses_cells_past_the_order_budget(monkeypatch):
    # A circulant v -> v+1, v+2 is one refinement cell, so n vertices allow
    # n! orders: 10 and 11 are past 9! and refused before any is tried.
    for n in (10, 11):
        with pytest.raises(GraphError, match=r"more than 362,880 \(9!\) vertex orders"):
            canonical_rows_key(_circulant([0, 1, 1] + [0] * (n - 3)))
    # The budget bounds the product over the cells, and a key at the budget
    # is answered: with a budget of 4!, the 4-cycle keys, and so does a
    # 3-cycle with loops beside a 3-cycle without, two cells of 3! orders
    # each, until the budget is one below their 36.
    monkeypatch.setattr(flowinv.graph, "_ORDER_BUDGET", 24)
    four = _circulant([0, 1, 0, 0])
    assert canonical_rows_key(four) == _canonical_order_over_every_cell(four)[1]
    with pytest.raises(GraphError):
        canonical_rows_key(_circulant([0, 1, 0, 0, 0]))
    pair = tuple(
        tuple(int(i // 3 == j // 3 and (j - i) % 3 in ((0, 1) if i < 3 else (1,))) for j in range(6))
        for i in range(6)
    )
    assert len(_refinement_cells(pair)) == 2
    with pytest.raises(GraphError):
        canonical_rows_key(pair)
    monkeypatch.setattr(flowinv.graph, "_ORDER_BUDGET", 36)
    assert canonical_rows_key(pair) == _canonical_order_over_every_cell(pair)[1]


def test_discrete_refinement_order_matches_product_oracle():
    # Seeded random matrices up to 6 vertices with entries 0..3, which
    # mostly refine to singletons, and circulants and complete graphs, which
    # are regular, so refinement leaves them one cell: both branches run.
    rng = random.Random(16)
    cases = [
        tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        for n in range(1, 7)
        for _ in range(150)
    ]
    for n in range(2, 7):
        for _ in range(8):
            cases.append(_circulant([rng.randint(0, 3) for _ in range(n)]))
        cases.extend(tuple((k,) * n for _ in range(n)) for k in range(1, 4))
    discrete = sum(map(_check_against_reference, cases))
    assert 0 < discrete < len(cases)


def test_refinement_matches_reference_on_drawn_matrices(hypothesis_api):
    hyp, st = hypothesis_api

    square = st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 3)] * n), min_size=n, max_size=n
        ).map(tuple)
    )
    # A permuted circulant is regular, so its refinement stops at once with
    # cells of two or more vertices, whose orders are then compared.
    circulant = st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    ).map(lambda cp: tuple(tuple(_circulant(cp[0])[i][j] for j in cp[1]) for i in cp[1]))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.one_of(square, circulant))
    def check(m):
        _check_against_reference(m)

    check()
