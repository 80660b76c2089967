"""Directed multigraphs: structure, classification, text format, isomorphism."""

from __future__ import annotations

import itertools
import random

import pytest

from flowinv.graph import (
    GraphError,
    MultiGraph,
    ParseError,
    canonical_key,
    canonical_permutation,
    canonical_rows_key,
    classify_graph,
    format_graph,
    incidence_matrix,
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


def _square_matrices(st):
    """Hypothesis strategy: square matrices up to 6 by 6, entries 0..4."""
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def test_matrix_built_graph_matches_eager_edge_list():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

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


def test_report_matches_reference_on_drawn_graphs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

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


def test_canonical_key_matches_brute_force_oracle():
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

    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

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
