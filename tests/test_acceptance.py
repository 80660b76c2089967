"""Acceptance gate: the primary criteria, one printed verdict line each.

Every test here states a criterion number, runs the full randomized load at
the stated tolerance, and prints a single ``[acceptance]`` line that survives
pytest's capture, so a plain ``pytest -v`` run shows the ten verdicts.
"""

from __future__ import annotations

import random
import time

from flowinv.classify import TAG_SIGN_GAP, TAG_UNIT_MISMATCH, decide
from flowinv.cli import main
from flowinv.exactla import (
    AbelianGroup,
    IntMatrix,
    Ternary,
    cokernel,
    det,
    group_iso,
    pointed_equivalent,
    smith_normal_form,
)
from flowinv.flowsearch import SearchStats, find_sequence, verify_sequence
from flowinv.graph import MultiGraph, classify_graph, is_isomorphic, sources, transpose
from flowinv.invariants import bowen_franks_matrix, equiv_det_pair, franks_triple
from flowinv.moves import (
    Partition,
    contract,
    eliminate_source,
    expand,
    in_amalgamate,
    in_split,
    minus,
    minus1,
    out_amalgamate,
    out_split,
)


def _report(capsys, number: int, name: str, started: float, budget: float | None):
    elapsed = time.monotonic() - started
    stamp = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget is not None else "")
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({name}): PASS ({stamp})")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"


def _rose(petals: int) -> MultiGraph:
    return MultiGraph.from_matrix([[petals]])


def _rand_pis_nosource(rng: random.Random, max_n: int) -> MultiGraph:
    while True:
        n = rng.randint(1, max_n)
        g = MultiGraph.from_matrix(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        )
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


def _bf_pair(g: MultiGraph):
    b = bowen_franks_matrix(g)
    group, _ = cokernel(b)
    return group, det(b)


def _assert_pair_preserved(before: MultiGraph, after: MultiGraph, what: str):
    group_a, det_a = _bf_pair(before)
    group_b, det_b = _bf_pair(after)
    assert det_a == det_b, f"{what} changed det: {det_a} -> {det_b}"
    assert group_iso(group_a, group_b), f"{what} changed group: {group_a} -> {group_b}"


def test_criterion_1_rose_and_companion(capsys):
    started = time.monotonic()
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    for g in (_rose(4), companion):
        t = franks_triple(g)
        assert t.group == AbelianGroup(torsion=(3,))
        assert t.unit_class == (1,)
        assert t.determinant == -3
        assert t.pis
    verdict = decide(_rose(4), companion)
    assert verdict.morita is Ternary.YES and verdict.isomorphic is Ternary.YES
    assert verdict.levels[0] == "Isomorphic"
    _report(capsys, 1, "rose and companion isomorphic", started, 1.0)


def test_criterion_2_sign_gap_pair(capsys):
    started = time.monotonic()
    two = MultiGraph.from_matrix([[1, 1], [1, 1]])
    two_minus = minus(two)
    assert two_minus.incidence().to_lists() == [
        [1, 1, 0, 0],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
    ]
    s, t = franks_triple(two), franks_triple(two_minus)
    assert s.group.is_trivial and s.unit_class == () and s.determinant == -1
    assert t.group.is_trivial and t.unit_class == () and t.determinant == 1
    verdict = decide(two, two_minus)
    assert verdict.morita is Ternary.UNKNOWN and verdict.isomorphic is Ternary.UNKNOWN
    assert verdict.reason_tag == TAG_SIGN_GAP
    _report(capsys, 2, "determinant-sign gap is left open", started, 1.0)


def test_criterion_3_transpose_example(capsys):
    started = time.monotonic()
    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    s, t = franks_triple(g), franks_triple(transpose(g))
    assert s.group == AbelianGroup(torsion=(2,)) and t.group == AbelianGroup(torsion=(2,))
    assert s.unit_class == (1,) and t.unit_class == (0,)
    verdict = decide(g, transpose(g))
    assert verdict.morita is Ternary.YES and verdict.isomorphic is Ternary.NO
    assert verdict.reason_tag == TAG_UNIT_MISMATCH
    assert verdict.levels == ("MoritaEquivalent", "NotIsomorphic")
    _report(capsys, 3, "transpose pair Morita but not isomorphic", started, 1.0)


def test_criterion_4_standard_moves_preserve_the_pair(capsys):
    started = time.monotonic()
    rng = random.Random(1004)
    rounds = 200

    for _ in range(rounds):
        g = _rand_pis_nosource(rng, 6)
        res = in_split(g, _rand_partition(rng, g, "in"))
        _assert_pair_preserved(g, res.graph, "in-split")
        _assert_pair_preserved(res.graph, in_amalgamate(res.graph, res.blocks), "in-amalgamate")

    for _ in range(rounds):
        g = _rand_pis_nosource(rng, 6)
        res = out_split(g, _rand_partition(rng, g, "out"))
        _assert_pair_preserved(g, res.graph, "out-split")
        _assert_pair_preserved(res.graph, out_amalgamate(res.graph, res.blocks), "out-amalgamate")

    for _ in range(rounds):
        g = _rand_pis_nosource(rng, 6)
        v = rng.randrange(g.n)
        bigger = expand(g, v)
        _assert_pair_preserved(g, bigger, "expand")
        _assert_pair_preserved(bigger, contract(bigger, v, g.n), "contract")

    for _ in range(rounds):
        g = _rand_pis_nosource(rng, 6)
        rows = [list(r) + [0] for r in g.incidence().to_lists()]
        feed = [0] * g.n + [0]
        for _ in range(rng.randint(1, 2)):
            feed[rng.randrange(g.n)] += 1
        rows.append(feed)
        fed = MultiGraph.from_matrix(rows)
        assert sources(fed) == [g.n]
        _assert_pair_preserved(fed, eliminate_source(fed, g.n), "eliminate")

    _report(capsys, 4, "200 runs per standard move preserve (group, det)", started, 60.0)


def test_criterion_5_sign_gadgets(capsys):
    started = time.monotonic()
    rng = random.Random(1005)
    for _ in range(50):
        g = _rand_pis_nosource(rng, 5)
        group, d = _bf_pair(g)

        group_m, d_m = _bf_pair(minus(g))
        assert d_m == -d
        assert group_iso(group_m, group)

        t, t1 = franks_triple(g), franks_triple(minus1(g))
        assert t1.determinant == -t.determinant
        assert pointed_equivalent(t.pointed, t1.pointed) is Ternary.YES
    _report(capsys, 5, "minus and minus1 negate det, keep the group data", started, None)


def test_criterion_6_smith_normal_form_contract(capsys):
    started = time.monotonic()
    rng = random.Random(1006)
    for _ in range(500):
        n = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        dec = smith_normal_form(a)
        assert dec.u @ a @ dec.v == dec.s
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        diag = dec.diagonal()
        nonzero = [x for x in diag if x]
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        product = 1
        for x in diag:
            product *= x
        assert abs(det(a)) == product
    _report(capsys, 6, "500 Smith decompositions satisfy the contract", started, 30.0)


def test_criterion_7_split_factorization(capsys):
    started = time.monotonic()
    rng = random.Random(1007)
    for _ in range(100):
        g = _rand_pis_nosource(rng, 5)
        res = in_split(g, _rand_partition(rng, g, "in"))
        fac = res.factorization
        assert (fac.r @ fac.s) == g.incidence()
        assert (fac.s @ fac.r) == res.graph.incidence()
    _report(capsys, 7, "100 in-splits factor as A=RS with SR the split", started, None)


def test_criterion_8_transpose_duality(capsys):
    started = time.monotonic()
    rng = random.Random(1008)
    for _ in range(50):
        n = rng.randint(1, 4)
        g = MultiGraph.from_matrix(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        )
        p = _rand_partition(rng, g, "out")
        lhs = out_split(g, p).graph
        rhs = transpose(in_split(transpose(g), p).graph)
        assert lhs == rhs  # bit-exact, stronger than the isomorphism asked for
    _report(capsys, 8, "out-split is the transpose-conjugate of in-split", started, None)


def test_criterion_9_search_recovers_scrambles(capsys):
    from flowinv.flowsearch import _neighbors, _realize

    started = time.monotonic()
    rng = random.Random(1009)
    for _ in range(25):
        base = _rand_pis_nosource(rng, 3)
        goal = base
        for _ in range(3):
            nbrs = list(
                _neighbors(
                    goal.incidence().entries,
                    max_vertices=6,
                    entry_cap=9,
                    partition_cap=64,
                    stats=SearchStats(),
                )
            )
            kind, _, recipe = rng.choice(nbrs)
            _, goal = _realize(goal, kind, recipe)
        seq = find_sequence(base, goal, max_depth=6)
        assert verify_sequence(seq)
        assert is_isomorphic(seq.end, goal)
        want = franks_triple(base)
        for step in seq.steps:
            assert equiv_det_pair(want, franks_triple(step.graph))
    _report(capsys, 9, "25 three-move scrambles recovered within depth 6", started, 300.0)


def test_criterion_10_selftest_exits_zero(capsys):
    started = time.monotonic()
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("0 failed")
    _report(capsys, 10, "built-in selftest replays all worked examples", started, None)
