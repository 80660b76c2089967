"""Flow-equivalence invariants: the pointed Bowen-Franks group and determinant."""

from __future__ import annotations

import json
import os
import random

from flowinv.exactla import AbelianGroup, IntMatrix, Ternary, det
from flowinv.graph import MultiGraph, transpose
from flowinv.invariants import (
    bowen_franks_matrix,
    equiv_det_pair,
    equiv_triple,
    equiv_unitary_pair,
    franks_triple,
)
from flowinv.moves import minus


def _rose(petals: int) -> MultiGraph:
    return MultiGraph.from_matrix([[petals]])


def _rand_graph(rng: random.Random, max_n: int = 4, max_mult: int = 2) -> MultiGraph:
    n = rng.randint(1, max_n)
    return MultiGraph.from_matrix(
        [[rng.randint(0, max_mult) for _ in range(n)] for _ in range(n)]
    )


def test_bowen_franks_matrix_is_i_minus_a_transpose():
    g = MultiGraph.from_matrix([[1, 2], [3, 4]])
    assert bowen_franks_matrix(g).to_lists() == [[0, -3], [-2, -3]]


def test_bowen_franks_matrix_equals_the_matrix_arithmetic():
    rng = random.Random(13)
    for _ in range(50):
        g = _rand_graph(rng, max_n=9, max_mult=3)
        b = bowen_franks_matrix(g)
        assert b == IntMatrix.identity(g.n) - g.incidence().transpose()
        assert all(type(x) is int for row in b.entries for x in row)


def test_triple_det_is_the_bareiss_det():
    rng = random.Random(14)
    for _ in range(80):
        g = _rand_graph(rng, max_n=7, max_mult=3)
        assert franks_triple(g).determinant == det(bowen_franks_matrix(g))


def test_triple_of_the_four_petal_rose():
    t = franks_triple(_rose(4))
    assert t.group == AbelianGroup(torsion=(3,))
    assert t.unit_class == (1,)
    assert t.determinant == -3
    assert t.pis


def test_triple_of_the_companion_two_vertex_graph():
    t = franks_triple(MultiGraph.from_matrix([[1, 1], [3, 2]]))
    assert t.group == AbelianGroup(torsion=(3,))
    assert t.unit_class == (1,)
    assert t.determinant == -3
    assert t.pis


def test_triples_of_the_sign_gap_pair():
    plain = franks_triple(_rose(2))
    gadget = franks_triple(minus(_rose(2)))
    assert plain.group.is_trivial and gadget.group.is_trivial
    assert plain.unit_class == () and gadget.unit_class == ()
    assert plain.determinant == -1 and gadget.determinant == 1
    assert plain.pis and gadget.pis


def test_triple_of_transpose_pair_differs_only_in_unit():
    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    s, t = franks_triple(g), franks_triple(transpose(g))
    assert s.group == AbelianGroup(torsion=(2,)) and t.group == AbelianGroup(torsion=(2,))
    assert s.determinant == t.determinant == -2
    assert s.unit_class == (1,) and t.unit_class == (0,)
    assert s.pis and t.pis


def test_triple_to_dict_shape():
    d = franks_triple(_rose(4)).to_dict()
    assert d == {
        "group": {"torsion": [3], "free_rank": 0},
        "unit": [1],
        "det": -3,
        "pis": True,
    }


def test_equivalence_functions_on_worked_pairs():
    rose = franks_triple(_rose(4))
    companion = franks_triple(MultiGraph.from_matrix([[1, 1], [3, 2]]))
    assert equiv_det_pair(rose, companion)
    assert equiv_unitary_pair(rose, companion) is Ternary.YES
    assert equiv_triple(rose, companion) is Ternary.YES

    plain = franks_triple(_rose(2))
    gadget = franks_triple(minus(_rose(2)))
    assert not equiv_det_pair(plain, gadget)
    assert equiv_unitary_pair(plain, gadget) is Ternary.YES
    assert equiv_triple(plain, gadget) is Ternary.NO

    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    s, t = franks_triple(g), franks_triple(transpose(g))
    assert equiv_det_pair(s, t)
    assert equiv_unitary_pair(s, t) is Ternary.NO
    assert equiv_triple(s, t) is Ternary.NO


def test_group_mismatch_fails_every_equivalence():
    a = franks_triple(_rose(4))  # Z/3
    b = franks_triple(_rose(3))  # Z/2
    assert not equiv_det_pair(a, b)
    assert equiv_unitary_pair(a, b) is Ternary.NO
    assert equiv_triple(a, b) is Ternary.NO


def test_transpose_preserves_group_and_determinant():
    rng = random.Random(51)
    for _ in range(50):
        g = _rand_graph(rng)
        assert equiv_det_pair(franks_triple(g), franks_triple(transpose(g)))


def test_singular_matrix_gives_free_rank():
    # I - A^t = 0 for a one-loop vertex: the group is Z and det is 0.
    t = franks_triple(_rose(1))
    assert t.group == AbelianGroup(free_rank=1)
    assert t.determinant == 0
    assert not t.pis


def test_unit_class_is_all_ones_image():
    rng = random.Random(52)
    for _ in range(30):
        g = _rand_graph(rng)
        from flowinv.exactla import cokernel

        _, proj = cokernel(bowen_franks_matrix(g))
        assert franks_triple(g).unit_class == proj([1] * g.n)


def test_franks_triples_match_golden_file():
    # Triples of 40 seeded graphs (dense n 1..24, sparse, and singular ones
    # with a free part), written by the Smith elimination that built U and V
    # in full.  The unit coordinates depend on every row operation, so any
    # change to the pivot order or the operations shows here.
    path = os.path.join(os.path.dirname(__file__), "data", "franks_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 40
    for case in cases:
        triple = franks_triple(MultiGraph.from_matrix(case["matrix"]))
        assert triple.to_dict() == case["triple"], f"{case['kind']} n={case['n']}"
