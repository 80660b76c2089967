"""Decision procedure for Morita equivalence and isomorphism."""

from __future__ import annotations

import json
import os
import random

import pytest

from flowinv.classify import (
    TAG_K0_MISMATCH,
    TAG_NON_PIS,
    TAG_SIGN_GAP,
    TAG_TRIPLE_MATCH,
    TAG_UNIT_MISMATCH,
    decide,
    decide_transpose,
)
from flowinv.exactla import Ternary
from flowinv.graph import MultiGraph, classify_graph, int_string_limit, transpose
from flowinv.invariants import franks_triple
from flowinv.moves import (
    DrinenVector,
    Partition,
    eliminate_source,
    expand,
    in_delay,
    in_split,
    minus,
    out_delay,
    out_split,
)


def _rose(petals: int) -> MultiGraph:
    return MultiGraph.from_matrix([[petals]])


def _rand_pis_graph(rng: random.Random, max_n: int = 4) -> MultiGraph:
    while True:
        g = MultiGraph.from_matrix(
            [
                [rng.randint(0, 2) for _ in range(n)]
                for n in [rng.randint(1, max_n)]
                for _ in range(n)
            ]
        )
        r = classify_graph(g)
        if r.purely_infinite_simple and not r.has_sources:
            return g


# ---------------------------------------------------------------------------
# The three worked decision examples.


def test_decide_isomorphic_pair():
    v = decide(_rose(4), MultiGraph.from_matrix([[1, 1], [3, 2]]))
    assert v.morita is Ternary.YES and v.isomorphic is Ternary.YES
    assert v.reason_tag == TAG_TRIPLE_MATCH
    assert v.levels == ("Isomorphic", "MoritaEquivalent")
    assert v.witness["left"]["group"] == {"torsion": [3], "free_rank": 0}


def test_decide_sign_gap_pair():
    v = decide(_rose(2), minus(_rose(2)))
    assert v.morita is Ternary.UNKNOWN and v.isomorphic is Ternary.UNKNOWN
    assert v.reason_tag == TAG_SIGN_GAP
    assert v.levels == ("Unknown",)
    assert v.witness["left"]["det"] == -1 and v.witness["right"]["det"] == 1


def test_decide_unit_class_mismatch():
    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    v = decide(g, transpose(g))
    assert v.morita is Ternary.YES and v.isomorphic is Ternary.NO
    assert v.reason_tag == TAG_UNIT_MISMATCH
    assert v.levels == ("MoritaEquivalent", "NotIsomorphic")


def test_decide_transpose_matches_decide():
    cases = [
        ([[1, 1, 1], [0, 0, 1], [1, 0, 0]], TAG_UNIT_MISMATCH),
        ([[1, 2], [3, 1]], TAG_TRIPLE_MATCH),
        ([[0, 1], [0, 0]], TAG_NON_PIS),
    ]
    for rows, tag in cases:
        g = MultiGraph.from_matrix(rows)
        v = decide_transpose(g)
        w = decide(g, transpose(g))
        assert v.morita is w.morita and v.isomorphic is w.isomorphic
        assert v.reason_tag == w.reason_tag == tag
        assert v.to_dict() == w.to_dict()


# ---------------------------------------------------------------------------
# Refutations and refusals.


def test_decide_group_mismatch_refutes_both():
    v = decide(_rose(4), _rose(3))  # Z/3 versus Z/2
    assert v.morita is Ternary.NO and v.isomorphic is Ternary.NO
    assert v.reason_tag == TAG_K0_MISMATCH
    assert v.levels == ("NotMoritaEquivalent", "NotIsomorphic")


def test_decide_refuses_non_pis_input():
    line = MultiGraph.from_matrix([[0, 1], [0, 0]])
    v = decide(line, _rose(4))
    assert v.morita is Ternary.UNKNOWN and v.isomorphic is Ternary.UNKNOWN
    assert v.reason_tag == TAG_NON_PIS
    assert v.levels == ("Unknown",)
    assert not v.witness["left_report"]["purely_infinite_simple"]
    assert v.witness["right_report"]["purely_infinite_simple"]


def test_decide_reports_each_graph_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return classify_graph(g)

    monkeypatch.setattr("flowinv.classify.classify_graph", counted)
    monkeypatch.setattr("flowinv.invariants.classify_graph", counted)
    e, f = _rose(4), MultiGraph.from_matrix([[1, 1], [3, 2]])
    assert decide(e, f).reason_tag == TAG_TRIPLE_MATCH
    assert calls == [e, f]
    calls.clear()
    assert decide(MultiGraph.from_matrix([[0, 1], [0, 0]]), e).reason_tag == TAG_NON_PIS
    assert len(calls) == 2


def test_decide_transpose_refuses_non_pis_input():
    v = decide_transpose(MultiGraph.from_matrix([[0, 1], [0, 0]]))
    assert v.reason_tag == TAG_NON_PIS


def test_sign_gap_with_unit_mismatch_still_refutes_isomorphism():
    # Both graphs have group Z/2; determinants -2 and +2; unit classes (1,)
    # and (0,). The sign gap leaves Morita open but units refute isomorphism.
    g = MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])
    h = minus(transpose(g))
    v = decide(g, h)
    assert v.reason_tag == TAG_SIGN_GAP
    assert v.morita is Ternary.UNKNOWN and v.isomorphic is Ternary.NO
    assert v.levels == ("NotIsomorphic", "Unknown")


# ---------------------------------------------------------------------------
# Structural properties.


def test_decide_is_symmetric():
    rng = random.Random(61)
    for _ in range(25):
        e, f = _rand_pis_graph(rng), _rand_pis_graph(rng)
        v, w = decide(e, f), decide(f, e)
        assert v.morita is w.morita
        assert v.isomorphic is w.isomorphic


def test_decide_is_reflexively_isomorphic():
    rng = random.Random(62)
    for _ in range(25):
        g = _rand_pis_graph(rng)
        v = decide(g, g)
        assert v.morita is Ternary.YES and v.isomorphic is Ternary.YES


def test_standard_moves_never_separate():
    rng = random.Random(63)
    for _ in range(25):
        g = _rand_pis_graph(rng)
        moved = [expand(g, rng.randrange(g.n))]
        p = Partition.trivial(g, "in")
        moved.append(in_split(g, p).graph)
        moved.append(out_split(g, Partition.singletons(g, "out")).graph)
        edges = {e.id: rng.randint(0, 1) for e in g.edges}
        moved.append(out_delay(g, DrinenVector.from_edges(g, "source", edges)))
        moved.append(in_delay(g, DrinenVector.from_edges(g, "range", edges)))
        for h in moved:
            v = decide(g, h)
            assert v.morita is not Ternary.NO, (g, h)
            assert v.reason_tag != TAG_SIGN_GAP


def test_minus_on_nonzero_det_lands_in_the_sign_gap():
    from flowinv.invariants import franks_triple

    rng = random.Random(64)
    found = 0
    while found < 25:
        g = _rand_pis_graph(rng)
        if franks_triple(g).determinant == 0:
            continue
        found += 1
        v = decide(g, minus(g))
        assert v.reason_tag == TAG_SIGN_GAP
        assert v.morita is Ternary.UNKNOWN


def test_source_elimination_preserves_the_verdict():
    g = MultiGraph.from_matrix(
        [[0, 1, 1, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 0, 1]]
    )
    assert classify_graph(g).has_sources
    v = decide(eliminate_source(g, 0), g)
    assert v.morita is Ternary.YES and v.isomorphic is Ternary.YES


def test_verdict_to_dict_shape():
    d = decide(_rose(4), _rose(4)).to_dict()
    assert list(d) == ["morita", "isomorphic", "levels", "reason_tag", "reason", "witness"]
    assert d["morita"] == "yes" and d["isomorphic"] == "yes"
    assert d["levels"] == ["Isomorphic", "MoritaEquivalent"]


@pytest.mark.parametrize(
    "left, right, reason",
    [
        (
            [[3, 2], [3, 3]],
            [[2, 1], [1, 1]],
            "Bowen-Franks groups differ: Z/2 versus 0",
        ),
        (
            [[2, 0], [1, 0]],
            [[2]],
            "group, unit class and determinant all match: 0, unit [], det -1",
        ),
        (
            [[3]],
            [[3, 0], [1, 0]],
            "group and determinant match, but no automorphism of Z/2 carries "
            "unit class [1] to [0]",
        ),
        (
            [[0, 1], [3, 1]],
            [[2, 3, 1], [2, 2, 0], [0, 1, 2]],
            "determinants -3 and 3 differ in sign; whether a sign flip can "
            "separate Morita classes is an open hypothesis, so no verdict is "
            "returned",
        ),
        (
            [[1, 2], [3, 0]],
            [[3, 1, 2], [3, 3, 0], [3, 1, 1]],
            "determinants -6 and 6 differ in sign (whether that separates Morita "
            "classes is open), and the unit classes already rule out isomorphism",
        ),
    ],
    ids=["k0", "triple", "unit", "sign-unknown", "sign-no"],
)
def test_reason_texts_are_pinned(left, right, reason):
    # One pair per branch of decide that writes integers; the texts are
    # the ones decide wrote before it learnt to write long integers by
    # their bit length.
    v = decide(MultiGraph.from_matrix(left), MultiGraph.from_matrix(right))
    assert v.reason == reason


def test_verdicts_match_golden_file():
    # One pair per branch of decide, the two determinant-sign-gap branches
    # and the non-PIS refusal included: morita, isomorphic, levels, tag,
    # reason and witness, compared as JSON text so the key order at every
    # depth is pinned too.
    path = os.path.join(os.path.dirname(__file__), "data", "verdicts_golden.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 6
    for case in cases:
        left = MultiGraph.from_matrix(case["left"])
        right = MultiGraph.from_matrix(case["right"])
        got = json.dumps(decide(left, right).to_dict())
        assert got == json.dumps(case["expect"]), case["branch"]


@pytest.mark.skipif(int_string_limit() == 0, reason="this Python has no int-string limit")
def test_decide_past_the_int_string_limit_returns_a_verdict():
    # det, the torsion and the unit class have about twice as many digits
    # as the entries, more than str() may write, so the reason names their
    # bit lengths instead of raising ValueError.
    big = int("9" * (int_string_limit() - 300))
    g = MultiGraph.from_matrix([[big, 1], [1, big]])
    t = franks_triple(g)
    assert t.determinant == big * (big - 2)  # (1 - big)^2 - 1
    bits = t.determinant.bit_length()
    unit_bits = t.unit_class[0].bit_length()
    assert unit_bits > int_string_limit() * 3.33
    v = decide_transpose(g)
    assert (v.morita, v.isomorphic, v.reason_tag) == (Ternary.YES, Ternary.YES, TAG_TRIPLE_MATCH)
    assert v.reason == (
        f"group, unit class and determinant all match: Z/an integer of {bits} "
        f"bits, unit [an integer of {unit_bits} bits], det an integer of {bits} bits"
    )

    # The sign gadget at v1, built on the matrix: det changes sign.
    h = MultiGraph.from_matrix(
        [[big, 1, 0, 0], [1, big, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]
    )
    v = decide(g, h)
    assert v.reason_tag == TAG_SIGN_GAP
    assert v.reason.startswith(
        f"determinants an integer of {bits} bits and a negative integer of "
        f"{bits} bits differ in sign"
    )
