"""Built-in worked examples, replayed end to end as a self-test.

These are the small graphs the package's guarantees are calibrated against:
the rose with four petals and its partner F, the parallel-edge pair whose
sign gadget opens the determinant-sign gap, the three-vertex graph whose
transpose has a different unit class, and the splitting, expansion, source
elimination and delay pictures.  Each check is a named callable; failures
carry the exact mismatch.  :func:`run_selftest` replays everything plus a
small seeded random sweep and reports one row per check.
"""

from __future__ import annotations

import random

from flowinv.classify import (
    TAG_SIGN_GAP,
    TAG_TRIPLE_MATCH,
    TAG_UNIT_MISMATCH,
    decide,
    decide_transpose,
)
from flowinv.exactla import (
    AbelianGroup,
    IntMatrix,
    PointedGroup,
    Ternary,
    cokernel,
    det,
    group_iso,
    pointed_equivalent,
)
from flowinv.graph import (
    MultiGraph,
    classify_graph,
    incidence_matrix,
    is_isomorphic,
    sinks,
    sources,
    transpose,
)
from flowinv.invariants import (
    bowen_franks_matrix,
    equiv_det_pair,
    equiv_triple,
    equiv_unitary_pair,
    franks_triple,
)
from flowinv.moves import (
    DrinenVector,
    Partition,
    eliminate_source,
    expand,
    contract,
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
    verify_vertex_class_map,
)


class CheckFailure(AssertionError):
    """A self-test check did not reproduce its expected value."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# The named graphs.


def rose(petals: int) -> MultiGraph:
    """One vertex with ``petals`` loops."""
    return MultiGraph(1, [(0, 0)] * petals)


def two_graph() -> MultiGraph:
    """Two vertices, all four possible edges: incidence [[1,1],[1,1]]."""
    return MultiGraph.from_matrix([[1, 1], [1, 1]])


def f_graph() -> MultiGraph:
    """The rose's isomorphism partner: incidence [[1,1],[3,2]]."""
    return MultiGraph.from_matrix([[1, 1], [3, 2]])


def split_example() -> MultiGraph:
    """Loop at v, v -> w, w -> v: the splitting picture."""
    return MultiGraph.from_matrix([[1, 1], [1, 0]], labels=["v", "w"])


def expansion_example() -> MultiGraph:
    """Loop at v fed by a 2-path back into itself: the expansion picture."""
    return MultiGraph.from_matrix(
        [[1, 0, 1], [1, 0, 0], [0, 1, 0]], labels=["v", "b1", "b2"]
    )


def source_example() -> MultiGraph:
    """A 2-cycle with a source v feeding it."""
    return MultiGraph.from_matrix(
        [[0, 0, 1], [0, 0, 1], [0, 1, 0]], labels=["v", "p1", "p2"]
    )


def transpose_example() -> MultiGraph:
    """Three vertices whose transpose carries a different unit class."""
    return MultiGraph.from_matrix([[1, 1, 1], [0, 0, 1], [1, 0, 0]])


# ---------------------------------------------------------------------------
# Checks.  Each takes the shared seeded generator (most ignore it).

_CHECKS: list[tuple[str, object]] = []


def _check(name: str):
    def register(fn):
        _CHECKS.append((name, fn))
        return fn

    return register


@_check("incidence-rose")
def _incidence_rose(rng) -> None:
    _expect(incidence_matrix(rose(4)).to_lists() == [[4]], "rose incidence is (4)")


@_check("incidence-parallel-pair")
def _incidence_parallel_pair(rng) -> None:
    _expect(
        incidence_matrix(two_graph()).to_lists() == [[1, 1], [1, 1]],
        "parallel pair incidence",
    )


@_check("transpose-three-vertex")
def _transpose_three_vertex(rng) -> None:
    got = incidence_matrix(transpose(transpose_example())).to_lists()
    _expect(got == [[1, 0, 1], [1, 0, 0], [1, 1, 0]], f"transposed incidence {got}")


@_check("classify-rose")
def _classify_rose(rng) -> None:
    report = classify_graph(rose(4))
    _expect(report.purely_infinite_simple, "rose is purely infinite simple")
    _expect(report.irreducible, "rose is irreducible")
    _expect(not report.trivial, "rose is nontrivial")


@_check("sources-of-fed-cycle")
def _sources_of_fed_cycle(rng) -> None:
    g = source_example()
    _expect(sources(g) == [g.vertex("v")], "v is the only source")
    _expect(sinks(g) == [], "no sinks")


@_check("det-one-by-one")
def _det_one_by_one(rng) -> None:
    b = bowen_franks_matrix(rose(4))
    _expect(b.to_lists() == [[-3]], f"I - A^t of the rose is {b.to_lists()}")
    _expect(det(b) == -3, "det is -3")


@_check("det-two-by-two")
def _det_two_by_two(rng) -> None:
    _expect(det(IntMatrix.from_rows([[0, -3], [-1, -1]])) == -3, "det is -3")


@_check("cokernel-order-three")
def _cokernel_order_three(rng) -> None:
    group, project = cokernel(IntMatrix.from_rows([[-3]]))
    _expect(group.torsion == (3,) and group.free_rank == 0, f"group is {group}")
    _expect(project([1]) == (1,), f"unit projects to {project([1])}")


@_check("cokernel-trivial")
def _cokernel_trivial(rng) -> None:
    group, project = cokernel(IntMatrix.from_rows([[0, -1], [-1, 0]]))
    _expect(group.is_trivial, f"group is {group}")
    _expect(project([1, 1]) == (), "trivial group has no coordinates")


@_check("group-iso-rose-vs-f")
def _group_iso_rose_vs_f(rng) -> None:
    a, _ = cokernel(bowen_franks_matrix(rose(4)))
    b, _ = cokernel(bowen_franks_matrix(f_graph()))
    _expect(group_iso(a, b), f"{a} versus {b}")


@_check("pointed-distinct-in-order-two")
def _pointed_distinct(rng) -> None:
    z2 = AbelianGroup(torsion=(2,))
    got = pointed_equivalent(PointedGroup(z2, (1,)), PointedGroup(z2, (0,)))
    _expect(got is Ternary.NO, f"expected NO, got {got.value}")


@_check("pointed-trivial")
def _pointed_trivial(rng) -> None:
    trivial = PointedGroup(AbelianGroup(), ())
    got = pointed_equivalent(trivial, trivial)
    _expect(got is Ternary.YES, f"expected YES, got {got.value}")


@_check("pointed-large-torsion")
def _pointed_large_torsion(rng) -> None:
    # Z/(M61 M89) for the Mersenne primes M61 = 2^61 - 1 and M89 = 2^89 - 1,
    # far past trial division: a unit multiple of M61 is in its orbit, M89
    # (a different valuation at each prime) is not.
    m61, m89 = 2**61 - 1, 2**89 - 1
    group = AbelianGroup(torsion=(m61 * m89,))
    x = PointedGroup(group, (m61,))
    got = pointed_equivalent(x, PointedGroup(group, (m61 * (m89 - 2),)))
    _expect(got is Ternary.YES, f"unit multiple: expected YES, got {got.value}")
    got = pointed_equivalent(x, PointedGroup(group, (m89,)))
    _expect(got is Ternary.NO, f"other valuation: expected NO, got {got.value}")


@_check("eliminate-source-fed-cycle")
def _eliminate_source_fed_cycle(rng) -> None:
    got = eliminate_source(source_example(), "v")
    _expect(got == MultiGraph.from_matrix([[0, 1], [1, 0]]), "residue is the 2-cycle")


@_check("expansion-picture")
def _expansion_picture(rng) -> None:
    got = incidence_matrix(expand(expansion_example(), "v")).to_lists()
    want = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0]]
    _expect(got == want, f"expanded incidence {got}")


@_check("expansion-of-a-point")
def _expansion_of_a_point(rng) -> None:
    got = expand(MultiGraph(1), 0)
    _expect(got == MultiGraph.from_matrix([[0, 1], [0, 0]]), "a point expands to a line")


@_check("in-split-picture")
def _in_split_picture(rng) -> None:
    g = split_example()
    res = in_split(g, Partition.singletons(g, "in"))
    _expect(
        res.graph.labels == ("v#1", "v#2", "w#1"),
        f"split labels {res.graph.labels}",
    )
    got = incidence_matrix(res.graph).to_lists()
    _expect(got == [[1, 0, 1], [1, 0, 1], [0, 1, 0]], f"in-split incidence {got}")


@_check("in-split-class-map")
def _in_split_class_map(rng) -> None:
    g = split_example()
    res = in_split(g, Partition.singletons(g, "in"))
    _expect(
        verify_vertex_class_map(g, res.graph, res.class_map),
        "v -> v#1 induces a cokernel isomorphism",
    )


@_check("in-split-factorization")
def _in_split_factorization(rng) -> None:
    g = split_example()
    res = in_split(g, Partition.singletons(g, "in"))
    fact = res.factorization
    _expect(fact.r @ fact.s == incidence_matrix(g), "A = R S")
    _expect(fact.s @ fact.r == incidence_matrix(res.graph), "A_split = S R")


@_check("in-amalgamate-picture")
def _in_amalgamate_picture(rng) -> None:
    g = split_example()
    res = in_split(g, Partition.singletons(g, "in"))
    back = in_amalgamate(res.graph, [["v#1", "v#2"], ["w#1"]])
    _expect(back == g, "amalgamation undoes the in-split")


@_check("out-split-picture")
def _out_split_picture(rng) -> None:
    g = split_example()
    res = out_split(g, Partition.singletons(g, "out"))
    got = incidence_matrix(res.graph).to_lists()
    _expect(got == [[1, 1, 0], [0, 0, 1], [1, 1, 0]], f"out-split incidence {got}")


@_check("out-split-class-map")
def _out_split_class_map(rng) -> None:
    g = split_example()
    res = out_split(g, Partition.singletons(g, "out"))
    _expect(
        verify_vertex_class_map(g, res.graph, res.class_map),
        "v -> sum of copies induces a cokernel isomorphism",
    )


@_check("out-amalgamate-picture")
def _out_amalgamate_picture(rng) -> None:
    g = split_example()
    res = out_split(g, Partition.singletons(g, "out"))
    back = out_amalgamate(res.graph, [["v#1", "v#2"], ["w#1"]])
    _expect(back == g, "amalgamation undoes the out-split")


@_check("out-delay-is-expansion")
def _out_delay_is_expansion(rng) -> None:
    g = expansion_example()
    delayed = out_delay(g, DrinenVector.expansion_at(g, "v"))
    _expect(
        is_isomorphic(delayed, expand(g, "v")),
        "unit source vector delays into the expansion",
    )
    _expect(out_delay(g, DrinenVector.from_edges(g, "source")) == g, "zero delay is g")


@_check("in-delay-of-proper-partition")
def _in_delay_of_proper_partition(rng) -> None:
    g = split_example()
    p = Partition.singletons(g, "in")
    _expect(is_proper_in_partition(g, p), "no sink is split")
    d = proper_in_partition_vector(g, p)
    delayed = in_delay(g, d)
    got = incidence_matrix(delayed).to_lists()
    _expect(got == [[1, 0, 1], [1, 0, 0], [0, 1, 0]], f"in-delay incidence {got}")
    split = in_split(g, p).graph
    _expect(
        equiv_triple(franks_triple(split), franks_triple(delayed)) is Ternary.YES,
        "split and delayed graphs share the full invariant triple",
    )


@_check("minus-gadget-picture")
def _minus_gadget_picture(rng) -> None:
    got = incidence_matrix(minus(two_graph())).to_lists()
    want = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]
    _expect(got == want, f"sign gadget incidence {got}")


@_check("minus-flips-determinant")
def _minus_flips_determinant(rng) -> None:
    t = franks_triple(two_graph())
    tm = franks_triple(minus(two_graph()))
    _expect(t.group.is_trivial and t.unit_class == (), "group is trivial")
    _expect(t.determinant == -1, f"det before {t.determinant}")
    _expect(tm.group.is_trivial, "group stays trivial")
    _expect(tm.determinant == 1, f"det after {tm.determinant}")


@_check("minus1-elimination")
def _minus1_elimination(rng) -> None:
    g = two_graph()
    g1 = minus1(g)
    _expect(sources(g1) == [g1.vertex("w2")], "the feeding vertex is the only source")
    _expect(eliminate_source(g1, "w2") == minus(g), "eliminating it leaves the gadget")
    t, t1 = franks_triple(g), franks_triple(g1)
    _expect(t1.determinant == -t.determinant, "determinant flips")
    _expect(
        pointed_equivalent(t.pointed, t1.pointed) is Ternary.YES,
        "pointed group survives",
    )


@_check("franks-triple-rose-and-f")
def _franks_triple_rose_and_f(rng) -> None:
    for g in (rose(4), f_graph()):
        t = franks_triple(g)
        _expect(t.group.torsion == (3,) and t.group.free_rank == 0, f"group {t.group}")
        _expect(t.unit_class == (1,), f"unit class {t.unit_class}")
        _expect(t.determinant == -3, f"det {t.determinant}")
        _expect(t.pis, "purely infinite simple")
    _expect(
        equiv_det_pair(franks_triple(rose(4)), franks_triple(f_graph())),
        "(group, det) pairs agree",
    )
    _expect(
        equiv_triple(franks_triple(rose(4)), franks_triple(f_graph())) is Ternary.YES,
        "full triples agree",
    )


@_check("franks-triple-gap-pair")
def _franks_triple_gap_pair(rng) -> None:
    t = franks_triple(two_graph())
    tm = franks_triple(minus(two_graph()))
    _expect(t.group.is_trivial and t.determinant == -1, "pair is (trivial, -1)")
    _expect(tm.group.is_trivial and tm.determinant == 1, "pair is (trivial, +1)")
    _expect(not equiv_det_pair(t, tm), "determinants split the plain pair")
    _expect(equiv_unitary_pair(t, tm) is Ternary.YES, "unitary pairs agree")
    _expect(equiv_triple(t, tm) is Ternary.NO, "triples disagree")


@_check("unitary-pair-transpose-example")
def _unitary_pair_transpose_example(rng) -> None:
    g = transpose_example()
    t, tt = franks_triple(g), franks_triple(transpose(g))
    _expect(t.group.torsion == (2,), f"group {t.group}")
    _expect(t.unit_class == (1,), f"unit class {t.unit_class}")
    _expect(tt.unit_class == (0,), f"transposed unit class {tt.unit_class}")
    _expect(equiv_unitary_pair(t, tt) is Ternary.NO, "unit classes disagree")


@_check("decide-isomorphic-pair")
def _decide_isomorphic_pair(rng) -> None:
    verdict = decide(rose(4), f_graph())
    _expect(verdict.morita is Ternary.YES, "Morita equivalent")
    _expect(verdict.isomorphic is Ternary.YES, "isomorphic")
    _expect(verdict.reason_tag == TAG_TRIPLE_MATCH, verdict.reason_tag)
    _expect(verdict.levels[0] == "Isomorphic", f"levels {verdict.levels}")


@_check("decide-unit-mismatch")
def _decide_unit_mismatch(rng) -> None:
    g = transpose_example()
    verdict = decide(g, transpose(g))
    _expect(verdict.morita is Ternary.YES, "Morita equivalent")
    _expect(verdict.isomorphic is Ternary.NO, "not isomorphic")
    _expect(verdict.reason_tag == TAG_UNIT_MISMATCH, verdict.reason_tag)


@_check("decide-sign-gap")
def _decide_sign_gap(rng) -> None:
    verdict = decide(two_graph(), minus(two_graph()))
    _expect(verdict.morita is Ternary.UNKNOWN, "Morita equivalence stays open")
    _expect(verdict.isomorphic is Ternary.UNKNOWN, "isomorphism stays open")
    _expect(verdict.reason_tag == TAG_SIGN_GAP, verdict.reason_tag)


@_check("decide-transpose-example")
def _decide_transpose_example(rng) -> None:
    verdict = decide_transpose(transpose_example())
    _expect(verdict.morita is Ternary.YES, "Morita equivalent")
    _expect(verdict.isomorphic is Ternary.NO, "not isomorphic")
    _expect(verdict.reason_tag == TAG_UNIT_MISMATCH, verdict.reason_tag)


# ---------------------------------------------------------------------------
# Seeded random sweeps.


def _random_graph(rng: random.Random, max_n: int = 4, max_mult: int = 2) -> MultiGraph:
    n = rng.randint(1, max_n)
    mat = [[rng.randint(0, max_mult) for _ in range(n)] for _ in range(n)]
    return MultiGraph.from_matrix(mat)


@_check("random-transpose-involution")
def _random_transpose_involution(rng) -> None:
    for trial in range(25):
        g = _random_graph(rng)
        _expect(transpose(transpose(g)) == g, f"trial {trial}: double transpose")
        _expect(
            incidence_matrix(transpose(g)) == incidence_matrix(g).transpose(),
            f"trial {trial}: incidence of transpose",
        )


@_check("random-expand-contract")
def _random_expand_contract(rng) -> None:
    for trial in range(25):
        g = _random_graph(rng)
        v = rng.randrange(g.n)
        _expect(
            contract(expand(g, v), v, g.n) == g,
            f"trial {trial}: contraction undoes expansion",
        )


@_check("random-trivial-splittings")
def _random_trivial_splittings(rng) -> None:
    for trial in range(25):
        g = _random_graph(rng)
        _expect(
            in_split(g, Partition.trivial(g, "in")).graph == g,
            f"trial {trial}: one-class in-split is the identity",
        )
        _expect(
            out_split(g, Partition.trivial(g, "out")).graph == g,
            f"trial {trial}: one-class out-split is the identity",
        )


# ---------------------------------------------------------------------------
# Runner.


def run_selftest(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows in check order."""
    rng = random.Random(seed)
    rows = []
    for name, fn in _CHECKS:
        try:
            fn(rng)
        except Exception as exc:  # noqa: BLE001 - a failing check is a report, not a crash
            rows.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            rows.append((name, True, ""))
    return rows
