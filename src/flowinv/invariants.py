"""Flow-equivalence invariants of a graph: the Franks triple.

For a graph with incidence matrix A (rows count edges source -> target) the
invariants live on B = I - A^t:

* the Bowen-Franks group coker(B) with the class of the all-ones vector as
  marked point (the unit class),
* the determinant det(B),
* whether the graph presents a purely infinite simple algebra.

Matching rules: the plain pair (group, det) decides Morita equivalence for
the purely infinite simple class; adding the unit class upgrades a match to
an isomorphism certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

# det is unused here but stays importable: bench/tracing.py wraps invariants.det.
from flowinv.exactla import (  # noqa: F401
    IntMatrix,
    PointedGroup,
    Ternary,
    cokernel,
    det,
    group_iso,
    pointed_equivalent,
)
from flowinv.graph import GraphReport, MultiGraph, classify_graph


def bowen_franks_matrix(g: MultiGraph) -> IntMatrix:
    """I - A^t for the graph's incidence matrix A.

    >>> from flowinv.graph import MultiGraph
    >>> bowen_franks_matrix(MultiGraph(1, [(0, 0)] * 4)).to_lists()
    [[-3]]
    """
    n = g.n
    # Column i of A is row i of A^t; the entries are already ints.
    return IntMatrix(
        n,
        n,
        tuple(
            tuple((i == j) - x for j, x in enumerate(col))
            for i, col in enumerate(zip(*g.incidence().entries))
        ),
    )


@dataclass(frozen=True)
class FranksTriple:
    """Pointed Bowen-Franks group, determinant, and the simplicity flag."""

    pointed: PointedGroup
    determinant: int
    pis: bool

    @property
    def group(self):
        return self.pointed.group

    @property
    def unit_class(self) -> tuple[int, ...]:
        return self.pointed.point

    def to_dict(self) -> dict:
        return {
            "group": {
                "torsion": list(self.group.torsion),
                "free_rank": self.group.free_rank,
            },
            "unit": list(self.unit_class),
            "det": self.determinant,
            "pis": self.pis,
        }


def franks_triple(
    g: MultiGraph, *, report: GraphReport | None = None
) -> FranksTriple:
    """Compute the full invariant triple of a graph.

    One Smith elimination of I - A^t gives the group, the unit class and the
    determinant.  ``report`` is ``classify_graph(g)`` when the caller already
    has it; otherwise it is computed here.

    >>> from flowinv.graph import MultiGraph
    >>> t = franks_triple(MultiGraph(1, [(0, 0)] * 4))
    >>> str(t.group), t.unit_class, t.determinant, t.pis
    ('Z/3', (1,), -3, True)
    """
    group, proj = cokernel(bowen_franks_matrix(g))
    point = proj([1] * g.n)
    if report is None:
        report = classify_graph(g)
    return FranksTriple(
        pointed=PointedGroup(group, point),
        determinant=proj.det,
        pis=report.purely_infinite_simple,
    )


def equiv_det_pair(s: FranksTriple, t: FranksTriple) -> bool:
    """Whether the (group, det) pairs match: the Morita-equivalence test."""
    return s.determinant == t.determinant and group_iso(s.group, t.group)


def equiv_unitary_pair(s: FranksTriple, t: FranksTriple) -> Ternary:
    """Whether the (group, unit class) pairs match, ignoring determinants.

    Exact: the answer is YES or NO, never UNKNOWN.
    """
    return pointed_equivalent(s.pointed, t.pointed)


def equiv_triple(s: FranksTriple, t: FranksTriple) -> Ternary:
    """Whether group, unit class and determinant all match: the isomorphism
    test."""
    if s.determinant != t.determinant:
        return Ternary.NO
    return equiv_unitary_pair(s, t)
