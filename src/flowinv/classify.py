"""Decision procedure: Morita equivalence and isomorphism from invariants.

For unital purely infinite simple algebras the Bowen-Franks group decides
Morita equivalence negatively, the (group, det) pair decides it positively,
and the full Franks triple (pointed group, det) certifies isomorphism.
Whether a determinant sign flip alone can separate Morita classes is an open
hypothesis, so that configuration is reported as unknown rather than
guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from flowinv.exactla import Ternary, group_iso, pointed_equivalent
from flowinv.graph import MultiGraph, classify_graph
from flowinv.invariants import franks_triple

TAG_K0_MISMATCH = "k0-mismatch"
TAG_TRIPLE_MATCH = "franks-triple-match"
TAG_UNIT_MISMATCH = "unit-class-mismatch"
TAG_SIGN_GAP = "determinant-sign-gap"
TAG_NON_PIS = "non-pis-input"

_LEVELS = {
    (Ternary.YES, Ternary.YES): ("Isomorphic", "MoritaEquivalent"),
    (Ternary.YES, Ternary.NO): ("MoritaEquivalent", "NotIsomorphic"),
    (Ternary.NO, Ternary.NO): ("NotMoritaEquivalent", "NotIsomorphic"),
    (Ternary.UNKNOWN, Ternary.NO): ("NotIsomorphic", "Unknown"),
    (Ternary.UNKNOWN, Ternary.UNKNOWN): ("Unknown",),
}


@dataclass(frozen=True)
class Verdict:
    """Three-valued answers plus the single reason that settled them."""

    morita: Ternary
    isomorphic: Ternary
    reason_tag: str
    reason: str
    witness: dict

    @property
    def levels(self) -> tuple[str, ...]:
        return _LEVELS[(self.morita, self.isomorphic)]

    def to_dict(self) -> dict:
        return {
            "morita": self.morita.value,
            "isomorphic": self.isomorphic.value,
            "levels": list(self.levels),
            "reason_tag": self.reason_tag,
            "reason": self.reason,
            "witness": self.witness,
        }


def _non_pis_verdict(re_dict: dict, rf_dict: dict) -> Verdict:
    return Verdict(
        morita=Ternary.UNKNOWN,
        isomorphic=Ternary.UNKNOWN,
        reason_tag=TAG_NON_PIS,
        reason=(
            "at least one graph does not present a purely infinite simple "
            "algebra, so the invariant classification does not apply"
        ),
        witness={"left_report": re_dict, "right_report": rf_dict},
    )


def decide(e: MultiGraph, f: MultiGraph) -> Verdict:
    """Classify the two graphs' algebras up to Morita equivalence and
    isomorphism.

    The decision tree: a Bowen-Franks group mismatch refutes both; a full
    triple match certifies both; matching (group, det) with a unit-class
    mismatch certifies Morita equivalence and refutes isomorphism; opposite
    determinant signs leave Morita equivalence open (and isomorphism too,
    unless the unit classes already disagree).
    """
    report_e = classify_graph(e)
    report_f = classify_graph(f)
    if not (report_e.purely_infinite_simple and report_f.purely_infinite_simple):
        return _non_pis_verdict(report_e.to_dict(), report_f.to_dict())

    te = franks_triple(e, report=report_e)
    tf = franks_triple(f, report=report_f)
    witness = {"left": te.to_dict(), "right": tf.to_dict()}

    if not group_iso(te.group, tf.group):
        return Verdict(
            morita=Ternary.NO,
            isomorphic=Ternary.NO,
            reason_tag=TAG_K0_MISMATCH,
            reason=(
                f"Bowen-Franks groups differ: {te.group} versus {tf.group}"
            ),
            witness=witness,
        )

    pointed = pointed_equivalent(te.pointed, tf.pointed)

    if te.determinant == tf.determinant:
        if pointed is Ternary.YES:
            return Verdict(
                morita=Ternary.YES,
                isomorphic=Ternary.YES,
                reason_tag=TAG_TRIPLE_MATCH,
                reason=(
                    "group, unit class and determinant all match: "
                    f"{te.group}, unit {list(te.unit_class)}, "
                    f"det {te.determinant}"
                ),
                witness=witness,
            )
        return Verdict(
            morita=Ternary.YES,
            isomorphic=Ternary.NO,
            reason_tag=TAG_UNIT_MISMATCH,
            reason=(
                "group and determinant match, but no automorphism of "
                f"{te.group} carries unit class {list(te.unit_class)} "
                f"to {list(tf.unit_class)}"
            ),
            witness=witness,
        )

    # Groups match, determinants differ: equal magnitude, opposite sign.
    if pointed is Ternary.NO:
        return Verdict(
            morita=Ternary.UNKNOWN,
            isomorphic=Ternary.NO,
            reason_tag=TAG_SIGN_GAP,
            reason=(
                f"determinants {te.determinant} and {tf.determinant} differ "
                "in sign (whether that separates Morita classes is open), "
                "and the unit classes already rule out isomorphism"
            ),
            witness=witness,
        )
    return Verdict(
        morita=Ternary.UNKNOWN,
        isomorphic=Ternary.UNKNOWN,
        reason_tag=TAG_SIGN_GAP,
        reason=(
            f"determinants {te.determinant} and {tf.determinant} differ in "
            "sign; whether a sign flip can separate Morita classes is an "
            "open hypothesis, so no verdict is returned"
        ),
        witness=witness,
    )


def decide_transpose(g: MultiGraph) -> Verdict:
    """Compare a graph's algebra with its transpose's.

    The verdict is ``decide(g, transpose(g))``, reason text included.  The
    transpose is built from the transposed matrix, so, as in ``decide``, no
    edge is built.

    Transposing the incidence matrix preserves the Bowen-Franks group and
    the determinant, so the two algebras are Morita equivalent whenever both
    graphs are purely infinite simple; the unit classes may still differ and
    decide the isomorphism question.
    """
    gt = MultiGraph(g.labels, matrix=zip(*g.incidence().entries))
    return decide(g, gt)
