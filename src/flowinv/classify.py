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
from flowinv.graph import MultiGraph, classify_graph, int_string_limit, transpose
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


def _int_text(x: int) -> str:
    """``str(x)``, or "an integer of B bits" when x has more decimal digits
    than Python's int-string limit lets ``str`` write.  Only an x of more
    than limit * 3.32 bits (log2(10) = 3.3219...) can have that many, so
    every other x is told apart by ``bit_length`` alone."""
    limit = int_string_limit()
    size = abs(x).bit_length()
    if limit and size > limit * 3.32 and abs(x) >= 10**limit:
        return f"{'a negative' if x < 0 else 'an'} integer of {size} bits"
    return str(x)


def _vector_text(xs) -> str:
    """A vector as the list ``[1, 2]``, each entry written by :func:`_int_text`."""
    return f"[{', '.join(map(_int_text, xs))}]"


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
        return Verdict(
            morita=Ternary.UNKNOWN,
            isomorphic=Ternary.UNKNOWN,
            reason_tag=TAG_NON_PIS,
            reason=(
                "at least one graph does not present a purely infinite simple "
                "algebra, so the invariant classification does not apply"
            ),
            witness={"left_report": report_e.to_dict(), "right_report": report_f.to_dict()},
        )

    te = franks_triple(e, report=report_e)
    tf = franks_triple(f, report=report_f)
    if not group_iso(te.group, tf.group):
        morita, isomorphic, reason_tag = Ternary.NO, Ternary.NO, TAG_K0_MISMATCH
        reason = (
            "Bowen-Franks groups differ: "
            f"{te.group.text(_int_text)} versus {tf.group.text(_int_text)}"
        )
    else:
        pointed = pointed_equivalent(te.pointed, tf.pointed)
        if te.determinant == tf.determinant and pointed is Ternary.YES:
            morita, isomorphic, reason_tag = Ternary.YES, Ternary.YES, TAG_TRIPLE_MATCH
            reason = (
                "group, unit class and determinant all match: "
                f"{te.group.text(_int_text)}, unit {_vector_text(te.unit_class)}, "
                f"det {_int_text(te.determinant)}"
            )
        elif te.determinant == tf.determinant:
            morita, isomorphic, reason_tag = Ternary.YES, Ternary.NO, TAG_UNIT_MISMATCH
            reason = (
                "group and determinant match, but no automorphism of "
                f"{te.group.text(_int_text)} carries unit class "
                f"{_vector_text(te.unit_class)} to {_vector_text(tf.unit_class)}"
            )
        # Groups match, determinants differ: equal magnitude, opposite sign.
        elif pointed is Ternary.NO:
            morita, isomorphic, reason_tag = Ternary.UNKNOWN, Ternary.NO, TAG_SIGN_GAP
            reason = (
                f"determinants {_int_text(te.determinant)} and "
                f"{_int_text(tf.determinant)} differ "
                "in sign (whether that separates Morita classes is open), "
                "and the unit classes already rule out isomorphism"
            )
        else:
            morita, isomorphic, reason_tag = Ternary.UNKNOWN, Ternary.UNKNOWN, TAG_SIGN_GAP
            reason = (
                f"determinants {_int_text(te.determinant)} and "
                f"{_int_text(tf.determinant)} differ in "
                "sign; whether a sign flip can separate Morita classes is an "
                "open hypothesis, so no verdict is returned"
            )
    witness = {"left": te.to_dict(), "right": tf.to_dict()}
    return Verdict(morita, isomorphic, reason_tag, reason, witness)


def decide_transpose(g: MultiGraph) -> Verdict:
    """Compare a graph's algebra with its transpose's.

    The verdict is ``decide(g, transpose(g))``, reason text included.
    :func:`~flowinv.graph.transpose` builds the transposed matrix and derives
    edges only when they are read, so, as in ``decide``, no edge is built.

    Transposing the incidence matrix preserves the Bowen-Franks group and
    the determinant, so the two algebras are Morita equivalent whenever both
    graphs are purely infinite simple; the unit classes may still differ and
    decide the isomorphism question.
    """
    return decide(g, transpose(g))
