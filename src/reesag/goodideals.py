"""Stability and goodness tests for monomial ideals against a candidate reduction.

An ideal I with parameter-style candidate Q inside it is stable when
I^2 = QI, and good when additionally Q : I = I.  Both are decided exactly
by the monomial engine; failures come with a witness monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantBreach, check_equal
from .monomials import Monomial, MonomialIdeal

__all__ = [
    "GoodIdealReport",
    "is_stable",
    "good_report",
]


@dataclass(frozen=True)
class GoodIdealReport:
    """Outcome of the two goodness tests for one (I, Q) pair.

    witness is a generator of I^2 outside QI when stability fails, else a
    generator of Q:I outside I when the colon test fails, else absent.
    good implies I != Q: for I = Q the colon is the unit ideal, never I.
    """

    stable: bool
    colon_closed: bool
    good: bool
    colon_result: MonomialIdeal
    witness: Monomial | None

    def as_dict(self) -> dict:
        return {
            "stable": self.stable,
            "colon_closed": self.colon_closed,
            "good": self.good,
            "colon": [g.as_list() for g in self.colon_result.gens],
            "witness": self.witness.as_list() if self.witness is not None else None,
        }


def _flattest(candidates: list[Monomial]) -> Monomial:
    # deterministic pick: flattest exponent multiset first, then lex-largest
    return min(
        candidates,
        key=lambda m: (
            tuple(sorted(m.exponents, reverse=True)),
            tuple(-e for e in m.exponents),
        ),
    )


def _check_pair(ideal: MonomialIdeal, reduction: MonomialIdeal) -> None:
    check_equal("dimension", ideal.dim, reduction.dim)
    if not ideal.contains(reduction):
        raise ValueError("reduction candidate is not contained in the ideal")


def is_stable(ideal: MonomialIdeal, reduction: MonomialIdeal) -> tuple[bool, Monomial | None]:
    """Is I^2 = QI?  On failure also return a generator of I^2 outside QI.

    QI is always inside I^2 when Q is inside I, so only one direction can
    fail and the witness search runs over the generators of I^2.
    """
    _check_pair(ideal, reduction)
    square = ideal * ideal
    qi = reduction * ideal
    if square == qi:
        return True, None
    offending = [g for g in square.gens if not qi.member(g)]
    if not offending:
        raise InvariantBreach("I^2 != QI but no generator of I^2 escapes QI")
    return False, _flattest(offending)


def good_report(ideal: MonomialIdeal, reduction: MonomialIdeal) -> GoodIdealReport:
    """Full stability + colon report for the pair (I, Q)."""
    stable, stability_witness = is_stable(ideal, reduction)  # checks the pair first
    colon_result = reduction.colon(ideal)
    colon_closed = colon_result == ideal
    witness = stability_witness
    if witness is None and not colon_closed:
        escaped = [g for g in colon_result.gens if not ideal.member(g)]
        # stability holds on this path, so I lies inside Q:I and the only
        # possible failure is an escape upward
        if not escaped:
            raise InvariantBreach("colon differs from I yet no colon generator escapes I")
        witness = _flattest(escaped)
    return GoodIdealReport(
        stable=stable,
        colon_closed=colon_closed,
        good=stable and colon_closed,
        colon_result=colon_result,
        witness=witness,
    )

