"""The canonical module of the Rees algebra of m^ell, in closed form.

For a d-dimensional regular local ring the graded canonical module of
R(m^ell) is a ladder: the unit ideal in degrees 1 .. b and m^(n*ell-d+1)
in degrees n >= b+1, where b = floor((d-2)/ell).  The a-invariant is -1.
Everything this package needs downstream is a function of b and the tail
exponent e = (b+1)*ell - d + 1: the generator counts of K and MK, the
inequality deciding almost Gorensteinness, and the multiplicity
obstruction that rules out the graded property for proper divisors.  A
ladder holds nothing but the IneqSides of the binomials kernel, which
derives b, e and the counts behind mu_K and mu_MK, and the a-invariant;
its d, b and e are read off those sides.
Its records are NamedTuples.  Each entry point refuses a cell past the
binomials bit budget before any math.comb.
"""

from __future__ import annotations

from typing import NamedTuple

from .binomials import IneqSides, _b, _check_cell_bits, _sides, ineq_sides
from .errors import InvariantBreach, check_int

__all__ = [
    "CanonicalLadder",
    "Obstruction",
    "ladder",
    "notgraded_obstruction",
    "ladder_report",
]


class CanonicalLadder(NamedTuple):
    """Closed form of the ladder: unit ideal up to b, powers of m after.

    sides holds every number of the cell; d, b and tail_exponent read it.
    tail_exponent is the exponent e with J = m^e in degree b+1; the
    degree-n component for n > b+1 is m^(e + (n-b-1)*ell) = m^(n*ell-d+1).
    A NamedTuple, so it also equals the plain tuple (sides, a_invariant).
    """

    sides: IneqSides
    a_invariant: int = -1

    @property
    def d(self) -> int:
        return self.sides.d

    @property
    def b(self) -> int:
        return self.sides.b

    @property
    def tail_exponent(self) -> int:
        return self.sides.tail_exponent

    @property
    def unit_tail(self) -> bool:
        return self.tail_exponent == 0

    @property
    def mu_K(self) -> int:
        """Minimal generators of the canonical module: b + mu(m^e), e the tail exponent."""
        return self.b + self.sides.mu_tail

    @property
    def mu_MK(self) -> int:
        """Minimal generators of MK, M the graded maximal ideal.

        MK is generated by m in degrees 1 .. b, m^(e+1) in degree b+1 and
        m^(e+ell) in degree b+2: b*d + mu(m^(e+1)) + mu(m^(e+ell)).
        """
        return self.b * self.d + self.sides.lhs


class Obstruction(NamedTuple):
    mu_bound: int
    e_bound: int


def ladder(d: int, ell: int) -> CanonicalLadder:
    """The canonical ladder of R(m^ell); needs d >= 2, ell >= 1."""
    check_int("d", d, 2)
    check_int("ell", ell, 1)
    _check_cell_bits(d, ell)
    return CanonicalLadder(_sides(d, ell))


def notgraded_obstruction(d: int, ell: int) -> Obstruction:
    """Why R(m^ell) is not almost Gorenstein graded for proper divisors.

    For ell | d-1 with 2 <= ell < d-1, any graded witness cokernel would
    satisfy mu(C) <= b yet e(C) >= multiplicity of m^ell = ell^d; the pair
    (b, ell^d) with ell^d > b+1 certifies the impossibility.
    """
    check_int("ell", ell, 2)
    check_int("d", d, 3)
    if (d - 1) % ell != 0:
        raise ValueError(f"notgraded_obstruction needs ell | d-1, got d={d}, ell={ell}")
    if ell == d - 1:
        raise ValueError("ell = d-1 is the Gorenstein diagonal; no obstruction there")
    _check_cell_bits(d, ell)
    return _obstruction(d, ell)


def _obstruction(d: int, ell: int) -> Obstruction:
    """notgraded_obstruction on a cell its caller has checked: a divisor cell off the diagonal."""
    b = (d - 1) // ell - 1
    if b != _b(d, ell):
        raise InvariantBreach("divisor-case b must match the floor form")
    e_bound = ell**d
    if e_bound <= b + 1:
        raise InvariantBreach(f"obstruction inequality failed at d={d}, ell={ell}")
    return Obstruction(mu_bound=b, e_bound=e_bound)


def ladder_report(d: int, ell: int) -> dict:
    """Serializable summary of the ladder numbers for one (d, ell); d >= 3, ell >= 2."""
    lad = CanonicalLadder(ineq_sides(d, ell))
    report = {
        "d": d,
        "ell": ell,
        "b": lad.b,
        "tail_exponent": lad.tail_exponent,
        "a_invariant": lad.a_invariant,
        "mu_K": lad.mu_K,
        "mu_MK": lad.mu_MK,
        "gap": lad.sides.gap,
    }
    if lad.unit_tail and ell != d - 1:
        report["obstruction"] = notgraded_obstruction(d, ell)._asdict()
    return report
