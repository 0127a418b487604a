"""The canonical module of the Rees algebra of m^ell, in closed form.

For a d-dimensional regular local ring the graded canonical module of
R(m^ell) is a ladder: the unit ideal in degrees 1 .. b and m^(n*ell-d+1)
in degrees n >= b+1, where b = floor((d-2)/ell).  The a-invariant is -1.
Everything this package needs downstream is a function of b and the tail
exponent e = (b+1)*ell - d + 1, the exponent of the degree-(b+1)
component m^e: the generator counts of K and MK, the inequality deciding
almost Gorensteinness, and the multiplicity obstruction that rules out the
graded property for proper divisors.  ladder returns the IneqSides of the
binomials kernel as it is: it holds b, e and the counts, and reads mu_K
and mu_MK off them.  Only the obstruction, ell^d, is built here, as an
Obstruction NamedTuple.  Each entry point refuses a cell past the binomials
bit budget before any math.comb.
"""

from __future__ import annotations

from typing import NamedTuple

from .binomials import IneqSides, _b, _check_cell_bits, _sides, ineq_sides
from .errors import InvariantBreach, check_int

__all__ = [
    "Obstruction",
    "ladder",
    "notgraded_obstruction",
    "ladder_report",
]


class Obstruction(NamedTuple):
    mu_bound: int
    e_bound: int


def ladder(d: int, ell: int) -> IneqSides:
    """The canonical ladder of R(m^ell), as its IneqSides; needs d >= 2, ell >= 1."""
    check_int("d", d, 2)
    check_int("ell", ell, 1)
    _check_cell_bits(d, ell)
    return _sides(d, ell)


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
    sides = ineq_sides(d, ell)
    report = {
        "d": d,
        "ell": ell,
        "b": sides.b,
        "tail_exponent": sides.tail_exponent,
        "a_invariant": -1,
        "mu_K": sides.mu_K,
        "mu_MK": sides.mu_MK,
        "gap": sides.gap,
    }
    if sides.tail_exponent == 0 and ell != d - 1:
        report["obstruction"] = notgraded_obstruction(d, ell)._asdict()
    return report
