"""The canonical module of the Rees algebra of m^ell, in closed form.

For a d-dimensional regular local ring the graded canonical module of
R(m^ell) is a ladder: the unit ideal in degrees 1 .. b and m^(n*ell-d+1)
in degrees n >= b+1, where b = floor((d-2)/ell).  The a-invariant is -1.
Everything this package needs downstream is a function of b and the tail
exponent e = (b+1)*ell - d + 1: the generator counts of K and MK, the
inequality deciding almost Gorensteinness, the Ulrich numbers of the
unit-tail case, and the multiplicity obstruction that rules out the graded
property for proper divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .binomials import b_of, ineq_sides, mu_power
from .errors import InvariantBreach, check_int
from .monomials import MonomialIdeal, maximal_power

__all__ = [
    "CanonicalLadder",
    "UlrichNumbers",
    "Obstruction",
    "ladder",
    "mu_K",
    "mu_MK",
    "ulrich_numbers",
    "notgraded_obstruction",
    "ladder_report",
]


@dataclass(frozen=True)
class CanonicalLadder:
    """Closed form of the ladder: unit ideal up to b, powers of m after.

    tail_exponent is the exponent e with J = m^e in degree b+1; the degree-n
    component for n > b+1 is m^(e + (n-b-1)*ell) = m^(n*ell-d+1).  The
    ladder is never materialized as a list; component() builds single
    degrees on demand.
    """

    d: int
    ell: int
    b: int
    tail_exponent: int
    a_invariant: int = -1

    @property
    def unit_tail(self) -> bool:
        return self.tail_exponent == 0

    @property
    def mu_K(self) -> int:
        """Minimal generators of the canonical module: b + mu(m^e), e the tail exponent."""
        return self.b + mu_power(self.d, self.tail_exponent)

    @property
    def mu_MK(self) -> int:
        """Minimal generators of MK, M the graded maximal ideal.

        MK is generated by m in degrees 1 .. b, m^(e+1) in degree b+1 and
        m^(e+ell) in degree b+2: b*d + mu(m^(e+1)) + mu(m^(e+ell)).
        """
        e = self.tail_exponent
        return self.b * self.d + mu_power(self.d, e + 1) + mu_power(self.d, e + self.ell)

    def component_exponent(self, n: int) -> int:
        """Exponent k with degree-n component m^k (k = 0 means unit ideal)."""
        check_int("n", n, 1)
        if n <= self.b:
            return 0
        return n * self.ell - self.d + 1

    def component(self, n: int) -> MonomialIdeal:
        return maximal_power(self.d, self.component_exponent(n))


class UlrichNumbers(NamedTuple):
    c: int
    mu_C: int
    e_C: int


class Obstruction(NamedTuple):
    mu_bound: int
    e_bound: int


def ladder(d: int, ell: int) -> CanonicalLadder:
    """The canonical ladder of R(m^ell); needs d >= 2, ell >= 1, which b_of checks."""
    b = b_of(d, ell)
    tail = (b + 1) * ell - d + 1
    if tail < 0:
        raise InvariantBreach(f"negative tail exponent at d={d}, ell={ell}")
    if (tail == 0) != ((d - 1) % ell == 0):
        raise InvariantBreach("unit tail must mean ell divides d-1")
    return CanonicalLadder(d=d, ell=ell, b=b, tail_exponent=tail)


def mu_K(d: int, ell: int) -> int:
    """Minimal generators of the canonical module of R(m^ell); d >= 3, ell >= 2."""
    check_int("d", d, 3)
    check_int("ell", ell, 2)
    return ladder(d, ell).mu_K


def mu_MK(d: int, ell: int) -> int:
    """Minimal generators of MK, M the graded maximal ideal; d >= 3, ell >= 2."""
    check_int("d", d, 3)
    check_int("ell", ell, 2)
    return ladder(d, ell).mu_MK


def ulrich_numbers(d: int, ell: int) -> UlrichNumbers:
    """Ulrich data of C = K/R t^(b+1) in the unit-tail case.

    When the ladder is R t + ... + R t^(c+1), the cokernel C of the
    comparison map R -> K(1) is free of rank c over the ambient ring, so
    mu(C) = e(C) = c with c = (d-1)/ell - 1.  Requires ell | d-1.
    """
    check_int("d", d, 2)
    check_int("ell", ell, 1)
    if (d - 1) % ell != 0:
        raise ValueError(
            f"ulrich_numbers needs ell | d-1 (unit ladder tail), got d={d}, ell={ell}"
        )
    c = b_of(d, ell)  # (d-1)/ell - 1, since ell | d-1
    return UlrichNumbers(c=c, mu_C=c, e_C=c)


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
    b = (d - 1) // ell - 1
    if b != b_of(d, ell):
        raise InvariantBreach("divisor-case b must match the floor form")
    e_bound = ell**d
    if e_bound <= b + 1:
        raise InvariantBreach(f"obstruction inequality failed at d={d}, ell={ell}")
    return Obstruction(mu_bound=b, e_bound=e_bound)


def ladder_report(d: int, ell: int) -> dict:
    """Serializable summary of the ladder numbers for one (d, ell)."""
    check_int("d", d, 3)
    check_int("ell", ell, 2)
    lad = ladder(d, ell)
    report = {
        "d": d,
        "ell": ell,
        "b": lad.b,
        "tail_exponent": lad.tail_exponent,
        "a_invariant": lad.a_invariant,
        "mu_K": lad.mu_K,
        "mu_MK": lad.mu_MK,
        "gap": ineq_sides(d, ell).gap,
    }
    if lad.unit_tail and ell != d - 1:
        obs = notgraded_obstruction(d, ell)
        report["obstruction"] = {"mu_bound": obs.mu_bound, "e_bound": obs.e_bound}
    return report
