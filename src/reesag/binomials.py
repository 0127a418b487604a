"""Exact integer combinatorics for powers of the maximal ideal.

Minimal generator counts and colengths of m^k in a d-dimensional regular
local ring are binomial coefficients, and the almost Gorenstein decision
for the Rees algebra of m^ell reduces to one inequality between two sums
of such coefficients.  Everything here is arbitrary-precision integer
arithmetic; there are no floating-point code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantBreach

__all__ = [
    "binom",
    "mu_power",
    "colength_power",
    "b_of",
    "IneqSides",
    "ineq_sides",
    "ineq_gap_telescoped",
]


def binom(n: int, m: int) -> int:
    """Binomial coefficient C(n, m), with value 0 outside 0 <= m <= n."""
    if n < 0:
        raise ValueError(f"binom needs n >= 0, got n={n}")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def mu_power(d: int, k: int) -> int:
    """Minimal number of generators of m^k in d variables: C(k+d-1, d-1)."""
    _check_dim_power(d, k)
    return binom(k + d - 1, d - 1)


def colength_power(d: int, k: int) -> int:
    """Length of A/m^k, i.e. the number of monomials of degree < k: C(k+d-1, d)."""
    _check_dim_power(d, k)
    return binom(k + d - 1, d)


def b_of(d: int, ell: int) -> int:
    """Index of the last unit-ideal layer of the canonical ladder for m^ell.

    Equals floor((d-2)/ell) and also ceil((d-1)/ell) - 1; both closed forms
    are computed and compared.
    """
    if d < 2:
        raise ValueError(f"b_of needs dimension d >= 2, got d={d}")
    if ell < 1:
        raise ValueError(f"b_of needs ell >= 1, got ell={ell}")
    b = (d - 2) // ell
    if b != -(-(d - 1) // ell) - 1:
        raise InvariantBreach(f"floor/ceil closed forms disagree at d={d}, ell={ell}")
    return b


@dataclass(frozen=True)
class IneqSides:
    """Both sides of the generator-count inequality for m^ell, d >= 3, ell >= 2.

    Here b = floor((d-2)/ell), i = d - 2 - b*ell (so 0 <= i <= ell-1), and
    gap = lhs - rhs.  In generator counts, lhs = mu(m^(e+1)) + mu(m^(e+ell))
    and rhs = mu(m^ell) + d*mu(m^e) with e = ell - 1 - i the tail exponent of
    the canonical ladder.  gap >= 0 always, with equality exactly when ell
    divides d - 1, but that is a theorem about the values, not a constructor
    invariant: callers that hunt for counterexamples must be able to see a
    negative gap.
    """

    d: int
    ell: int
    b: int
    i: int
    lhs: int
    rhs: int
    gap: int


def _check_hypothesis(d: int, ell: int, where: str) -> None:
    if d < 3:
        raise ValueError(f"{where} needs d >= 3, got d={d}")
    if ell < 2:
        raise ValueError(f"{where} needs ell >= 2, got ell={ell}")


def ineq_sides(d: int, ell: int) -> IneqSides:
    """Evaluate both sides of the inequality exactly.

    In binomial form the two sides are
        lhs = C((b+1)ell + 1, d-1) + C((b+2)ell, d-1)
        rhs = C(ell + d - 1, d-1) + d * C((b+1)ell, d-1)
    with b = b_of(d, ell).
    """
    _check_hypothesis(d, ell, "ineq_sides")
    b = b_of(d, ell)
    i = d - 2 - b * ell
    lhs = binom((b + 1) * ell + 1, d - 1) + binom((b + 2) * ell, d - 1)
    rhs = binom(ell + d - 1, d - 1) + d * binom((b + 1) * ell, d - 1)
    return IneqSides(d=d, ell=ell, b=b, i=i, lhs=lhs, rhs=rhs, gap=lhs - rhs)


def ineq_gap_telescoped(d: int, ell: int) -> int:
    """The inequality gap as a telescoped sum of differences of C(*, d-2).

    gap = sum over n in (base+i+1 .. base+ell-1) of [C(n, d-2) - C(base, d-2)]
    with base = (b+1)ell and i = d - 2 - b*ell.  Every summand is >= 0
    because C(n, d-2) is nondecreasing in n, which re-proves gap >= 0; the
    sum is empty exactly when i = ell - 1, i.e. when ell divides d - 1.
    Derived from ineq_sides by repeated use of the Pascal identity, so the
    two must agree everywhere.

    The sum is walked term by term: C(base, d-2) and the first C(n, d-2)
    come from binom, and each later term from the previous one by
    C(n+1, k) = C(n, k) * (n+1) // (n+1-k), k = d-2.  The division is
    exact, and its divisor is at least ell + 2 because n >= ell + d - 1.
    """
    _check_hypothesis(d, ell, "ineq_gap_telescoped")
    b = b_of(d, ell)
    i = d - 2 - b * ell
    if i == ell - 1:
        return 0
    k = d - 2
    base = (b + 1) * ell
    at_base = binom(base, k)
    first = base + i + 1
    term = binom(first, k)
    gap = term - at_base
    for n in range(first, base + ell - 1):
        term = term * (n + 1) // (n + 1 - k)
        gap += term - at_base
    return gap


def _check_dim_power(d: int, k: int) -> None:
    if d < 1:
        raise ValueError(f"need dimension d >= 1, got d={d}")
    if k < 0:
        raise ValueError(f"need power k >= 0, got k={k}")
