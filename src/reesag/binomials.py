"""Exact integer combinatorics for powers of the maximal ideal.

Minimal generator counts of m^k in a d-dimensional regular local ring are
binomial coefficients, and the almost Gorenstein decision for R(m^ell)
reduces to one inequality between sums of such counts.  Every ladder
number of a cell (d, ell) is derived once, as plain ints, by the unchecked
kernel _cell; _sides wraps them in an IneqSides for the one-cell entry
points here, in canonical and in classify, which check their arguments
once.  A whole table or inequality sweep reads its counts off one row per
d (_mu_row) and takes _cell's ints as they are.  Everything is exact
integer arithmetic.

Every public closed-form entry point, here, in canonical and in classify,
refuses a cell through _check_cell_bits before any math.comb, and a table or
an inequality sweep its whole grid through _check_grid_bits: every count of
a cell is some C(n, k) with n <= 2*ell + d - 2 and n - k <= 2*ell, and its
obstruction bound is ell^d, so the sizes of its integers are known from
(d, ell) alone.  binom is the unbudgeted primitive under them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvariantBreach, check_budget, check_int

__all__ = [
    "binom",
    "b_of",
    "IneqSides",
    "ineq_sides",
    "ineq_gap_telescoped",
]

# bits of the largest integer one cell may build; classify 20001 10000 needs 280 014
_CELL_BIT_CAP = 400_000


def _check_cell_bits(d: int, ell: int) -> None:
    """Refuse the cell (d, ell), valid ints, if a bound on its integers passes _CELL_BIT_CAP bits.

    Its counts are C(n, k) with n <= N = 2*ell + d - 2 and n - k <= 2*ell, so
    each is below 2^N and at most N^(2*ell) < 2^(2*ell * N.bit_length()).  Only
    a divisor cell (ell | d-1) builds its obstruction bound ell^d, which is
    below 2^(d * ell.bit_length()).
    """
    n = 2 * ell + d - 2
    bits = min(n, 2 * ell * n.bit_length())
    if (d - 1) % ell == 0:
        bits = max(bits, d * ell.bit_length())
    _refuse_bits(d, ell, bits)


def _check_grid_bits(d_max: int, ell_max: int) -> None:
    """Refuse the grid of cells d <= d_max, ell <= ell_max, valid ints, through its largest cell.

    2^N, N = 2*ell + d - 2, bounds every count of a cell and ell^d its
    obstruction bound.  Unlike _check_cell_bits's bound, max(N, d *
    ell.bit_length()) bits grows with d and ell, so the largest cell
    bounds every cell of the grid.
    """
    _refuse_bits(d_max, ell_max, max(2 * ell_max + d_max - 2, d_max * ell_max.bit_length()))


def _refuse_bits(d: int, ell: int, bits: int) -> None:
    if bits > _CELL_BIT_CAP:  # the message is formatted only on refusal
        check_budget(f"integer bits of cell ({d}, {ell})", bits, _CELL_BIT_CAP)


def binom(n: int, m: int) -> int:
    """Binomial coefficient C(n, m), with value 0 outside 0 <= m <= n."""
    if n < 0:
        raise ValueError(f"binom needs n >= 0, got n={n}")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def b_of(d: int, ell: int) -> int:
    """Index of the last unit-ideal layer of the canonical ladder for m^ell; d >= 2, ell >= 1."""
    check_int("d", d, 2)
    check_int("ell", ell, 1)
    return _b(d, ell)


def _b(d: int, ell: int) -> int:
    """b_of unchecked: floor((d-2)/ell), compared with its other form ceil((d-1)/ell) - 1."""
    b = (d - 2) // ell
    if b != -(-(d - 1) // ell) - 1:
        raise InvariantBreach(f"floor/ceil closed forms disagree at d={d}, ell={ell}")
    return b


class IneqSides(NamedTuple):
    """The ladder numbers of m^ell, and both sides of its generator-count inequality.

    Here b = floor((d-2)/ell), i = d - 2 - b*ell (so 0 <= i <= ell-1), and
    e = ell - 1 - i is the ladder's tail exponent.  In generator counts,
    lhs = mu(m^(e+1)) + mu(m^(e+ell)), rhs = mu(m^ell) + d*mu(m^e),
    mu_tail = mu(m^e) and gap = lhs - rhs.  gap >= 0 always, with equality
    exactly when ell divides d - 1, but that is a theorem about the values,
    not a constructor invariant: callers that hunt for counterexamples must
    be able to see a negative gap.  The properties mu_K and mu_MK count the
    generators of the canonical module K and of MK.  A NamedTuple, so it also
    equals the plain tuple of its fields.
    """

    d: int
    ell: int
    b: int
    i: int
    tail_exponent: int
    lhs: int
    rhs: int
    gap: int
    mu_tail: int

    @property
    def mu_K(self) -> int:
        """Minimal generators of the canonical module: b + mu(m^e), e the tail exponent."""
        return self.b + self.mu_tail

    @property
    def mu_MK(self) -> int:
        """Minimal generators of MK, M the graded maximal ideal.

        MK is generated by m in degrees 1 .. b, m^(e+1) in degree b+1 and
        m^(e+ell) in degree b+2: b*d + mu(m^(e+1)) + mu(m^(e+ell)).
        """
        return self.b * self.d + self.lhs


def ineq_sides(d: int, ell: int) -> IneqSides:
    """Both sides of the inequality, exactly; d >= 3, ell >= 2.

    In binomial form lhs = C((b+1)ell + 1, d-1) + C((b+2)ell, d-1) and
    rhs = C(ell + d - 1, d-1) + d * C((b+1)ell, d-1), with b = b_of(d, ell).
    """
    check_int("d", d, 3)
    check_int("ell", ell, 2)
    _check_cell_bits(d, ell)
    return _sides(d, ell)


def _mu_row(d: int, k_max: int) -> list[int]:
    """mu(m^k) = C(k+d-1, d-1) for k = 0..k_max, unchecked; d >= 1.

    Walked by mu(k+1) = mu(k) * (k+d) // (k+1), an exact division: one
    multiply per entry where binom would cost a math.comb each.
    """
    row = [1]
    mu = 1
    for k in range(k_max):
        mu = mu * (k + d) // (k + 1)
        row.append(mu)
    return row


def _sides(d: int, ell: int) -> IneqSides:
    """The ladder numbers of one cell as an IneqSides; d >= 2 and ell >= 1 are not checked."""
    return IneqSides(d, ell, *_cell(d, ell))


def _cell(d: int, ell: int, row: list[int] | None = None) -> tuple[int, int, int, int, int, int, int]:
    """Every ladder number of a cell, (b, i, e, lhs, rhs, gap, mu_tail); d >= 2 and ell >= 1 are not checked.

    The only counts are C1..C4 = mu(m^(e+1)), mu(m^(e+ell)), mu(m^e), mu(m^ell).
    They come from binom, or, for a table or a sweep, from row = _mu_row(d, k) with
    k >= e + ell (2*ell - 1 covers every e), read at those four indices.
    """
    b = _b(d, ell)
    i = d - 2 - b * ell
    e = ell - 1 - i
    if e < 0:
        raise InvariantBreach(f"negative tail exponent at d={d}, ell={ell}")
    if (e == 0) != ((d - 1) % ell == 0):
        raise InvariantBreach("unit tail must mean ell divides d-1")
    if row is None:
        c1, c2 = binom(e + d, d - 1), binom(e + ell + d - 1, d - 1)
        c3, c4 = binom(e + d - 1, d - 1), binom(ell + d - 1, d - 1)
    else:
        c1, c2, c3, c4 = row[e + 1], row[e + ell], row[e], row[ell]
    lhs, rhs = c1 + c2, c4 + d * c3
    return b, i, e, lhs, rhs, lhs - rhs, c3


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
    check_int("d", d, 3)
    check_int("ell", ell, 2)
    _check_cell_bits(d, ell)
    b = _b(d, ell)
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
