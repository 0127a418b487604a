"""Independent oracles the tests check the library against.

Nothing here imports the package under test.  The Pascal table rebuilds
binomial coefficients by the additive recurrence; the enumeration oracles
count exponent vectors by brute force; the membership colength walks every
cell of the bounding box one by one; the almost Gorenstein inequality is
restated in generator counts with its own tail exponent, and its gap as the
telescoped sum with every term an independent math.comb; Veronese module
membership is the pairwise scan over the generators.
"""

from __future__ import annotations

import itertools
import math


def pascal_table(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of Pascal's triangle by the additive recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return rows


def binom_pascal(n: int, m: int, table: list[list[int]] | None = None) -> int:
    if m < 0 or m > n:
        return 0
    if table is None:
        table = pascal_table(n)
    return table[n][m]


def count_exponent_vectors(dim: int, degree: int) -> int:
    """Number of exponent vectors of exact total degree, by exhaustion."""
    return sum(
        1
        for v in itertools.product(range(degree + 1), repeat=dim)
        if sum(v) == degree
    )


def count_below_degree(dim: int, degree: int) -> int:
    """Number of exponent vectors of total degree < degree, by exhaustion."""
    return sum(
        1
        for v in itertools.product(range(degree + 1), repeat=dim)
        if sum(v) < degree
    )


def colength_by_membership(gens: list[tuple[int, ...]]) -> int:
    """Standard-monomial count by walking the box cell by cell.

    Assumes the ideal generated by gens is primary to the maximal ideal;
    the box is bounded by the smallest pure power in each variable.
    """
    dim = len(gens[0])
    box = []
    for k in range(dim):
        pures = [g[k] for g in gens if g[k] > 0 and sum(g) == g[k]]
        if not pures:
            raise ValueError(f"no pure power in variable {k}")
        box.append(min(pures))
    count = 0
    for cell in itertools.product(*(range(side) for side in box)):
        divisible = any(all(c >= g for c, g in zip(cell, gen)) for gen in gens)
        if not divisible:
            count += 1
    return count


def agl_inequality(d: int, ell: int) -> bool:
    """The generator-count inequality forced by almost Gorensteinness.

    mu(m^(e+1)) + mu(m^(e+ell)) <= mu(m^ell) + d * mu(m^e), where
    mu(m^k) = C(k+d-1, d-1) and the tail exponent e is the least e >= 0 with
    ell | d-1+e.  The reverse inequality always holds, so this is true
    exactly when the two sides are equal, i.e. when ell divides d - 1.
    """
    if d < 3:
        raise ValueError(f"agl_inequality needs d >= 3, got d={d}")
    if ell < 2:
        raise ValueError(f"agl_inequality needs ell >= 2, got ell={ell}")
    e = -(d - 1) % ell

    def mu(k: int) -> int:
        return math.comb(k + d - 1, d - 1)

    return mu(e + 1) + mu(e + ell) <= mu(ell) + d * mu(e)


def telescoped_gap(d: int, ell: int) -> int:
    """The inequality gap as a sum of C(base + j, d-2) - C(base, d-2).

    j runs over i+1 .. ell-1 with b = floor((d-2)/ell), i = d-2-b*ell and
    base = (b+1)*ell; each binomial is its own math.comb call, so nothing
    carries from one term to the next.
    """
    if d < 3:
        raise ValueError(f"telescoped_gap needs d >= 3, got d={d}")
    if ell < 2:
        raise ValueError(f"telescoped_gap needs ell >= 2, got ell={ell}")
    b = (d - 2) // ell
    i = d - 2 - b * ell
    base = (b + 1) * ell
    return sum(math.comb(base + j, d - 2) - math.comb(base, d - 2) for j in range(i + 1, ell))


def semigroup_member(r: int, gens, p: tuple[int, int]) -> bool:
    """p lies in the degree-r Veronese module generated by gens.

    Pairwise rule: p - q is componentwise non-negative with total degree
    divisible by r for some generator q.
    """
    a, b = p
    return any(
        a >= qa and b >= qb and ((a - qa) + (b - qb)) % r == 0 for qa, qb in gens
    )


def semigroup_equal(r: int, a, b) -> bool:
    """Two generator sets span the same module: each generator lies in the other."""
    return all(semigroup_member(r, a, q) for q in b) and all(
        semigroup_member(r, b, q) for q in a
    )
