"""Independent oracles the tests check the library against.

Nothing here imports the package under test, except that the Rees-cone
oracle multiplies with the engine, and the late-window multiplicity takes
powers and colengths from it.  The Pascal table rebuilds binomial
coefficients by the additive recurrence; the enumeration oracles count
exponent vectors by brute force, or list them by stars and bars; the membership colength walks every cell
of the bounding box one by one; the almost Gorenstein inequality is
restated in generator counts with its own tail exponent, and its gap as the
telescoped sum with every term an independent math.comb; Veronese module
membership is the pairwise scan over the generators, and its minimal
generators are those no other generator spans; the engine's minimal
generators, products, intersections and membership are pairwise scans over
exponent tuples; a colon searches every cell of the box below the
componentwise max, and the goodness report of a pair (I, Q) is built from
those with a membership scan for each witness; the canonical ladder is
enumerated from the interior lattice points of the Rees cone; the
multiplicity is the d-th finite difference of n -> colength(I^n) on a late
window; the integral closure of a dim-2 ideal tests each cell of its box
against every segment between two generators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


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


def semigroup_minimal(r: int, gens) -> list[tuple[int, int]]:
    """The distinct generators that no other distinct generator spans under the pairwise rule."""
    distinct = set(gens)
    return [q for q in distinct if not any(p != q and semigroup_member(r, [p], q) for p in distinct)]


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(gens, e: tuple[int, ...]) -> bool:
    """e lies in the monomial ideal generated by gens: some generator divides it."""
    return any(divides(g, e) for g in gens)


def minimal_gens(gens) -> list[tuple[int, ...]]:
    """The distinct generators that no other distinct generator divides, in canonical order.

    Canonical order: degree first, then lexicographically descending.
    """
    distinct = {tuple(g) for g in gens}
    kept = [g for g in distinct if not any(h != g and divides(h, g) for h in distinct)]
    return sorted(kept, key=lambda g: (sum(g), [-x for x in g]))


def product_gens(a, b) -> list[tuple[int, ...]]:
    """Minimal generators of the product: every pairwise sum of generators."""
    return minimal_gens([tuple(x + y for x, y in zip(p, q)) for p in a for q in b])


def lcm_gens(a, b) -> list[tuple[int, ...]]:
    """Minimal generators of the intersection: every pairwise lcm of generators."""
    return minimal_gens([tuple(max(x, y) for x, y in zip(p, q)) for p in a for q in b])


def lcm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(p, q))


def colon_by(p: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest u with u * m divisible by p: p - m clipped at 0."""
    return tuple(max(x - y, 0) for x, y in zip(p, m))


def colon_gens(a, b) -> list[tuple[int, ...]]:
    """Minimal generators of (a) : (b), a and b nonempty, by testing every cell below the max of a."""
    top = [max(g[k] for g in a) for k in range(len(a[0]))]
    found = [
        u
        for u in itertools.product(*(range(side + 1) for side in top))
        if all(member(a, tuple(x + y for x, y in zip(u, m))) for m in b)
    ]
    return minimal_gens(found)


def _flattest(candidates) -> tuple[int, ...]:
    """The candidate with the lowest sorted-descending exponents, ties to the lex-largest."""
    return min(candidates, key=lambda g: (sorted(g, reverse=True), [-x for x in g]))


def good_pair(i_gens, q_gens) -> dict:
    """Stability, colon closure, the colon Q : I and the witness for Q inside I.

    The witness is the flattest generator of I^2 outside QI, or else the
    flattest generator of Q : I outside I, or else None.
    """
    square, qi = product_gens(i_gens, i_gens), product_gens(q_gens, i_gens)
    colon, ideal = colon_gens(q_gens, i_gens), minimal_gens(i_gens)
    witness = None
    if square != qi:
        witness = _flattest([g for g in square if not member(qi, g)])
    elif colon != ideal:
        witness = _flattest([g for g in colon if not member(ideal, g)])
    return {"stable": square == qi, "colon_closed": colon == ideal, "colon": colon, "witness": witness}


def _positive_vectors(dim: int, total: int):
    """Exponent vectors with every entry >= 1 and the given total, by stars and bars."""
    for bars in itertools.combinations(range(1, total), dim - 1):
        cuts = (0, *bars, total)
        yield tuple(cuts[j + 1] - cuts[j] for j in range(dim))


def exponent_vectors(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given total degree in stars-and-bars order, lexicographically ascending."""
    return [tuple(e - 1 for e in v) for v in _positive_vectors(dim, degree + dim)]


def rees_cone_component(d: int, ell: int, n: int) -> list[tuple[int, ...]]:
    """Generators of K_n, read off the cone {(a, n) : a >= 0, |a| >= n*ell} of R(m^ell).

    By Danilov-Stanley the canonical module is spanned by the interior
    lattice points: for n >= 1, every a_j >= 1 and |a| > n*ell.  The
    generators in degree n are the interior points with no interior
    a - e_j, divided by x_1...x_d.  For such a point either every a_j = 1
    or |a| <= n*ell + 1, so the search stops at |a| = n*ell + d.
    """

    def interior(a: tuple[int, ...]) -> bool:
        return min(a) >= 1 and sum(a) > n * ell

    gens = []
    for total in range(d, n * ell + d + 1):
        for a in _positive_vectors(d, total):
            if interior(a) and not any(interior(a[:j] + (a[j] - 1,) + a[j + 1:]) for j in range(d)):
                gens.append(tuple(x - 1 for x in a))
    return gens


def rees_cone_counts(d: int, ell: int, n_max: int):
    """The cone's components K_1 .. K_n_max, and mu(K) and mu(MK) counted in those degrees.

    (MK)_n = m*K_n + m^ell*K_(n-1) is multiplied out with the engine, the
    one import of the package here.  The generators new in degree n are
    those outside the part coming from degree n-1, m^ell*K_(n-1) for K and
    m^ell*(MK)_(n-1) for MK.  That part lies inside the degree-n component,
    so a generator of the component lies in it exactly when it is one of
    its generators, and each count is a set difference of generators.
    """
    from reesag.monomials import Monomial, MonomialIdeal, maximal_power

    m, m_ell = maximal_power(d, 1), maximal_power(d, ell)
    k_prev = mk_prev = MonomialIdeal(d)  # K_0 = 0: the cone has no interior point at n = 0
    components, mu_k, mu_mk = [], 0, 0
    for n in range(1, n_max + 1):
        k_n = MonomialIdeal(d, map(Monomial, rees_cone_component(d, ell, n)))
        mk_n = m * k_n + m_ell * k_prev
        mu_k += len(set(k_n.gens).difference((m_ell * k_prev).gens))
        mu_mk += len(set(mk_n.gens).difference((m_ell * mk_prev).gens))
        components.append(k_n)
        k_prev, mk_prev = k_n, mk_n
    return components, mu_k, mu_mk


def multiplicity_late_window(gens, start: int) -> int:
    """e(I) as the d-th forward difference of f(n) = colength(I^n) at n = start .. start + d.

    f agrees with a degree-d polynomial whose d-th difference is e(I) only
    from some n on, so start must be late enough; at start = 1 the ideals
    (x^5, y^5, z^5, x^2yz^3) and (x^5, y^5, z^2, x^2y^3) read 124 and 48 for
    125 and 50.  Powers and colengths come from the engine.
    """
    from reesag.monomials import Monomial, MonomialIdeal

    d = len(gens[0])
    ideal = MonomialIdeal(d, map(Monomial, gens))
    power = ideal**start
    values = []
    for _ in range(d + 1):
        values.append(power.colength())
        power = power * ideal
    return sum((-1) ** (d - k) * math.comb(d, k) * values[k] for k in range(d + 1))


def newton_closure_2d(gens) -> list[tuple[int, int]]:
    """Minimal generators of the integral closure of a dim-2 monomial ideal, by testing every cell.

    A cell p lies in the Newton polyhedron iff some point of a segment
    between two generators g, h divides it: t*g + (1-t)*h <= p for some t in
    [0, 1], each coordinate a bound on t, solved in exact fractions.  Every
    cell outside the box below the max of gens is divisible by a pure power
    or a generator, so the box holds every minimal one.
    """
    def on_segment_below(p, g, h) -> bool:
        lo, hi = Fraction(0), Fraction(1)
        for a, b in ((g[k] - h[k], p[k] - h[k]) for k in range(2)):  # t * a <= b
            if a > 0:
                hi = min(hi, Fraction(b, a))
            elif a < 0:
                lo = max(lo, Fraction(b, a))
            elif b < 0:
                return False
        return lo <= hi

    top = [max(g[k] for g in gens) for k in range(2)]
    cells = itertools.product(range(top[0] + 1), range(top[1] + 1))
    return minimal_gens([p for p in cells if any(on_segment_below(p, g, h) for g in gens for h in gens)])
