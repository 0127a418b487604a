"""Exact multiplicity of an m-primary monomial ideal from its Newton polyhedron.

For a monomial ideal I in d variables, e(I) = d! covol(P), where
P = conv(generators) + R^d_{>=0} is the Newton polyhedron and covol(P) the
volume of R^d_{>=0} minus P (Teissier, "Monomial ideals, binomial ideals,
polynomial ideals", 2004; Herzog-Hibi, *Monomial Ideals*, GTM 260).  That
region is the union of the pyramids from the origin over the compact facets
of P.  Cut each compact facet into (d-1)-simplices on its own vertices; the
pyramid over the simplex v_1 .. v_d has volume |det(v_1 .. v_d)| / d!, so
e(I) is the sum of those determinants.  Everything is integer arithmetic.

* Facets by double description on the homogenised cone in R^(d+1),
  generated by the rays (e_i, 0) and the points (g, 1).  A facet is an
  integer normal (w, -c), divided by its gcd, with w.x >= c t on the cone,
  and its zero set: the bitmask of generators on it.  The enumeration starts
  from the simplicial cone on the d rays and one point and adds one point at
  a time; two facets cut by the new point combine into a new one when they
  are adjacent, which is read off the zero sets alone (no third facet's zero
  set holds their common one).
* The facets with w > 0 are the compact facets of P.
* In dim 2 the compact facets are the edges of the lower hull of the
  staircase, found in one monotone-chain pass (Andrew 1979) with no facet
  enumeration, so dim 2 has no facet budget.
* Each compact facet is triangulated by pulling: its lowest point in
  lexicographic order is a vertex; cone it over the triangulations of the
  facets of the face that miss it.  The facets of a face are the maximal
  proper nonempty intersections of its zero set with the cone's facets' zero
  sets.  Only vertices become apexes: a fan over every generator on a face
  overcounts (100 for m^4 in d = 3).

Imported on the first multiplicity call, so ``import reesag`` never compiles it.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import InvariantBreach, check_budget

_FACET_TEST_CAP = 10_000_000


def _facet_bound(n: int, d: int) -> int:
    """McMullen's upper bound on the facets of a d-polytope with n + d vertices.

    Every cone the enumeration passes through is spanned by at most the d rays
    and n points, and its cross-section is such a polytope."""
    v = n + d
    return math.comb(v - (d + 1) // 2, d // 2) + math.comb(v - d // 2 - 1, (d + 1) // 2 - 1)


def multiplicity(gens: list[tuple[int, ...]], pure: list[int]) -> int:
    """e(I) of the non-unit m-primary ideal with minimal generators gens and pure powers x_i^pure[i].

    In dim 2, a walk along the staircase (_lower_hull_walk); otherwise a sum
    over the triangulated compact facets (_facet_sum)."""
    total = _lower_hull_walk(gens) if len(pure) == 2 else _facet_sum(gens, len(pure))
    if not 1 <= total <= math.prod(pure):
        raise InvariantBreach(f"multiplicity {total} outside [1, {math.prod(pure)}] for pure powers {pure}")
    return total


def _facet_sum(gens: list[tuple[int, ...]], d: int) -> int:
    """The sum of |det| over a triangulation of the compact facets on their vertices.

    Refuses before the enumeration when its n insertions, each testing up
    to _facet_bound(n, d) facets, could pass _FACET_TEST_CAP facet tests."""
    tests = len(gens) * _facet_bound(len(gens), d)
    check_budget(f"multiplicity facet tests of {len(gens)} generators in dim {d}", tests, _FACET_TEST_CAP)
    points = sorted(gens)  # bit d + k is points[k]; the lowest bit of a face is its lex-least point
    facets = _facets(d, points)
    rays = (1 << d) - 1
    masks = [mask for _, mask in facets]

    @functools.cache
    def pull(face: int) -> tuple[tuple[int, ...], ...]:
        apex = face & -face
        top = apex.bit_length() - 1
        if face == apex:
            return ((top,),)
        subs = {face & mask for mask in masks} - {face, 0}
        sides = [s for s in subs if not s & apex and not any(s != t and s & t == s for t in subs)]
        return tuple((top, *simplex) for side in sides for simplex in pull(side))

    total = 0
    for normal, mask in facets:
        if min(normal[:d]) > 0:
            for simplex in pull(mask & ~rays):
                det = _det([points[k - d] for k in simplex]) if len(simplex) == d else 0
                if not det:
                    raise InvariantBreach(f"degenerate simplex {simplex} on the facet {normal}")
                total += abs(det)
    return total


def _lower_hull_walk(gens: list[tuple[int, int]]) -> int:
    """e(I) in dim 2: the sum of |det(v_k, v_k+1)| over consecutive vertices of the lower hull.

    Sorted by x, minimal generators have strictly decreasing y, and the pure
    powers are the first and last.  One monotone-chain pass keeps a point
    only while it lies strictly below the segment from the point before it
    to the next one: a point on an edge is not a vertex."""
    hull: list[tuple[int, int]] = []
    for x, y in sorted(gens):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            hull.pop()
        hull.append((x, y))
    return sum(x1 * y0 - x0 * y1 for (x0, y0), (x1, y1) in zip(hull, hull[1:]))


def _facets(d: int, points: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """(normal, zero-set mask) of every facet of the cone on the rays (e_i, 0) and points (g, 1).

    Bits 0 .. d-1 are the rays, bit d + k is points[k].  Pure powers go in
    first: they are vertices of every intermediate cone, and after them the
    cone already holds every compact facet of m^ell."""
    order = sorted(range(len(points)), key=lambda k: points[k].count(0) != d - 1)
    first = points[order[0]]
    everything = (1 << d) - 1 | 1 << (d + order[0])
    facets = [
        ((0,) * i + (1,) + (0,) * (d - 1 - i) + (-first[i],), everything & ~(1 << i)) for i in range(d)
    ]
    facets.append(((0,) * d + (1,), (1 << d) - 1))
    ridge = d - 1  # two facets of the (d+1)-dimensional cone meet in a ridge on >= d-1 generators
    mul = operator.mul
    for k in order[1:]:
        v = (*points[k], 1)
        bit = 1 << (d + k)
        pos, neg, zero = [], [], []
        for f in facets:
            s = sum(map(mul, f[0], v))
            if s > 0:
                pos.append((f, s))
            elif s < 0:
                neg.append((f, s))
            else:
                zero.append((f[0], f[1] | bit))
        if not neg:
            facets = [f for f, _ in pos] + zero
            continue
        masks = [mask for _, mask in facets]
        made = []
        for (a, za), sa in pos:
            for (b, zb), sb in neg:
                common = za & zb
                if common.bit_count() < ridge:
                    continue
                if sum(1 for mask in masks if mask & common == common) > 2:
                    continue
                c = [sa * y - sb * x for x, y in zip(a, b)]
                g = math.gcd(*c)
                made.append((tuple(x // g for x in c), common | bit))
        facets = [f for f, _ in pos] + zero + made
    return facets


def _det(rows: list[tuple[int, ...]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]
