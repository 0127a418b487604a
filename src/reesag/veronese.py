"""Monomial modules over the r-th Veronese of a 2-variable power-series ring.

The ambient ring is spanned by the monomials s^a t^b with a + b divisible
by r; it has minimal multiplicity, its maximal ideal m (all monomials of
degree exactly r and their multiples) is a good ideal, and its canonical
module K is spanned by the interior degree-r monomials s^(r-1)t .. st^(r-1).
Modules here are finitely generated by exponent pairs, with the exact
membership rule: p lies in the module iff p - q is componentwise
non-negative with total degree divisible by r for some generator q.  So a
module is one two-variable monomial ideal per residue class of a + b mod r,
and membership and equality are answered by those MonomialIdeals, class by
class.

The checks in this module replay, degree by degree, the finite identities
that make the Rees algebra of m an almost Gorenstein graded ring:

    m K       = y K + x m                (precondition, proof form)
    m^(l+1) K = y m^l K + m h            (identity one, h = x z^l)
    m^(2l) K  = y^l m^l K + m^l h        (identity two)

with x = s t^(r-1), y = s^r, z = t^r.  A variant precondition with an extra
factor, m K = y m K + x m, agrees with the proof form at r = 2 but fails
for every r >= 3, so the checker computes both forms and reports them
separately instead of assuming one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import check_equal, check_int
from .monomials import Monomial, MonomialIdeal, _distinct_sums

__all__ = [
    "Pair",
    "SemigroupModule",
    "VeroneseInstance",
    "verify_minimal_multiplicity",
    "verify_good_agg_claim",
    "verify_good_agg_parts",
    "veronese_report",
]

Pair = tuple[int, int]


def _check_pair(p: Pair) -> Pair:
    a, b = p
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"exponent pair {p!r} needs two non-negative ints")
    return (a, b)


def _add(p: Pair, q: Pair) -> Pair:
    return (p[0] + q[0], p[1] + q[1])


@dataclass(frozen=True)
class SemigroupModule:
    """Module over the degree-r Veronese semigroup, given by its generators."""

    r: int
    gens: frozenset[Pair]

    def __post_init__(self) -> None:
        check_int("r", self.r, 1)
        object.__setattr__(self, "gens", frozenset(_check_pair(p) for p in self.gens))

    @functools.cached_property
    def _ideals(self) -> dict[int, MonomialIdeal]:
        """Residue class of a + b mod r -> the ideal its generators span."""
        classes: dict[int, list[Monomial]] = {}
        for p in self.gens:
            classes.setdefault(sum(p) % self.r, []).append(Monomial(p))
        return {c: MonomialIdeal(2, gens) for c, gens in classes.items()}

    def member(self, p: Pair) -> bool:
        p = _check_pair(p)
        ideal = self._ideals.get(sum(p) % self.r)
        return ideal is not None and ideal._has(p)

    def equals(self, other: "SemigroupModule") -> bool:
        """Module equality: the same ideal in every residue class."""
        check_equal("Veronese degree", self.r, other.r)
        return self._ideals == other._ideals

    def shift(self, p: Pair) -> "SemigroupModule":
        """Multiply by the single monomial p."""
        p = _check_pair(p)
        return SemigroupModule(self.r, frozenset(_add(p, q) for q in self.gens))

    def times(self, other: "SemigroupModule") -> "SemigroupModule":
        check_equal("Veronese degree", self.r, other.r)
        if not self.gens or not other.gens:
            return SemigroupModule(self.r, frozenset())
        base = 1 + max(map(sum, self.gens)) + max(map(sum, other.gens))
        return SemigroupModule(self.r, frozenset(_distinct_sums(list(self.gens), list(other.gens), base)))

    def union(self, other: "SemigroupModule") -> "SemigroupModule":
        """Module sum."""
        check_equal("Veronese degree", self.r, other.r)
        return SemigroupModule(self.r, self.gens | other.gens)

    def sorted_gens(self) -> list[Pair]:
        return sorted(self.gens)


@dataclass(frozen=True)
class VeroneseInstance:
    """The degree-r Veronese ambient with its distinguished elements."""

    r: int

    def __post_init__(self) -> None:
        if type(self.r) is int and self.r == 1:
            raise ValueError(
                "need r >= 2: r = 1 is the regular ambient, where m is a parameter ideal (got 1)"
            )
        check_int("r", self.r, 2)

    @property
    def x(self) -> Pair:
        return (1, self.r - 1)

    @property
    def y(self) -> Pair:
        return (self.r, 0)

    @property
    def z(self) -> Pair:
        return (0, self.r)

    def maximal_ideal(self) -> SemigroupModule:
        return self.maximal_power(1)

    def maximal_power(self, k: int) -> SemigroupModule:
        """m^k, generated by every monomial of total degree k*r."""
        check_int("k", k, 0)
        deg = k * self.r
        return SemigroupModule(self.r, frozenset((deg - j, j) for j in range(deg + 1)))

    def canonical(self) -> SemigroupModule:
        """K, generated by the interior monomials of degree r."""
        return SemigroupModule(
            self.r, frozenset((self.r - j, j) for j in range(1, self.r))
        )


def verify_minimal_multiplicity(inst: VeroneseInstance) -> bool:
    """m^2 = y m + z m as semigroup modules."""
    m = inst.maximal_ideal()
    lhs = m.times(m)
    rhs = m.shift(inst.y).union(m.shift(inst.z))
    return lhs.equals(rhs)


def verify_good_agg_parts(inst: VeroneseInstance, ell: int) -> dict[str, bool]:
    """All pieces of the almost-Gorenstein-graded claim for m, at one ell.

    Returns each check separately: the proof-form precondition
    m K = y K + x m, the two identities with f = y, g = y^ell, h = x z^ell,
    the membership x not in m K, and the example-display variant
    m K = y m K + x m (true only at r = 2).
    """
    check_int("ell", ell, 1)
    m = inst.maximal_ideal()
    K = inst.canonical()
    x, y = inst.x, inst.y
    h = (x[0] + ell * inst.z[0], x[1] + ell * inst.z[1])  # x z^ell
    g = (ell * y[0], ell * y[1])  # y^ell
    mK = m.times(K)
    m_ell_K = inst.maximal_power(ell).times(K)
    precondition_proof_form = mK.equals(K.shift(y).union(m.shift(x)))
    precondition_display_form = mK.equals(mK.shift(y).union(m.shift(x)))
    identity_one = inst.maximal_power(ell + 1).times(K).equals(
        m_ell_K.shift(y).union(m.shift(h))
    )
    identity_two = inst.maximal_power(2 * ell).times(K).equals(
        m_ell_K.shift(g).union(inst.maximal_power(ell).shift(h))
    )
    return {
        "precondition_proof_form": precondition_proof_form,
        "precondition_display_form": precondition_display_form,
        "identity_one": identity_one,
        "identity_two": identity_two,
        "x_outside_mK": not mK.member(x),
        "h_inside_m_ell_K": m_ell_K.member(h),
    }


def _claim_holds(parts: dict[str, bool]) -> bool:
    return parts["precondition_proof_form"] and parts["identity_one"] and parts["identity_two"]


def verify_good_agg_claim(inst: VeroneseInstance, ell: int) -> bool:
    """Both claim identities plus the proof-form precondition."""
    return _claim_holds(verify_good_agg_parts(inst, ell))


def veronese_report(r: int, ell: int) -> dict:
    """Serializable outcome of every Veronese check for (r, ell)."""
    inst = VeroneseInstance(r)
    parts = verify_good_agg_parts(inst, ell)
    return {
        "r": r,
        "ell": ell,
        "x": list(inst.x),
        "y": list(inst.y),
        "z": list(inst.z),
        "minimal_multiplicity": verify_minimal_multiplicity(inst),
        "claim": _claim_holds(parts),
        **parts,
    }
