"""Monomial modules over the r-th Veronese of a 2-variable power-series ring.

The ambient ring is spanned by the monomials s^a t^b with a + b divisible
by r; it has minimal multiplicity, its maximal ideal m (all monomials of
degree exactly r and their multiples) is a good ideal, and its canonical
module K is spanned by the interior degree-r monomials s^(r-1)t .. st^(r-1).
Modules here are finitely generated by exponent pairs, with the exact
membership rule: p lies in the module iff p - q is componentwise
non-negative with total degree divisible by r for some generator q.  So a
module is stored as one two-variable MonomialIdeal per residue class of
a + b mod r, and membership, equality, products, shifts and unions are all
engine operations on those ideals, class by class.

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

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import check_budget, check_equal, check_int
from .monomials import _DEGREE_GEN_CAP, _PRODUCT_PAIR_CAP, MonomialIdeal, maximal_power

__all__ = [
    "Pair",
    "SemigroupModule",
    "VeroneseInstance",
    "verify_minimal_multiplicity",
    "verify_good_agg_parts",
    "veronese_report",
]

Pair = tuple[int, int]


def _check_pair(p: Pair) -> Pair:
    a, b = p
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"exponent pair {p!r} needs two non-negative ints")
    return (a, b)


@dataclass(frozen=True, init=False)
class SemigroupModule:
    """Module over the degree-r Veronese semigroup, held as its class ideals.

    _classes pairs each residue class c of a + b mod r that has a generator,
    in increasing c, with the MonomialIdeal of that class's minimal
    generators.  The constructor checks r and every pair; a module computed
    from checked ones (times, shift, union) is built by _of without checking.
    """

    r: int
    _classes: tuple[tuple[int, MonomialIdeal], ...]

    def __init__(self, r: int, gens: Iterable[Pair]) -> None:
        check_int("r", r, 1)
        classes: dict[int, list[Pair]] = {}
        for p in map(_check_pair, gens):
            classes.setdefault(sum(p) % r, []).append(p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_classes", tuple((c, MonomialIdeal._of(2, classes[c])) for c in sorted(classes)))

    @classmethod
    def _of(cls, r: int, parts: Iterable[tuple[int, MonomialIdeal]]) -> "SemigroupModule":
        """The module whose class-c ideal is the sum of the ideals parts gives for c."""
        classes: dict[int, MonomialIdeal] = {}
        for c, ideal in parts:
            classes[c] = classes[c] + ideal if c in classes else ideal
        module = object.__new__(cls)
        object.__setattr__(module, "r", r)
        object.__setattr__(module, "_classes", tuple(sorted(classes.items())))
        return module

    @property
    def gens(self) -> frozenset[Pair]:
        """The minimal generators."""
        return frozenset(p for _, ideal in self._classes for p in ideal._exps)

    def member(self, p: Pair) -> bool:
        p = _check_pair(p)
        ideal = dict(self._classes).get(sum(p) % self.r)
        return ideal is not None and ideal._has(p)

    def equals(self, other: "SemigroupModule") -> bool:
        """Module equality: the same ideal in every residue class."""
        check_equal("Veronese degree", self.r, other.r)
        return self._classes == other._classes

    def shift(self, p: Pair) -> "SemigroupModule":
        """Multiply by the single monomial p: translate every class ideal's generators by p."""
        a, b = _check_pair(p)
        return SemigroupModule._of(self.r, (
            ((c + a + b) % self.r, MonomialIdeal._of(2, [(x + a, y + b) for x, y in I._exps], minimal=True))
            for c, I in self._classes))

    def times(self, other: "SemigroupModule") -> "SemigroupModule":
        """The product module; refuses before forming any pair past the engine's product budget."""
        check_equal("Veronese degree", self.r, other.r)
        count = [sum(I.num_gens() for _, I in M._classes) for M in (self, other)]
        check_budget("product generator pairs", count[0] * count[1], _PRODUCT_PAIR_CAP)
        return SemigroupModule._of(self.r, (
            ((c + d) % self.r, I * J) for c, I in self._classes for d, J in other._classes))

    def union(self, other: "SemigroupModule") -> "SemigroupModule":
        """Module sum: the ideal sum in every residue class."""
        check_equal("Veronese degree", self.r, other.r)
        return SemigroupModule._of(self.r, self._classes + other._classes)

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
        """m^k, the engine's m^(k*r) in residue class 0; refuses past the engine's m^k budget."""
        check_int("k", k, 0)
        return SemigroupModule._of(self.r, [(0, maximal_power(2, k * self.r))])

    def canonical(self) -> SemigroupModule:
        """K, generated by the interior monomials of degree r; refuses past the engine's m^k budget."""
        check_budget(f"interior monomials of degree {self.r}", self.r - 1, _DEGREE_GEN_CAP)
        return SemigroupModule(self.r, ((self.r - j, j) for j in range(1, self.r)))


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


def veronese_report(r: int, ell: int) -> dict:
    """Serializable outcome of every Veronese check for (r, ell).

    The claim is both identities plus the proof-form precondition.
    """
    inst = VeroneseInstance(r)
    parts = verify_good_agg_parts(inst, ell)
    return {
        "r": r,
        "ell": ell,
        "x": list(inst.x),
        "y": list(inst.y),
        "z": list(inst.z),
        "minimal_multiplicity": verify_minimal_multiplicity(inst),
        "claim": parts["precondition_proof_form"] and parts["identity_one"] and parts["identity_two"],
        **parts,
    }
