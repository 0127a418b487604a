"""Exact monomial ideal arithmetic over a fixed number of variables.

A monomial is an exponent vector, a monomial ideal a finite antichain of
generators under componentwise divisibility.  The antichain of minimal
generators of a monomial ideal is unique, so ideals compare by structural
equality after minimalization.  Supported operations are the ones the
Rees-algebra checks reduce to: sums, products, powers, colon ideals,
membership, colength and multiplicity of m-primary ideals, plus a
brute-force colon kept as an independent oracle and a reader/writer for a
plain-text ideal file format.

Key choices:

* exponents are plain Python ints (arbitrary precision, no overflow);
  anything else, bool and numpy integers included, is refused, and so is a
  dim, degree or power that is not exactly an int (``errors.check_int``);
* a product packs each exponent tuple into one int, so each pair is one
  int addition, and unpacks the distinct sums with divmod; intersections
  and colons form each pair as one ``tuple(map(...))`` (max, or the
  difference clipped at 0).  A Monomial is built only for each distinct
  result, never one per pair;
* the antichain tests divisibility on tuples; in two variables it is the
  staircase: sorted by (x, y), a pair is minimal iff its y is strictly
  below every earlier y, so minimal generators sorted by x have strictly
  decreasing y (Herzog-Hibi, GTM 260, ch. 1).  A dim-2 ideal caches that
  staircase on first use, and membership is then one bisect on the xs;
* colength drops the longest side of the box and sums over the other d-1
  sides, with a cumulative min along each axis in numpy instead of a
  membership test per cell; numpy is imported on the first colength call
  in dim >= 2, so nothing else pays its import;
* multiplicity is the d-th forward difference of n -> colength(I^n)
  sampled at n = 1 .. d+1, exact because that function is eventually a
  degree-d polynomial with integer values.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator

from .errors import check_equal, check_int

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "maximal_power",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "brute_colon",
    "sufficient_colon_bound",
    "random_ideal",
    "parse_ideal",
    "load_ideal",
    "format_ideal",
    "IdealFileError",
]

_COLENGTH_CELL_CAP = 100_000_000


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = self.exponents
        if type(exps) is not tuple:
            exps = tuple(exps)
            object.__setattr__(self, "exponents", exps)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        for e in exps:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int in {exps!r}")
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")

    @classmethod
    def unit(cls, dim: int) -> "Monomial":
        check_int("dim", dim, 1)
        return cls((0,) * dim)

    @classmethod
    def variable(cls, dim: int, index: int, power: int = 1) -> "Monomial":
        check_int("dim", dim, 1)
        check_int("index", index, 0)
        if index >= dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = [0] * dim
        exps[index] = power
        return cls(tuple(exps))

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def divides(self, other: "Monomial") -> bool:
        check_equal("dimension", self.dim, other.dim)
        return all(map(operator.le, self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        check_equal("dimension", self.dim, other.dim)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        check_equal("dimension", self.dim, other.dim)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def colon_by(self, divisor: "Monomial") -> "Monomial":
        """Smallest u with u * divisor divisible by self: max(self - divisor, 0)."""
        check_equal("dimension", self.dim, divisor.dim)
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, divisor.exponents)))

    def as_list(self) -> list[int]:
        return list(self.exponents)

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        names = _var_names(self.dim)
        parts = []
        for name, e in zip(names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def _var_names(dim: int) -> list[str]:
    if dim <= 4:
        return list("xyzw")[:dim]
    return [f"x{k}" for k in range(1, dim + 1)]


def _distinct_sums(a: list[tuple[int, ...]], b: list[tuple[int, ...]], base: int) -> list[tuple[int, ...]]:
    """The distinct exponent-wise sums p + q over p in a, q in b (nonempty, one length).

    Each tuple is packed into one int in base, coordinate 0 most
    significant.  base exceeds every coordinate of every sum, so no field
    carries and the packed sum is the sum of the packed ints.
    """
    dim = len(b[0])
    weights = [base**k for k in range(dim - 1, -1, -1)]
    pa = [sum(map(operator.mul, e, weights)) for e in a]
    pb = [sum(map(operator.mul, e, weights)) for e in b]
    out = []
    for v in {x + y for x in pa for y in pb}:
        e = [0] * dim
        for k in range(dim - 1, 0, -1):
            v, e[k] = divmod(v, base)
        e[0] = v
        out.append(tuple(e))
    return out


def _antichain(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Keep only divisibility-minimal elements, sorted canonically.

    Works on the distinct exponent tuples.  In two variables, sorted by
    (x, y), a pair is divisible by an earlier one iff its y is not strictly
    below the running minimum of the earlier ys.  Otherwise one degree class
    at a time: a monomial can only be divided by a distinct monomial of
    strictly smaller degree, so the inner scan runs only over already-kept
    smaller-degree generators.
    """
    by_exps = {m.exponents: m for m in monos}
    if not by_exps:
        return ()
    exps = list(by_exps)
    if len(exps[0]) == 2:
        kept = []
        for e in sorted(exps):
            if not kept or e[1] < kept[-1][1]:
                kept.append(e)
    else:
        le = operator.le
        by_degree: dict[int, list[tuple[int, ...]]] = {}
        for e in exps:
            by_degree.setdefault(sum(e), []).append(e)
        kept = []
        for deg in sorted(by_degree):
            kept.extend([e for e in by_degree[deg] if not any(all(map(le, k, e)) for k in kept)])
    # canonical order: degree first, then lexicographically descending, so
    # x^2 prints before x*y before y^2
    kept.sort(reverse=True)
    kept.sort(key=sum)
    return tuple(by_exps[e] for e in kept)


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating antichain.

    Value semantics: instances are immutable, compare by (dim, generators)
    and hash.  The empty antichain is the zero ideal; the antichain {1} is
    the unit ideal.
    """

    __slots__ = ("dim", "gens", "_stair")

    def __init__(self, dim: int, gens: Iterable[Monomial] = ()):
        check_int("dim", dim, 1)
        gens = tuple(gens)
        for g in gens:
            if len(g.exponents) != dim:
                check_equal("dimension", len(g.exponents), dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gens", _antichain(gens))
        object.__setattr__(self, "_stair", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MonomialIdeal is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    def num_gens(self) -> int:
        return len(self.gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.dim, self.gens))

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"MonomialIdeal({self.dim}; {inside})"

    # -- membership --------------------------------------------------------

    def _staircase(self) -> tuple[list[int], list[int]]:
        """A dim-2 ideal's generators as xs ascending and ys strictly descending; built once."""
        if self._stair is None:
            pairs = sorted(g.exponents for g in self.gens)
            object.__setattr__(self, "_stair", ([x for x, _ in pairs], [y for _, y in pairs]))
        return self._stair

    def _has(self, e: tuple[int, ...]) -> bool:
        """Membership of the monomial with exponent tuple e (of this ideal's dim)."""
        if self.dim == 2:
            # the generator with the largest x <= e[0] has the smallest y among those
            xs, ys = self._staircase()
            i = bisect.bisect_right(xs, e[0])
            return i > 0 and ys[i - 1] <= e[1]
        le = operator.le
        return any(all(map(le, g.exponents, e)) for g in self.gens)

    def member(self, mono: Monomial) -> bool:
        check_equal("dimension", mono.dim, self.dim)
        return self._has(mono.exponents)

    def __contains__(self, mono: Monomial) -> bool:
        return self.member(mono)

    def contains(self, other: "MonomialIdeal") -> bool:
        """Ideal containment other subset-of self."""
        check_equal("dimension", other.dim, self.dim)
        has = self._has
        return all(has(g.exponents) for g in other.gens)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        check_equal("dimension", other.dim, self.dim)
        return MonomialIdeal(self.dim, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        check_equal("dimension", other.dim, self.dim)
        if not self.gens or not other.gens:
            return MonomialIdeal(self.dim)
        # in canonical order the last generator has the largest degree
        base = 1 + sum(self.gens[-1].exponents) + sum(other.gens[-1].exponents)
        sums = _distinct_sums([g.exponents for g in self.gens], [h.exponents for h in other.gens], base)
        return MonomialIdeal(self.dim, map(Monomial, sums))

    def __pow__(self, n: int) -> "MonomialIdeal":
        check_int("power n", n, 0)
        if n == 0:
            return MonomialIdeal(self.dim, (Monomial.unit(self.dim),))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        check_equal("dimension", other.dim, self.dim)
        right = [h.exponents for h in other.gens]
        raw = {tuple(map(max, g.exponents, b)) for g in self.gens for b in right}
        return MonomialIdeal(self.dim, map(Monomial, raw))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The colon ideal self : other = {u : u*other inside self}.

        Intersection over the generators m of other of the single-monomial
        colons self : (m), each generated by the exponent differences g - m
        clipped at 0 (g.colon_by(m) for each generator g of self).
        """
        check_equal("dimension", other.dim, self.dim)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is the whole ring; not represented")
        if self.is_zero:
            return self
        left = [g.exponents for g in self.gens]

        def single(m: tuple[int, ...]) -> MonomialIdeal:
            raw = {tuple(a - b if a > b else 0 for a, b in zip(e, m)) for e in left}
            return MonomialIdeal(self.dim, map(Monomial, raw))

        return functools.reduce(
            MonomialIdeal.intersection, (single(m.exponents) for m in other.gens)
        )

    # -- numerics ----------------------------------------------------------

    def colength(self) -> int:
        """Length of the quotient by self, finite iff self is m-primary.

        An ideal here is m-primary iff some pure power of every variable is
        a generator; those pure powers bound the box of candidate standard
        monomials.  Drop the longest side: above a cell u of the other
        sides lie t(u) standard monomials, t(u) the least exponent on the
        dropped axis of a generator whose other exponents are <= u.  Each
        generator inside sets its cell, a cumulative min along each axis
        spreads it upward, and the colength is the sum of t.
        """
        if self.is_unit:
            return 0
        dim = self.dim
        box = [0] * dim
        for g in self.gens:
            e = g.exponents
            if e.count(0) == dim - 1:
                side = max(e)
                box[e.index(side)] = side
        if 0 in box:
            raise ValueError(
                f"not m-primary: no pure power of variable index {box.index(0)} among the generators"
            )
        cells = 1
        for side in box:
            cells *= side
        if cells > _COLENGTH_CELL_CAP:
            raise ValueError(f"colength box has {cells} cells; refusing beyond {_COLENGTH_CELL_CAP}")
        if dim == 1:
            return box[0]
        top = max(box)
        drop = box.index(top)
        sides = box[:drop] + box[drop + 1 :]
        lowest: dict[tuple[int, ...], int] = {}
        for g in self.gens:
            e = g.exponents
            h = e[drop]
            if h < top:
                u = e[:drop] + e[drop + 1 :]
                if all(map(operator.lt, u, sides)) and h < lowest.get(u, top):
                    lowest[u] = h
        import numpy as np

        t = np.full(sides, top, dtype=np.int64)
        if lowest:
            t[tuple(zip(*lowest))] = list(lowest.values())
        for axis in range(dim - 1):
            np.minimum.accumulate(t, axis=axis, out=t)
        return int(t.sum())

    def multiplicity(self) -> int:
        """Hilbert-Samuel multiplicity of an m-primary ideal.

        d-th forward difference of f(n) = colength(self^n) at n = 1 .. d+1.
        A d-th difference of a degree-d polynomial is d! times its leading
        coefficient, so this is exact whenever f agrees with its Hilbert
        polynomial on the sampled window; for the powers of the maximal
        ideal exercised here, f is that polynomial from n = 0 on.
        """
        from math import comb

        d = self.dim
        values = []
        power = self
        for n in range(1, d + 2):
            values.append(power.colength())
            if n <= d:
                power = power * self
        return sum((-1) ** (d - k) * comb(d, k) * values[k] for k in range(d + 1))


def maximal_power(dim: int, degree: int) -> MonomialIdeal:
    """The power m^degree of the maximal ideal: all monomials of that degree."""
    return MonomialIdeal(dim, monomials_of_degree(dim, degree))


def monomials_of_degree(dim: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree (stars and bars)."""
    check_int("dim", dim, 1)
    check_int("degree", degree, 0)
    out = []
    for cuts in itertools.combinations(range(degree + dim - 1), dim - 1):
        bounds = (-1,) + cuts + (degree + dim - 1,)
        out.append(Monomial(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))))
    return out


def monomials_up_to_degree(dim: int, bound: int) -> Iterator[Monomial]:
    """All exponent vectors of total degree at most bound, degree by degree."""
    check_int("bound", bound, 0)
    return itertools.chain.from_iterable(monomials_of_degree(dim, deg) for deg in range(bound + 1))


def brute_colon(ideal: MonomialIdeal, other: MonomialIdeal, degree_bound: int) -> MonomialIdeal:
    """Colon by exhaustive search: all u of degree <= degree_bound with u*other in ideal.

    Pure truncation semantics: the result is exactly the colon when every
    minimal colon generator has degree <= degree_bound.  The componentwise
    max of ideal's generators is divisible by every minimal colon generator,
    so its degree is always a sufficient bound.
    """
    check_equal("dimension", other.dim, ideal.dim)
    check_int("degree_bound", degree_bound, 0)
    if other.is_zero:
        raise ValueError("colon by the zero ideal is the whole ring; not represented")
    found = [
        u
        for u in monomials_up_to_degree(ideal.dim, degree_bound)
        if all(ideal.member(u * m) for m in other.gens)
    ]
    return MonomialIdeal(ideal.dim, found)


def sufficient_colon_bound(ideal: MonomialIdeal) -> int:
    """A degree bound that makes brute_colon agree with colon for any divisor.

    Every minimal generator u of ideal : J satisfies, componentwise,
    u_c <= max over generators g of ideal of g_c: u arises as g.colon_by(m)
    intersections, and lcm/colon_by never exceed that max.  So the degree of
    the componentwise max is enough.
    """
    if ideal.is_zero:
        return 0
    return sum(max(g.exponents[k] for g in ideal.gens) for k in range(ideal.dim))


def random_ideal(
    rng: Random, dim: int, max_degree: int = 5, max_gens: int = 4
) -> MonomialIdeal:
    """A nonzero random monomial ideal for seeded property sweeps."""
    count = rng.randint(1, max_gens)
    return MonomialIdeal(dim, (_random_monomial(rng, dim, max_degree) for _ in range(count)))


def _random_monomial(rng: Random, dim: int, max_degree: int) -> Monomial:
    exps = [0] * dim
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(dim)] += 1
    return Monomial(tuple(exps))


# -- ideal file format -----------------------------------------------------
#
# One generator per line as space-separated exponents; blank lines and lines
# starting with '#' are ignored; the dimension is the length of the first
# generator line unless given explicitly.  A file with no generator lines
# denotes the zero ideal and then needs an explicit dimension.


class IdealFileError(ValueError):
    """Malformed ideal file content."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        where = f"{path}:{line_no}" if line_no else path
        super().__init__(f"{where}: {reason}")


def parse_ideal(text: str, dim: int | None = None, path: str = "<string>") -> MonomialIdeal:
    gens: list[Monomial] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        exps = []
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise IdealFileError(path, line_no, f"not an integer exponent: {token!r}") from None
            if value < 0:
                raise IdealFileError(path, line_no, f"negative exponent: {value}")
            exps.append(value)
        if dim is None:
            dim = len(exps)
        elif len(exps) != dim:
            raise IdealFileError(
                path, line_no, f"expected {dim} exponents, got {len(exps)}"
            )
        gens.append(Monomial(tuple(exps)))
    if dim is None:
        raise IdealFileError(path, 0, "no generator lines and no dimension given")
    return MonomialIdeal(dim, gens)


def load_ideal(path: str, dim: int | None = None) -> MonomialIdeal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal(fh.read(), dim=dim, path=path)


def format_ideal(ideal: MonomialIdeal, header: str | None = None) -> str:
    """Render in the ideal file format; round-trips through parse_ideal."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.extend(" ".join(str(e) for e in g.exponents) for g in ideal.gens)
    return "\n".join(lines) + "\n"
