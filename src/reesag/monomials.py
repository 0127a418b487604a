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
  anything else, bool and numpy integers included, is refused;
* product/power work on raw exponent tuples internally and only build
  Monomial objects for the deduplicated results;
* colength fills a numpy box with a divisibility closure (a cumulative
  max along each axis) instead of testing membership cell by cell; numpy
  is imported on the first colength call, so nothing else pays its import;
* multiplicity is the d-th forward difference of n -> colength(I^n)
  sampled at n = 1 .. d+1, exact because that function is eventually a
  degree-d polynomial with integer values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator

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
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        for e in exps:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int in {exps!r}")
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def unit(cls, dim: int) -> "Monomial":
        return cls((0,) * dim)

    @classmethod
    def variable(cls, dim: int, index: int, power: int = 1) -> "Monomial":
        if not 0 <= index < dim:
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
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_same_dim(self.dim, other.dim)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        _check_same_dim(self.dim, other.dim)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def colon_by(self, divisor: "Monomial") -> "Monomial":
        """Smallest u with u * divisor divisible by self: max(self - divisor, 0)."""
        _check_same_dim(self.dim, divisor.dim)
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


def _check_same_dim(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def _mono_sort_key(m: Monomial) -> tuple:
    # degree first, then reverse lexicographic so x^2 prints before x*y before y^2
    return (m.degree, tuple(-e for e in m.exponents))


def _antichain(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Keep only divisibility-minimal elements, sorted canonically.

    Processed one degree class at a time: a monomial can only be divided by
    a distinct monomial of strictly smaller degree, so candidates of equal
    degree never eliminate each other and the inner scan runs only over
    already-kept smaller-degree generators.
    """
    by_degree: dict[int, list[Monomial]] = {}
    for m in set(monos):
        by_degree.setdefault(m.degree, []).append(m)
    kept: list[Monomial] = []
    for deg in sorted(by_degree):
        survivors = [m for m in by_degree[deg] if not any(g.divides(m) for g in kept)]
        kept.extend(survivors)
    return tuple(sorted(kept, key=_mono_sort_key))


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating antichain.

    Value semantics: instances are immutable, compare by (dim, generators)
    and hash.  The empty antichain is the zero ideal; the antichain {1} is
    the unit ideal.
    """

    __slots__ = ("dim", "gens")

    def __init__(self, dim: int, gens: Iterable[Monomial] = ()):
        if dim < 1:
            raise ValueError(f"need dim >= 1, got {dim}")
        gens = tuple(gens)
        for g in gens:
            _check_same_dim(g.dim, dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gens", _antichain(gens))

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

    def member(self, mono: Monomial) -> bool:
        _check_same_dim(mono.dim, self.dim)
        return any(g.divides(mono) for g in self.gens)

    def __contains__(self, mono: Monomial) -> bool:
        return self.member(mono)

    def contains(self, other: "MonomialIdeal") -> bool:
        """Ideal containment other subset-of self."""
        _check_same_dim(other.dim, self.dim)
        return all(self.member(g) for g in other.gens)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_dim(other.dim, self.dim)
        return MonomialIdeal(self.dim, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_dim(other.dim, self.dim)
        if self.is_zero or other.is_zero:
            return MonomialIdeal(self.dim)
        raw = {
            tuple(a + b for a, b in zip(g.exponents, h.exponents))
            for g in self.gens
            for h in other.gens
        }
        return MonomialIdeal(self.dim, (Monomial(t) for t in raw))

    def __pow__(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError(f"need power n >= 0, got {n}")
        if n == 0:
            return MonomialIdeal(self.dim, (Monomial.unit(self.dim),))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_dim(other.dim, self.dim)
        return MonomialIdeal(
            self.dim, (g.lcm(h) for g in self.gens for h in other.gens)
        )

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The colon ideal self : other = {u : u*other inside self}.

        Intersection over the generators m of other of the single-monomial
        colons self : (m), each generated by g.colon_by(m).
        """
        _check_same_dim(other.dim, self.dim)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is the whole ring; not represented")
        if self.is_zero:
            return self
        singles = (
            MonomialIdeal(self.dim, (g.colon_by(m) for g in self.gens)) for m in other.gens
        )
        return functools.reduce(MonomialIdeal.intersection, singles)

    # -- numerics ----------------------------------------------------------

    def colength(self) -> int:
        """Length of the quotient by self, finite iff self is m-primary.

        An ideal here is m-primary iff some pure power of every variable is
        a generator; those pure powers bound the box of candidate standard
        monomials.  The box is swept with numpy: mark the generators inside,
        take a cumulative max along each axis (marking every multiple), and
        count the cells left unmarked.
        """
        if self.is_unit:
            return 0
        box = []
        for k in range(self.dim):
            pure = [
                g.exponents[k]
                for g in self.gens
                if g.exponents[k] > 0 and g.degree == g.exponents[k]
            ]
            if not pure:
                raise ValueError(
                    f"not m-primary: no pure power of variable index {k} among the generators"
                )
            box.append(min(pure))
        cells = 1
        for side in box:
            cells *= side
        if cells > _COLENGTH_CELL_CAP:
            raise ValueError(f"colength box has {cells} cells; refusing beyond {_COLENGTH_CELL_CAP}")
        import numpy as np

        marked = np.zeros(tuple(box), dtype=np.uint8)
        inside = [g.exponents for g in self.gens if all(e < s for e, s in zip(g.exponents, box))]
        if inside:
            marked[tuple(np.array(inside, dtype=np.int64).T)] = 1
        for axis in range(self.dim):
            np.maximum.accumulate(marked, axis=axis, out=marked)
        return int(marked.size - int(marked.sum()))

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
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    return MonomialIdeal(dim, monomials_of_degree(dim, degree))


def monomials_of_degree(dim: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree (stars and bars)."""
    out = []
    for cuts in itertools.combinations(range(degree + dim - 1), dim - 1):
        bounds = (-1,) + cuts + (degree + dim - 1,)
        out.append(Monomial(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))))
    return out


def monomials_up_to_degree(dim: int, bound: int) -> Iterator[Monomial]:
    for deg in range(bound + 1):
        yield from monomials_of_degree(dim, deg)


def brute_colon(ideal: MonomialIdeal, other: MonomialIdeal, degree_bound: int) -> MonomialIdeal:
    """Colon by exhaustive search: all u of degree <= degree_bound with u*other in ideal.

    Pure truncation semantics: the result is exactly the colon when every
    minimal colon generator has degree <= degree_bound.  The componentwise
    max of ideal's generators is divisible by every minimal colon generator,
    so its degree is always a sufficient bound.
    """
    _check_same_dim(other.dim, ideal.dim)
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
