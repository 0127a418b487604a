"""Exact monomial ideal arithmetic over a fixed number of variables.

A monomial is an exponent vector, a monomial ideal a finite antichain of
generators under componentwise divisibility.  The antichain of minimal
generators of a monomial ideal is unique, so ideals compare by structural
equality after minimalization.  Supported operations are the ones the
Rees-algebra checks reduce to: sums, products, powers, colon ideals,
containment, colength and multiplicity of m-primary ideals, plus a
brute-force colon kept as an independent oracle and a reader/writer for a
plain-text ideal file format.

Key choices:

* exponents are plain Python ints (arbitrary precision, no overflow);
  anything else, bool and numpy integers included, is refused, and so is a
  dim, degree or power that is not exactly an int (``errors.check_int``).
  That check runs once, at the boundary: ``Monomial(...)`` and
  ``MonomialIdeal(dim, iterable)`` check what they are given, while every
  result the engine computes is built by ``MonomialIdeal._of`` straight
  from exponent tuples;
* an ideal stores only its minimal generators' exponent tuples, in
  canonical order, and every operation reads them.  ``.gens`` builds one
  Monomial per generator on its first read and keeps them, so an ideal
  the engine computes and nobody prints builds none.  ``_of(...,
  minimal=True)`` takes tuples that are already minimal and canonical and
  stores them as they come; each caller keeps that order instead of
  sorting again (one-degree products, sums, m^k, colon tables);
* distinct monomials of one degree never divide each other (Herzog-Hibi,
  GTM 260, ch. 1).  So when two ideals are generated in one and the same
  degree, their sum is generated by the union of their generators, and
  one contains the other iff its generators include the other's: no
  antichain runs and no membership is tested.  In canonical order, one
  degree reads as the first and last generators of both having equal
  degrees, and canonical order is lexicographically descending;
* only a product of two one-degree ideals packs: generated each in a
  degree of its own, their product is generated in one degree, and by
  the fact above every distinct sum is a minimal generator, so no
  antichain runs.  The paper's checks multiply, add and compare only such
  ideals: powers of m, J = m^(ell-1), principal ideals and pure-power
  reductions.  Below 48 pairs it adds the exponent tuples directly, where
  packing costs more: in dims 2-4, 4 pairs took 3-6 us so against 8-11 us
  packed, the two were even from 30 to 48 pairs, and 64 pairs took
  20-50 % longer on tuples.  From 48 pairs on it packs the first d-1
  coordinates of each exponent tuple into one int in base degree + 1, so
  each pair is one int addition, unpacks the distinct sums column by
  column with divmod and sets the last coordinate to the degree minus the
  others.  The sums come out canonical: sorted descending, as tuples or
  as packed ints, whose order is the tuples' order.  From 2 048 pairs on,
  while the base**(d-1) cells are no more than the pairs, the rule
  ``_sumset`` keeps below, and numpy is already loaded, numpy adds the
  packed int64s, marks each sum in a boolean array of those cells, reads
  the marks back with ``np.flatnonzero`` and unpacks with divmod (it wins
  from about 64 pairs, 2-6x from 144 pairs in dims 2-5).  Every packed
  sum is below the cells, so below the pair budget, and fits int64.  A
  product never imports numpy: Python's sums cost 0.05-0.17 us a pair and
  numpy saves at most 0.15 us of them, so the import pays only in a
  process that loads numpy anyway: m^22 * m^16 in dim 4, 2 228 700 pairs,
  takes 85 ms in Python against 12 ms in numpy plus 50 ms to import it
  (2-CPU Linux VM, Python 3.11, numpy 2.4).
  A mixed-degree product adds exponent tuples at any size and hands its
  distinct sums to the antichain, which costs many times the sums: on
  random ideals in dims 3-5, 5 328 to 27 716 pairs, packing saved 4-28 ms
  of products that took 8-680 ms.  Intersections and colons form each pair
  as one ``tuple(map(...))`` (max, or the difference clipped at 0);
* in two variables a one-degree ideal of degree D is its set of
  x-exponents (each y is D - x), so a product of two such ideals is the
  sumset of those sets.  From 48 pairs on it is one int per factor, with
  a bit set at each x less the factor's least x, and the OR of the longer
  factor's int shifted by each x of the shorter: Python ints, so
  exponents of any size stay exact.  It runs while those ints span at
  most as many bits as there are pairs; wider, sparser factors pack as
  above.  m^1000 * m^1000 takes 0.45 ms as a sumset against 2.9 ms
  packed, and every product of the d = 2 certificate and of the Veronese
  checks takes it.  m^k in two variables is one comprehension;
* a product or an intersection refuses past 10^7 generator pairs (about
  80 MB of a product's int64 sums, up to about 1 GB of an intersection's
  tuples), colength past 10^8 box cells and m^k past 10^6 generators
  (about 190 B each in dim 5) or past 5 * 10^6 exponents, dim to a
  generator, before anything is built
  (``errors.check_budget``); a pairwise colon is a chain of
  intersections on tuples, so each of its steps is bounded too;
* the antichain tests divisibility on tuples; in two variables it is the
  staircase: sorted by (x, y), a pair is minimal iff its y is strictly
  below every earlier y, so minimal generators sorted by x have strictly
  decreasing y (Herzog-Hibi, GTM 260, ch. 1).  In more variables one
  stable sort by degree (each degree keeps the set order) and one scan
  test each candidate against the kept generators of smaller degree
  only.  Against every kept one the scan is quadratic on one-degree sets:
  a colon through two single colons of 3 202 one-degree generators took
  31 s in a test under tracemalloc, against under 1 s;
* membership of one monomial is one scan of the generators in every
  dimension, and nothing is cached for it.  Containment of two one-degree
  ideals is a set test; what still tests membership is containment of
  other ideals, the brute-force colon and the Veronese ``member``, whose
  largest ideal in a verb or benchmark has about 240 generators;
* one builder, ``_drop_table``, makes t(u) over a box with its longest side
  dropped: the least dropped-axis exponent of a generator below u, spread by
  a cumulative min along each axis in numpy.  From 32 generators on
  ``np.minimum.at`` scatters them; Python won only below 16-24 generators in
  dims 2-5.  colength sums the table; a colon of >= 64 generator pairs takes
  the max of its shifted copies, and its cells are already the minimal
  generators.  Measured, the table won 190 of 220 colons of 16-31 pairs and
  all 130 from 64 on; smaller colons stay pairwise and off numpy, which
  loads on the first table.  ``np.minimum.accumulate`` is a scalar loop of
  about 4 ns a cell on any axis, so every table takes the narrowest signed
  dtype that holds -fill - 1 .. fill, and each axis whose slabs hold
  >= 1 024 cells in contiguous runs of >= 8 is swept slab by slab, one
  vectorized ``np.minimum`` per slab: 3.5x faster on the 20^4 int8 table
  of m^20 in dim 5.  Slabs of 256 cells lost 2-5x on 16^3, and the last
  axis of 1 000^2, slabs in runs of one cell, lost 5.5x.  On tiny tables
  the dtype makes no difference: a dim-3 colength of 4 generators takes
  11 us on int64 and on int8;
* multiplicity is d! times the covolume of the Newton polyhedron
  conv(generators) + R^d_{>=0} (Teissier 2004; Herzog-Hibi, GTM 260): a sum
  of integer determinants over a triangulation of its compact facets, from
  the private module ``_newton``, imported on the first call.  No power of
  the ideal is formed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, Sequence

from .errors import check_budget, check_equal, check_int

__all__ = [
    "Monomial", "MonomialIdeal", "maximal_power", "brute_colon", "sufficient_colon_bound", "random_ideal",
    "parse_ideal", "load_ideal", "format_ideal", "IdealFileError",
]

_COLENGTH_CELL_CAP = 100_000_000
_PRODUCT_PAIR_CAP = 10_000_000
_DEGREE_GEN_CAP = 1_000_000
_COLON_TABLE_PAIRS = 64
_SUM_PACK_PAIRS = 48
_SUM_NUMPY_PAIRS = 2048
_SCATTER_NUMPY_GENS = 32
_SLAB_CELLS = 1024
_SLAB_RUN = 8
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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


def _distinct_sums(a: list[tuple[int, ...]], b: list[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    """The distinct exponent-wise sums p + q over p in a, q in b, all of the given degree, in canonical order.

    a and b are nonempty, of one length, and every p + q has that degree,
    so the canonical order is lexicographically descending.  Below
    _SUM_PACK_PAIRS pairs, and in dim 1, each sum is one tuple.  From there
    on the first dim-1 coordinates of each tuple are packed into one int in
    base degree + 1, coordinate 0 most significant; that base exceeds every
    coordinate of every sum, so no field carries, the packed sum is the sum
    of the packed ints, and packed ints descending are the tuples
    descending.  Each sum's last coordinate is degree minus the rest.  From
    _SUM_NUMPY_PAIRS pairs on, while cells = base**(dim-1) <= pairs, and if
    numpy is already loaded, numpy forms the sums in one array, marks each
    in a boolean array of cells entries and reads the marks back.  Every
    packed sum is below cells, so it fits int64.  In dim 2, _sumset is
    tried before any packing.
    """
    pairs = len(a) * len(b)
    if pairs < _SUM_PACK_PAIRS or len(a[0]) == 1:  # a dim-1 ideal has one generator: one pair, nothing to pack
        add = operator.add
        return sorted({tuple(map(add, p, q)) for p in a for q in b}, reverse=True)
    dim = len(b[0])
    if dim == 2:
        xs = _sumset(a, b, pairs)
        if xs is not None:
            return [(x, degree - x) for x in xs]
    base, packed = degree + 1, dim - 1
    weights = [base**k for k in range(packed - 1, -1, -1)]
    cells = base**packed
    cols = []  # one column per packed coordinate, the least significant first
    if pairs >= _SUM_NUMPY_PAIRS and cells <= pairs and "numpy" in sys.modules:
        import numpy as np

        w = np.array(weights, dtype=np.int64)
        v = np.add.outer(_int64_rows(a, dim)[:, :packed] @ w, _int64_rows(b, dim)[:, :packed] @ w).reshape(-1)
        marks = np.zeros(cells, dtype=bool)
        marks[v] = True
        v = np.flatnonzero(marks)[::-1]
        for _ in range(packed - 1):
            v, low = np.divmod(v, base)
            cols.append(low.tolist())
        cols.append(v.tolist())
    else:
        # map stops at the shorter of e and weights, so the unpacked last coordinate is skipped
        pa = [sum(map(operator.mul, e, weights)) for e in a]
        pb = [sum(map(operator.mul, e, weights)) for e in b]
        v = sorted({x + y for x in pa for y in pb}, reverse=True)
        for _ in range(packed - 1):
            cols.append([x % base for x in v])
            v = [x // base for x in v]
        cols.append(v)
    cols.reverse()
    last = itertools.repeat(degree)
    for c in cols:
        last = map(operator.sub, last, c)
    cols.append(last)
    return list(zip(*cols))


def _sumset(a: list[tuple[int, ...]], b: list[tuple[int, ...]], pairs: int) -> Iterator[int] | None:
    """The distinct sums of the first coordinates of a and b, descending; None past pairs bits.

    Each side's first coordinates, less their least one, are the set bits
    of one int, and the sumset is the OR of the longer side's int shifted
    by each first coordinate of the shorter.  The result spans
    (max - min over a) + (max - min over b) + 1 bits; past pairs bits it
    is refused, so that sparse sides with wide gaps still go pair by pair.
    """
    if len(a) < len(b):
        a, b = b, a
    xa, xb = [p[0] for p in a], [q[0] for q in b]
    low_a, low_b = min(xa), min(xb)
    span = max(xa) - low_a + max(xb) - low_b + 1
    if span > pairs:
        return None
    mask = 0
    for x in xa:
        mask |= 1 << (x - low_a)
    sums = 0
    for x in xb:
        sums |= mask << (x - low_b)
    bits = bin(sums)[2:].encode().translate(_BIT_BYTES)  # most significant first, one byte 0 or 1 each
    top = low_a + low_b + len(bits) - 1
    return itertools.compress(range(top, top - len(bits), -1), bits)


def _int64_rows(exps: list[tuple[int, ...]], dim: int):
    """The exponent tuples as the rows of an int64 array; every entry must fit."""
    import numpy as np

    flat = np.fromiter(itertools.chain.from_iterable(exps), dtype=np.int64, count=len(exps) * dim)
    return flat.reshape(len(exps), dim)


def _antichain(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The divisibility-minimal exponent tuples among exps, each once, sorted canonically.

    In two variables, sorted by (x, y), a pair is divisible by an earlier
    one iff its y is not strictly below the running minimum of the earlier
    ys.  Otherwise one stable sort by degree and one scan: a monomial can
    only be divided by a distinct monomial of strictly smaller degree, so
    each candidate is tested against the kept generators of smaller degree.
    """
    exps = list(set(exps))
    if not exps:
        return exps
    if len(exps[0]) == 2:
        kept = []
        for e in sorted(exps):
            if not kept or e[1] < kept[-1][1]:
                kept.append(e)
    else:
        le = operator.le
        exps.sort(key=sum)  # stable, so each degree keeps the set order
        kept, smaller, degree = [], (), -1
        for e in exps:
            d = sum(e)
            if d != degree:
                smaller, degree = tuple(kept), d
            for k in smaller:  # a loop, not any() over a generator: 29 % less time on sets of about 4
                if all(map(le, k, e)):
                    break
            else:
                kept.append(e)
    return _canonical(kept)


def _lcms(a: Sequence[tuple[int, ...]], b: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal generators of (a) intersected with (b): the antichain of the pairwise lcms.

    Refuses past _PRODUCT_PAIR_CAP pairs before forming any."""
    check_budget("intersection generator pairs", len(a) * len(b), _PRODUCT_PAIR_CAP)
    return _antichain({tuple(map(max, g, h)) for g in a for h in b})


def _one_degree(a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]) -> bool:
    """Whether two nonempty canonical generator tuples all have one and the same degree:
    canonical order puts each one's least degree first and its largest last."""
    return bool(a and b) and sum(a[0]) == sum(a[-1]) == sum(b[0]) == sum(b[-1])


def _canonical(exps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """exps in canonical order, in place: degree first, then lexicographically
    descending, so x^2 prints before x*y before y^2."""
    exps.sort(reverse=True)
    exps.sort(key=sum)
    return exps


def _drop_table(gens: list[tuple[int, ...]], drop: int, shape: list[int], fill: int, rows=None):
    """t(u) on the cells u < shape of the axes other than drop: the least drop-axis
    exponent of a generator whose other exponents are <= u, capped at fill.  Each
    generator inside sets its cell; a cumulative min along each axis spreads it upward.
    Every exponent of gens must fit int64.  From _SCATTER_NUMPY_GENS generators on,
    np.minimum.at scatters them at their flat cell indices, read from rows, the
    generators' _int64_rows, when the caller already has them.

    The table has the narrowest signed dtype that holds -fill - 1 .. fill (int8
    up to fill 127), so a caller's arithmetic on values in [-fill, fill] cannot
    wrap.  An axis whose slabs hold _SLAB_CELLS cells or more, in contiguous runs
    of _SLAB_RUN or more, is swept slab by slab: one vectorized np.minimum of
    each slab with the one below.  Every other axis takes np.minimum.accumulate."""
    import numpy as np

    cells = math.prod(shape)
    t = np.full(shape, fill, dtype=np.min_scalar_type(-fill - 1))
    if len(gens) >= _SCATTER_NUMPY_GENS:
        # a generator's flat cell index skips its drop-axis exponent: stride 0 there
        strides = [math.prod(shape[k + 1 :]) for k in range(len(shape))]
        strides.insert(drop, 0)
        g = _int64_rows(gens, len(strides)) if rows is None else rows
        inside = g[(g < shape[:drop] + [fill] + shape[drop:]).all(axis=1)]
        np.minimum.at(t.reshape(-1), inside @ np.array(strides, dtype=np.int64), inside[:, drop].astype(t.dtype))
    else:
        lowest: dict[tuple[int, ...], int] = {}
        for e in gens:
            h = e[drop]
            if h < fill:
                u = e[:drop] + e[drop + 1 :]
                if all(map(operator.lt, u, shape)) and h < lowest.get(u, fill):
                    lowest[u] = h
        if lowest:
            t[tuple(zip(*lowest))] = list(lowest.values()) if shape else lowest[()]
    for axis, side in enumerate(shape):
        if cells // side >= _SLAB_CELLS and math.prod(shape[axis + 1 :]) >= _SLAB_RUN:
            v = np.moveaxis(t, axis, 0)
            for i in range(1, side):  # slices, not v[i]: in one dimension that is a scalar
                np.minimum(v[i - 1 : i], v[i : i + 1], out=v[i : i + 1])
        else:
            np.minimum.accumulate(t, axis=axis, out=t)
    return t


def _table_colon(left: list[tuple[int, ...]], right: list[tuple[int, ...]]) -> list[tuple[int, ...]] | None:
    """Generators of (left) : (right) from a drop table on [0, M], M the max of left; None over budget.

    u*g is in (left) iff u_drop >= t(min(u' + g', M')) - g_drop, so the colon's t is the max of
    those over g, clipped at 0; values > M_drop mean no generator below.  The generators
    are the finite cells strictly below every lower neighbour."""
    top = [max(side) for side in zip(*left)]
    if math.prod(side + 1 for side in top) > _COLENGTH_CELL_CAP:
        return None
    import numpy as np

    drop = top.index(max(top))
    bound, sides = top[drop] + 1, top[:drop] + top[drop + 1 :]
    t = _drop_table(left, drop, [s + 1 for s in sides], 2 * bound)
    out = np.zeros_like(t)
    near = functools.cache(lambda s, e: np.minimum(np.arange(s + 1) + min(e, s), s))  # cells min(u + e, s)
    for g in right:
        shifted = t
        for axis, (s, e) in enumerate(zip(sides, g[:drop] + g[drop + 1 :])):
            shifted = shifted.take(near(s, e), axis=axis)
        np.maximum(out, shifted - min(g[drop], bound), out=out)
    keep = out < bound
    for axis in range(len(sides)):
        head = (slice(None),) * axis
        keep[head + (slice(1, None),)] &= out[head + (slice(1, None),)] < out[head + (slice(None, -1),)]
    return [(*u[:drop], h, *u[drop:]) for u, h in zip(np.argwhere(keep).tolist(), out[keep].tolist())]


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating antichain.

    Value semantics: instances are immutable, compare by (dim, generators)
    and hash.  The empty antichain is the zero ideal; the antichain {1} is
    the unit ideal.  The stored form is _exps, the generators' exponent
    tuples in canonical order; .gens builds their Monomials on its first
    read and keeps them, and nothing else is cached: membership scans
    _exps.  The constructor checks its input; every result
    the engine computes is built by _of from exponent tuples instead, or,
    when they are already its minimal generators in canonical order, by
    _fill alone.
    """

    __slots__ = ("dim", "_exps", "_gens")

    def __init__(self, dim: int, gens: Iterable[Monomial] = ()):
        check_int("dim", dim, 1)
        exps = []
        for g in gens:
            e = g.exponents
            if len(e) != dim:
                check_equal("dimension", len(e), dim)
            exps.append(e)
        self._fill(dim, _antichain(exps))

    @classmethod
    def _of(cls, dim: int, exps: Iterable[tuple[int, ...]], minimal: bool = False) -> "MonomialIdeal":
        """The ideal generated by exponent tuples the engine computed: no check runs.

        Each tuple must have dim non-negative int entries.  With minimal set,
        exps are already the minimal generators, each once, in canonical
        order, and are stored as they come.
        """
        ideal = object.__new__(cls)
        ideal._fill(dim, exps if minimal else _antichain(exps))
        return ideal

    def _fill(self, dim: int, exps: Iterable[tuple[int, ...]]) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_exps", tuple(exps))
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MonomialIdeal is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators in canonical order; built on the first read."""
        if self._gens is None:
            object.__setattr__(self, "_gens", tuple(map(Monomial, self._exps)))
        return self._gens

    @property
    def is_zero(self) -> bool:
        return not self._exps

    @property
    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    def num_gens(self) -> int:
        return len(self._exps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self._exps == other._exps

    def __hash__(self) -> int:
        return hash((self.dim, self._exps))

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.gens) if self._exps else "0"
        return f"MonomialIdeal({self.dim}; {inside})"

    # -- membership --------------------------------------------------------

    def _has(self, e: tuple[int, ...]) -> bool:
        """Membership of the monomial with exponent tuple e (of this ideal's dim): one scan of the generators."""
        le = operator.le
        return any(all(map(le, g, e)) for g in self._exps)

    def contains(self, other: "MonomialIdeal") -> bool:
        """Ideal containment other subset-of self.

        If both are generated in one and the same degree, a generator of
        other lies in self iff it is a generator of self.
        """
        check_equal("dimension", other.dim, self.dim)
        if _one_degree(self._exps, other._exps):
            return set(other._exps) <= set(self._exps)
        return all(map(self._has, other._exps))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The sum ideal.  If both are generated in one and the same degree,
        every distinct generator of either is minimal, so no antichain runs."""
        check_equal("dimension", other.dim, self.dim)
        a, b = self._exps, other._exps
        if _one_degree(a, b):
            return MonomialIdeal._of(self.dim, sorted(set(a).union(b), reverse=True), minimal=True)
        return MonomialIdeal._of(self.dim, a + b)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The product ideal; refuses before forming any pair past _PRODUCT_PAIR_CAP pairs.

        If both factors are generated in one degree, every distinct sum has
        that degree and is a minimal generator, so no antichain runs, and
        only then are the sums packed (_distinct_sums).  Otherwise the
        distinct tuple sums go to the antichain.
        """
        check_equal("dimension", other.dim, self.dim)
        a, b = self._exps, other._exps
        check_budget("product generator pairs", len(a) * len(b), _PRODUCT_PAIR_CAP)
        if not a or not b:
            return MonomialIdeal._of(self.dim, ())
        # in canonical order the first generator has the least degree and the last the largest
        top = sum(a[-1]) + sum(b[-1])
        if sum(a[0]) + sum(b[0]) == top:
            return MonomialIdeal._of(self.dim, _distinct_sums(a, b, top), minimal=True)
        add = operator.add
        return MonomialIdeal._of(self.dim, {tuple(map(add, p, q)) for p in a for q in b})

    def __pow__(self, n: int) -> "MonomialIdeal":
        check_int("power n", n, 0)
        if n == 0:
            return MonomialIdeal._of(self.dim, ((0,) * self.dim,), minimal=True)
        return functools.reduce(operator.mul, itertools.repeat(self, n - 1), self)

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The intersection ideal; refuses before forming any pair past _PRODUCT_PAIR_CAP pairs."""
        check_equal("dimension", other.dim, self.dim)
        return MonomialIdeal._of(self.dim, _lcms(self._exps, other._exps), minimal=True)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The colon ideal self : other = {u : u*other inside self}.

        From _COLON_TABLE_PAIRS generator pairs on, and while the box fits the
        cell budget, read off a drop table.  Otherwise intersect over the
        generators m of other the colons self : (m), each generated by the
        differences g - m clipped at 0 over the generators g of self.  The
        chain runs on minimal exponent tuples and builds one ideal at the
        end, from the last antichain as it is; each intersection refuses
        past its pair budget.
        """
        check_equal("dimension", other.dim, self.dim)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is the whole ring; not represented")
        if self.is_zero:
            return self
        left, right = self._exps, other._exps
        if len(left) * len(right) >= _COLON_TABLE_PAIRS:
            table = _table_colon(left, right)
            if table is not None:
                return MonomialIdeal._of(self.dim, _canonical(table), minimal=True)
        acc = None
        for m in right:
            raw = _antichain({tuple(a - b if a > b else 0 for a, b in zip(e, m)) for e in left})
            acc = raw if acc is None else _lcms(acc, raw)
        return MonomialIdeal._of(self.dim, acc, minimal=True)  # _antichain's list is already canonical

    # -- numerics ----------------------------------------------------------

    def colength(self) -> int:
        """Length of the quotient by self, finite iff self is m-primary.

        An ideal here is m-primary iff some pure power of every variable is
        a generator; those pure powers bound the box of candidate standard
        monomials.  Above a cell u of all sides but the longest lie t(u)
        standard monomials (_drop_table); the colength is the sum of t.  From
        _SCATTER_NUMPY_GENS generators on, the pure powers are read off the
        generators' int64 rows, which the table's scatter then reuses.
        """
        if self.is_unit:
            return 0
        rows = None
        if len(self._exps) >= _SCATTER_NUMPY_GENS:
            try:
                rows = _int64_rows(self._exps, self.dim)
            except OverflowError:  # not m-primary, or a pure power past int64 and so past the budget
                pass
        box = self._pure_powers(rows)
        check_budget("colength box cells", math.prod(box), _COLENGTH_CELL_CAP)
        if self.dim == 1:
            return box[0]
        top = max(box)
        drop = box.index(top)
        t = _drop_table(self._exps, drop, box[:drop] + box[drop + 1 :], top, rows)
        return int(t.sum())

    def multiplicity(self) -> int:
        """Hilbert-Samuel multiplicity e(self) of an m-primary ideal; 0 for the unit ideal.

        e(I) = d! covol(P) for P = conv(generators) + R^d_{>=0}, the Newton
        polyhedron (Teissier 2004; Herzog-Hibi, GTM 260): the sum of
        |det(v_1 .. v_d)| over a triangulation of P's compact facets on
        their vertices, in exact integers and without any power of self
        (reesag._newton).  In dim 2 the compact facets are the edges of the
        lower hull of the staircase, one walk over the sorted generators.  In
        dim >= 3 it refuses before the hull when its n generators times
        McMullen's bound on its facets passes a budget of facet tests.
        """
        if self.is_unit:
            return 0
        pure = self._pure_powers()
        from ._newton import multiplicity

        return multiplicity(self._exps, pure)

    def _pure_powers(self, rows=None) -> list[int]:
        """a_k with x_k^(a_k) a generator, for every variable index k; refuses an ideal that is not m-primary.

        rows, the generators as an int64 array (_int64_rows), are read instead of
        the tuples when given: a minimal generating set holds at most one pure
        power of each variable, so a_k is the max of column k over the rows with
        one nonzero entry."""
        dim = self.dim
        if rows is not None:
            box = rows[(rows != 0).sum(axis=1) == 1].max(axis=0, initial=0).tolist()
        else:
            box = [0] * dim
            for e in self._exps:
                if e.count(0) == dim - 1:
                    side = max(e)
                    box[e.index(side)] = side
        if 0 in box:
            raise ValueError(f"not m-primary: no pure power of variable index {box.index(0)} among the generators")
        return box


def maximal_power(dim: int, degree: int) -> MonomialIdeal:
    """The power m^degree of the maximal ideal: all monomials of that degree.

    Refuses past _DEGREE_GEN_CAP generators, C(degree+dim-1, dim-1), or past
    5 * _DEGREE_GEN_CAP exponents, dim per generator, before building any."""
    # stars and bars lists them lexicographically ascending, canonical order reversed
    return MonomialIdeal._of(dim, _of_degree(dim, degree)[::-1], minimal=True)


def _of_degree(dim: int, degree: int) -> list[tuple[int, ...]]:
    check_int("dim", dim, 1)
    check_int("degree", degree, 0)
    count = math.comb(degree + dim - 1, dim - 1)
    check_budget(f"monomials of degree {degree} in dim {dim}", count, _DEGREE_GEN_CAP)
    # each generator holds dim exponents; the generator cap was set for dim 5
    check_budget(f"exponents of the monomials of degree {degree} in dim {dim}", count * dim, 5 * _DEGREE_GEN_CAP)
    if dim == 2:  # stars and bars' order: x ascending
        return [(x, degree - x) for x in range(degree + 1)]
    out = []
    for cuts in itertools.combinations(range(degree + dim - 1), dim - 1):
        bounds = (-1,) + cuts + (degree + dim - 1,)
        out.append(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))
    return out


def brute_colon(ideal: MonomialIdeal, other: MonomialIdeal, degree_bound: int) -> MonomialIdeal:
    """Colon by exhaustive search: all u of degree <= degree_bound with u*other in ideal.

    Pure truncation semantics: the result is exactly the colon when every
    minimal colon generator has degree <= degree_bound.  The componentwise
    max of ideal's generators is divisible by every minimal colon generator,
    so its degree is always a sufficient bound.  Each candidate is tested by
    membership alone, one tuple sum per divisor generator: no product,
    intersection or colon of the engine is used.
    """
    check_equal("dimension", other.dim, ideal.dim)
    check_int("degree_bound", degree_bound, 0)
    if other.is_zero:
        raise ValueError("colon by the zero ideal is the whole ring; not represented")
    candidates = itertools.chain.from_iterable(_of_degree(ideal.dim, deg) for deg in range(degree_bound + 1))
    has, add = ideal._has, operator.add
    return MonomialIdeal._of(
        ideal.dim, (u for u in candidates if all(has(tuple(map(add, u, m))) for m in other._exps))
    )


def sufficient_colon_bound(ideal: MonomialIdeal) -> int:
    """A degree bound that makes brute_colon agree with colon for any divisor.

    Every minimal generator u of ideal : J satisfies, componentwise,
    u_c <= max over generators g of ideal of g_c: u is an lcm of clipped
    differences g - m, and neither step exceeds that max.  So the degree of
    the componentwise max is enough; 0 for the zero ideal.
    """
    return sum(map(max, zip(*ideal._exps)))


def random_ideal(rng: Random, dim: int, max_degree: int = 5, max_gens: int = 4) -> MonomialIdeal:
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
    lines.extend(" ".join(map(str, e)) for e in ideal._exps)
    return "\n".join(lines) + "\n"
