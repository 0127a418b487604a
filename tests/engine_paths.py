"""Run the monomial engine's products and drop tables on one side of their size thresholds."""

import contextlib

from reesag import monomials

# the three product paths: tuple sums, packed sums in Python, packed sums in numpy
PATHS = ("tuple", "python", "numpy")


@contextlib.contextmanager
def engine_path(path):
    """Products and drop tables on one side of their thresholds: "tuple" sums
    exponent tuples at any size, "python" packs from one pair on and never takes
    numpy, "numpy" packs and takes it from one pair or generator on."""
    saved = monomials._SUM_PACK_PAIRS, monomials._SUM_NUMPY_PAIRS, monomials._SCATTER_NUMPY_GENS
    inf = float("inf")
    pack, least = {"tuple": (inf, inf), "python": (0, inf), "numpy": (0, 1)}[path]
    monomials._SUM_PACK_PAIRS = pack
    monomials._SUM_NUMPY_PAIRS = monomials._SCATTER_NUMPY_GENS = least
    try:
        yield
    finally:
        monomials._SUM_PACK_PAIRS, monomials._SUM_NUMPY_PAIRS, monomials._SCATTER_NUMPY_GENS = saved
