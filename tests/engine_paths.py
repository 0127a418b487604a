"""Run the monomial engine's products and drop tables on one side of their size thresholds.

The product paths differ only for products of one-degree ideals: a
mixed-degree product adds exponent tuples on every path."""

import contextlib

from reesag import monomials

# the three one-degree product paths: tuple sums, packed sums in Python, packed sums in numpy
PATHS = ("tuple", "python", "numpy")

_INF = float("inf")
# per path, the thresholds it sets: pack, numpy sums, numpy scatter, slab cells, slab run
_SETTINGS = {
    "tuple": (_INF, _INF, _INF, _INF, _INF),
    "python": (0, _INF, _INF, _INF, _INF),
    "numpy": (0, 1, 1, 0, 0),
}
_NAMES = ("_SUM_PACK_PAIRS", "_SUM_NUMPY_PAIRS", "_SCATTER_NUMPY_GENS", "_SLAB_CELLS", "_SLAB_RUN")


@contextlib.contextmanager
def engine_path(path):
    """Products and drop tables on one side of their thresholds: "tuple" sums
    exponent tuples at any size, "python" packs from one pair on and never takes
    numpy, "numpy" packs and takes it from one pair or generator on, once numpy
    is loaded.  Every drop table holds the narrow dtype; "tuple" and "python"
    spread it with np.minimum.accumulate, "numpy" sweeps every axis slab by slab."""
    saved = [getattr(monomials, name) for name in _NAMES]
    for name, value in zip(_NAMES, _SETTINGS[path]):
        setattr(monomials, name, value)
    try:
        yield
    finally:
        for name, value in zip(_NAMES, saved):
            setattr(monomials, name, value)
