"""Exact tests for Gorenstein and almost Gorenstein Rees algebras of m^ell.

The package decides, for a d-dimensional regular local ring, when the Rees
algebra of m^ell is Gorenstein graded, almost Gorenstein graded, almost
Gorenstein local without being graded, or none of these, and backs every
verdict with exact integer evidence: binomial generator counts, canonical
ladder data, monomial-ideal identities, and semigroup-module identities on
the Veronese instance of minimal multiplicity.

The top level re-exports the entry points of the README's Library example;
everything else is imported from its own module (reesag.binomials,
reesag.canonical, reesag.classify, reesag.goodideals, reesag.certificates,
reesag.monomials, reesag.veronese, reesag.cli).
"""

from .binomials import ineq_sides
from .canonical import ladder
from .classify import classify
from .goodideals import good_report
from .monomials import Monomial, MonomialIdeal, maximal_power

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "classify",
    "good_report",
    "ineq_sides",
    "ladder",
    "maximal_power",
    "__version__",
]
