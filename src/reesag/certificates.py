"""Constructive almost-Gorenstein certificates in dimension two.

Over a 2-dimensional regular local ring, I = m^ell with reduction
Q = (x^ell, y^ell) and J = Q : I = m^(ell-1) admits explicit elements
f = x in m, g = x^ell in I, h = y^(ell-1) in J satisfying

    m J = f J + m h        (identity A)
    I J = g J + I h        (identity B)

and these two finite identities propagate to the containment
M * JR(I) inside (f, gt) JR(I) + R(I) h degree by degree.  The engine
checks both identities exactly and can replay the degreewise containment
up to any bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantBreach, check_int
from .monomials import Monomial, MonomialIdeal, maximal_power

__all__ = [
    "Certificate2D",
    "build_certificate_2dim",
    "verify_claim_containment",
]


@dataclass(frozen=True)
class Certificate2D:
    """The explicit (f, g, h) data for I = m^ell at d = 2, with check outcomes."""

    ell: int
    f: Monomial
    g: Monomial
    h: Monomial
    J: MonomialIdeal
    identity_a: bool  # m J = f J + m h
    identity_b: bool  # I J = g J + I h

    @property
    def valid(self) -> bool:
        return self.identity_a and self.identity_b

    def as_dict(self) -> dict:
        return {
            "ell": self.ell,
            "f": str(self.f),
            "g": str(self.g),
            "h": str(self.h),
            "J": [m.as_list() for m in self.J.gens],
            "identities": {"A": self.identity_a, "B": self.identity_b},
        }


def _principal(mono: Monomial) -> MonomialIdeal:
    return MonomialIdeal(mono.dim, (mono,))


def build_certificate_2dim(ell: int) -> Certificate2D:
    """Build and check the (x, x^ell, y^(ell-1)) certificate for m^ell, d = 2.

    J is computed as the colon (x^ell, y^ell) : m^ell, not assumed to be
    m^(ell-1).  ell = 1 is rejected: m itself is a parameter ideal there and
    the stable-ideal construction does not apply.
    """
    if type(ell) is int and ell == 1:
        raise ValueError("ell = 1 makes m^ell a parameter ideal; no certificate exists")
    check_int("ell", ell, 2)
    maximal = maximal_power(2, 1)
    ideal = maximal_power(2, ell)
    pure = MonomialIdeal(2, (Monomial((ell, 0)), Monomial((0, ell))))
    J = pure.colon(ideal)
    f = Monomial((1, 0))
    g = Monomial((ell, 0))
    h = Monomial((0, ell - 1))
    identity_a = maximal * J == _principal(f) * J + maximal * _principal(h)
    identity_b = ideal * J == _principal(g) * J + ideal * _principal(h)
    return Certificate2D(ell=ell, f=f, g=g, h=h, J=J, identity_a=identity_a, identity_b=identity_b)


def verify_claim_containment(cert: Certificate2D, n_max: int) -> bool:
    """Degreewise containment M*JR inside (f, gt)JR + Rh, degrees 0 .. n_max.

    degree 0:      m J   inside f J + m h
    degree 1:      I J   inside g J + I h
    degree n >= 2: I^n J inside (g J) I^(n-1) + I^n h

    The two certificate identities force every higher degree, so a failure
    at n >= 2 with degrees 0 and 1 passing is an engine bug and raises.
    """
    check_int("n_max", n_max, 0)
    maximal = maximal_power(2, 1)
    ideal = maximal_power(2, cert.ell)
    J, f, g, h = cert.J, cert.f, cert.g, cert.h
    if not (_principal(f) * J + maximal * _principal(h)).contains(maximal * J):
        return False
    gJ = _principal(g) * J
    if n_max >= 1 and not (gJ + ideal * _principal(h)).contains(ideal * J):
        return False
    ideal_power = ideal  # I^n, starting at n = 1
    for n in range(2, n_max + 1):
        prev_power = ideal_power
        ideal_power = ideal_power * ideal
        lhs = ideal_power * J
        rhs = gJ * prev_power + ideal_power * _principal(h)
        if not rhs.contains(lhs):
            raise InvariantBreach(
                f"degree-{n} containment failed although degrees 0 and 1 hold (ell={cert.ell})"
            )
    return True

