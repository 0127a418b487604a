"""Tour of the exact monomial ideal engine behind all the checks.

Ideals live as their unique minimal generating antichain, so equality is
structural.  Everything is integer arithmetic; colength uses a numpy box
sweep, and multiplicity sums integer determinants over the compact facets of
the Newton polyhedron, with no power of the ideal formed.
"""

import random

from reesag import Monomial, MonomialIdeal, maximal_power
from reesag.monomials import (
    brute_colon,
    format_ideal,
    parse_ideal,
    random_ideal,
    sufficient_colon_bound,
)


def main():
    x2 = Monomial((2, 0))
    y2 = Monomial((0, 2))
    I = MonomialIdeal(2, (x2, y2, Monomial((3, 1))))
    print(f"minimalization drops x^3*y: I = {I}")

    m = maximal_power(2, 1)
    print(f"m   = {m}")
    print(f"m^3 = {m**3}")
    print(f"I + m^3 = {I + m**3}")
    print(f"I * m   = {I * m}")
    print(f"I : m   = {I.colon(m)}")
    print()

    print("Colon versus exhaustive search on (x^5, y^5) : (x, y):")
    big = MonomialIdeal(2, (Monomial((5, 0)), Monomial((0, 5))))
    fast = big.colon(m)
    print(f"  engine: {fast}")
    bound = sufficient_colon_bound(big)
    print(f"  brute force with degree bound {bound}: {brute_colon(big, m, bound)}")
    print(f"  note the degree-8 generator x^4*y^4; a bound of 6 would miss it:")
    print(f"  brute force with degree bound 6: {brute_colon(big, m, 6)}")
    print()

    print("Colength and multiplicity:")
    for ell in range(1, 5):
        power = maximal_power(3, ell)
        print(
            f"  m^{ell} in 3 variables: {power.num_gens()} generators, "
            f"colength {power.colength()}, multiplicity {power.multiplicity()} = {ell}^3"
        )
    print()

    print("Seeded random colon checks:")
    rng = random.Random(7)
    agreements = 0
    for _ in range(50):
        dim = rng.randint(1, 3)
        a = random_ideal(rng, dim)
        b = random_ideal(rng, dim)
        agreements += a.colon(b) == brute_colon(a, b, sufficient_colon_bound(a))
    print(f"  engine agrees with brute force on {agreements} / 50 random pairs")
    print()

    print("The ideal file format round-trips:")
    text = format_ideal(I, header="sample ideal")
    print(text, end="")
    print(f"  parsed back equal: {parse_ideal(text) == I}")


if __name__ == "__main__":
    main()
