"""Walk through the binomial inequality that decides almost Gorensteinness.

For each (d, ell) the two sides are

    lhs = C((b+1)ell + 1, d-1) + C((b+2)ell, d-1)
    rhs = C(ell + d - 1, d-1) + d * C((b+1)ell, d-1)

with b = floor((d-2)/ell).  The gap lhs - rhs is never negative and
vanishes exactly when ell divides d - 1.  The same gap also telescopes
into a sum of differences of binomials, which this script recomputes.
"""

from reesag import ineq_sides
from reesag.binomials import b_of, ineq_gap_telescoped


def show_cell(d, ell):
    sides = ineq_sides(d, ell)
    divides = "divides" if (d - 1) % ell == 0 else "does not divide"
    print(f"d = {d}, ell = {ell}  (b = {sides.b}, i = {sides.i}; ell {divides} d-1)")
    print(f"  lhs = {sides.lhs}")
    print(f"  rhs = {sides.rhs}")
    print(f"  gap = {sides.gap}, telescoped sum = {ineq_gap_telescoped(d, ell)}")


def main():
    print("Inequality at three sample cells")
    print("--------------------------------")
    for d, ell in [(3, 2), (4, 2), (9, 4)]:
        show_cell(d, ell)
        print()

    print("Gap profile for d = 7 (zero exactly at the divisors 2, 3, 6 of 6)")
    print("-----------------------------------------------------------------")
    for ell in range(2, 9):
        gap = ineq_sides(7, ell).gap
        marker = "  <- zero" if gap == 0 else ""
        print(f"  ell = {ell}: gap = {gap}{marker}")
    print()

    print("Sweep d in [3,60], ell in [2,20]")
    print("--------------------------------")
    worst = (0, None)
    for d in range(3, 61):
        for ell in range(2, 21):
            sides = ineq_sides(d, ell)
            assert sides.gap >= 0
            assert (sides.gap == 0) == ((d - 1) % ell == 0)
            assert ineq_gap_telescoped(d, ell) == sides.gap
            if sides.gap > worst[0]:
                worst = (sides.gap, (d, ell))
    print(f"  all {58 * 19} cells verified; largest gap {worst[0]} at (d, ell) = {worst[1]}")
    print(f"  b at that cell: {b_of(*worst[1])}")


if __name__ == "__main__":
    main()
