"""Print the classification table and unpack the evidence behind a few cells.

Labels: Gor = Gorenstein graded, AG = almost Gorenstein graded,
AGL = almost Gorenstein local but not graded, X = none of these.
Every cell is recomputed from the ladder numbers, never looked up.
"""

from reesag import classify
from reesag.classify import render_ascii, table


def explain(d, ell):
    label, ev = classify(d, ell)
    print(f"(d, ell) = ({d}, {ell}): {label.symbol} via rule '{ev.rule}'")
    print(f"  b = {ev.b}, mu_K = {ev.mu_K}")
    if ev.gap is not None:
        print(f"  inequality gap = {ev.gap}")
    if ev.obstruction is not None:
        print(
            f"  graded obstruction: a witness cokernel would need mu(C) <= {ev.obstruction.mu_bound}"
            f" yet e(C) >= {ev.obstruction.e_bound}"
        )


def main():
    print(render_ascii(table(10, 9)))

    print("Four cells in detail")
    print("--------------------")
    explain(4, 3)   # the diagonal ell = d-1
    explain(2, 6)   # dimension two
    explain(9, 4)   # proper divisor of d-1
    explain(6, 4)   # no divisibility, positive gap
    print()

    print("Label vs inequality gap on d in [3,20], ell in [2,20]")
    zero_gap_labels = ("Gor", "AGL")
    count = sum(
        (label.symbol in zero_gap_labels) == (ev.gap == 0)
        for label, ev in table(20, 20).values()
        if ev.gap is not None
    )
    print(f"  {count} / {18 * 19} cells have gap = 0 exactly when labelled Gor or AGL")


if __name__ == "__main__":
    main()
