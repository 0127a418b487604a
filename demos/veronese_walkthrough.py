"""Replay the almost-Gorenstein identities over a Veronese subring.

The ambient is the degree-r Veronese of a 2-variable power-series ring, a
ring of minimal multiplicity whose maximal ideal m is good.  With
x = s t^(r-1), y = s^r, z = t^r, h = x z^ell, the checks are

    m^2        = y m + z m          (minimal multiplicity)
    m K        = y K + x m          (precondition, proof form)
    m^(l+1) K  = y m^l K + m h      (identity one)
    m^(2l) K   = y^l m^l K + m^l h  (identity two)

A display variant of the precondition, m K = y(mK) + x m, happens to hold
at r = 2 but at no larger r; the checker reports it separately.
"""

from reesag.veronese import veronese_instance, veronese_report, verify_minimal_multiplicity


def main():
    for r in (2, 3):
        inst = veronese_instance(r)
        print(f"r = {r}: x = {inst.x}, y = {inst.y}, z = {inst.z}")
        print(f"  maximal ideal generators: {inst.maximal_ideal().sorted_gens()}")
        print(f"  canonical module generators: {inst.canonical().sorted_gens()}")
        print(f"  minimal multiplicity: {verify_minimal_multiplicity(inst)}")
        report = veronese_report(r, 2)
        print(f"  precondition (proof form)   mK = yK + xm: {report['precondition_proof_form']}")
        print(f"  precondition (display form) mK = y(mK) + xm: {report['precondition_display_form']}")
        print(f"  identity one and two at ell = 2: {report['identity_one']}, {report['identity_two']}")
        print(f"  x outside mK: {report['x_outside_mK']}")
        print()

    print("Claim across r in [2,6], ell in [1,4]:")
    for r in range(2, 7):
        row = []
        for ell in range(1, 5):
            report = veronese_report(r, ell)
            row.append("ok" if report["claim"] else "FAIL")
        display = veronese_report(r, 1)["precondition_display_form"]
        print(f"  r = {r}: {' '.join(row)}   (display variant holds: {display})")


if __name__ == "__main__":
    main()
