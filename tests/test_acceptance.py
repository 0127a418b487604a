"""Acceptance criteria, one test per criterion, one pass/fail line each.

Each test records exactly one line "criterion NN PASS/FAIL: detail" before
asserting; conftest echoes the recorded lines in the terminal summary, so a
plain pytest run always ends with the ten verdict lines.  Runtime budgets
are asserted where stated: table < 1 s, inequality sweep < 10 s, colon
oracle < 30 s, Veronese sweep < 10 s.
"""

import csv
import pathlib
import random
import time

from conftest import acceptance_lines
from oracles import agl_inequality

from reesag import Monomial, MonomialIdeal, good_report, ineq_sides, ladder, maximal_power
from reesag.binomials import ineq_gap_telescoped
from reesag.canonical import notgraded_obstruction, ulrich_numbers
from reesag.certificates import build_certificate_2dim, verify_claim_containment
from reesag.classify import table
from reesag.monomials import brute_colon, random_ideal, sufficient_colon_bound
from reesag.veronese import VeroneseInstance, verify_minimal_multiplicity, veronese_report

GOLDEN = pathlib.Path(__file__).parent / "data" / "table_10_9.csv"


def report(number, ok, detail):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def pure_powers(dim, k):
    return MonomialIdeal(dim, (Monomial.variable(dim, j, k) for j in range(dim)))


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    grid = table(10, 9)
    with GOLDEN.open(newline="") as fh:
        golden = {
            (int(row["d"]), int(row["ell"])): row["label"]
            for row in csv.DictReader(fh)
        }
    mismatches = [
        key for key, expected in golden.items() if grid[key][0].symbol != expected
    ]
    elapsed = time.perf_counter() - start
    ok = len(golden) == 81 and not mismatches and elapsed < 1.0
    report(1, ok, f"table 10x9 matches all 81 golden cells in {elapsed:.3f} s")


def test_criterion_02_inequality_sweep():
    start = time.perf_counter()
    bad = []
    for d in range(3, 101):
        for ell in range(2, 31):
            sides = ineq_sides(d, ell)
            divides = (d - 1) % ell == 0
            if sides.gap < 0 or (sides.gap == 0) != divides:
                bad.append((d, ell, sides.gap))
            if ineq_gap_telescoped(d, ell) != sides.gap:
                bad.append((d, ell, "telescoped"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    report(
        2,
        ok,
        f"gap >= 0, zero iff ell | d-1, telescoped agreement on d in [3,100] x "
        f"ell in [2,30] in {elapsed:.2f} s",
    )


def test_criterion_03_generator_count_formulas():
    bad = []
    for d in range(3, 6):
        for ell in range(2, 5):
            lad = ladder(d, ell)
            e = lad.tail_exponent
            direct_K = lad.b + maximal_power(d, e).num_gens()
            direct_MK = (
                lad.b * maximal_power(d, 1).num_gens()
                + maximal_power(d, e + 1).num_gens()
                + maximal_power(d, e + ell).num_gens()
            )
            if lad.mu_K != direct_K or lad.mu_MK != direct_MK:
                bad.append((d, ell))
    report(3, not bad, "mu_K and mu_MK closed forms equal direct generator counts, d <= 5, ell <= 4")


def test_criterion_04_inequality_iff_divisor():
    bad = [
        (d, ell)
        for d in range(3, 31)
        for ell in range(2, 11)
        if agl_inequality(d, ell) != ((d - 1) % ell == 0)
    ]
    report(4, not bad, "generator-count inequality holds iff ell | d-1 on [3,30] x [2,10]")


def test_criterion_05_obstruction_and_ulrich():
    bad = []
    checked = 0
    for d in range(3, 31):
        for ell in range(2, d - 1):
            if (d - 1) % ell != 0:
                continue
            obs = notgraded_obstruction(d, ell)
            ul = ulrich_numbers(d, ell)
            c = (d - 1) // ell - 1
            if not (obs.e_bound > obs.mu_bound + 1 >= obs.mu_bound):
                bad.append((d, ell, "obstruction"))
            if obs.e_bound != ell**d or not (ul.c == ul.mu_C == ul.e_C == c):
                bad.append((d, ell, "ulrich"))
            checked += 1
    ok = not bad and checked > 0
    report(5, ok, f"graded obstruction and Ulrich numbers verified on {checked} divisor cells, d <= 30")


def test_criterion_06_colon_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(40904)
    mismatches = 0
    pairs = 0
    while pairs < 200:
        dim = rng.randint(1, 3)
        ideal = random_ideal(rng, dim, max_degree=5)
        divisor = random_ideal(rng, dim, max_degree=5)
        if ideal.colon(divisor) != brute_colon(ideal, divisor, sufficient_colon_bound(ideal)):
            mismatches += 1
        pairs += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(6, ok, f"fast colon equals brute force on {pairs} seeded pairs in {elapsed:.2f} s")


def test_criterion_07_good_ideal_instances():
    bad = []

    r1 = good_report(maximal_power(3, 2), pure_powers(3, 2))
    if not (r1.good and r1.colon_result == maximal_power(3, 2)):
        bad.append("d=3 square")

    for ell in range(2, 11):
        r2 = good_report(maximal_power(2, ell), pure_powers(2, ell))
        if r2.good or r2.colon_result != maximal_power(2, ell - 1):
            bad.append(f"d=2 ell={ell}")

    r3 = good_report(maximal_power(4, 3), pure_powers(4, 3))
    if r3.stable or r3.witness is None or tuple(sorted(r3.witness.exponents, reverse=True)) != (2, 2, 1, 1):
        bad.append("d=4 cube")

    # confirm each reported colon with the brute-force oracle
    for I, Q in [
        (maximal_power(3, 2), pure_powers(3, 2)),
        (maximal_power(2, 4), pure_powers(2, 4)),
        (maximal_power(4, 3), pure_powers(4, 3)),
    ]:
        if good_report(I, Q).colon_result != brute_colon(Q, I, sufficient_colon_bound(Q)):
            bad.append("oracle")

    report(7, not bad, "good=true at d=3, colon m^(ell-1) at d=2, witness (2,2,1,1) at d=4, oracle-confirmed")


def test_criterion_08_certificates():
    bad = []
    for ell in range(2, 21):
        if not build_certificate_2dim(ell).valid:
            bad.append(ell)
    for ell in range(2, 11):
        if not verify_claim_containment(build_certificate_2dim(ell), 10):
            bad.append((ell, "containment"))
    report(8, not bad, "certificates valid for ell in [2,20], containment through degree 10 for ell in [2,10]")


def test_criterion_09_veronese_checks():
    start = time.perf_counter()
    bad = []
    for r in range(2, 7):
        inst = VeroneseInstance(r)
        if not verify_minimal_multiplicity(inst):
            bad.append((r, "multiplicity"))
        for ell in range(1, 5):
            parts = veronese_report(r, ell)
            if not parts["claim"] or not parts["x_outside_mK"]:
                bad.append((r, ell))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    report(9, ok, f"Veronese claims and x outside mK for r in [2,6], ell in [1,4] in {elapsed:.2f} s")


def test_criterion_10_multiplicity_power_law():
    bad = [
        (d, ell)
        for d in range(1, 6)
        for ell in range(1, 5)
        if maximal_power(d, ell).multiplicity() != ell**d
    ]
    report(10, not bad, "multiplicity(m^ell) = ell^d from the Newton polyhedron, d <= 5, ell <= 4")
