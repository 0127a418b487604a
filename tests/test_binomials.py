"""Binomial layer against the Pascal-recurrence and enumeration oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import binom_pascal, count_exponent_vectors, pascal_table, telescoped_gap
from reesag import ineq_sides
from reesag.binomials import _cell, _mu_rows, b_of, binom, ineq_gap_telescoped


def _row(d, k_max):
    """The row of d alone from _mu_rows."""
    ((_, row),) = _mu_rows(d, d, k_max)
    return row


def test_binom_frozen_values():
    assert binom(52, 5) == 2598960
    assert binom(0, 0) == 1
    assert binom(10, 0) == 1
    assert binom(7, 7) == 1


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 1) == 0


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_matches_pascal_recurrence_to_200():
    table = pascal_table(200)
    for n in range(201):
        for m in range(n + 1):
            assert binom(n, m) == table[n][m], (n, m)


def test_pascal_identity_and_symmetry():
    for n in range(2, 201, 7):
        for m in range(2, n + 1):
            assert binom(n, m) == binom(n - 1, m) + binom(n - 1, m - 1)
        for m in range(n + 1):
            assert binom(n, m) == binom(n, n - m)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("k", range(0, 9))
def test_mu_power_counts_exponent_vectors(d, k):
    # mu(m^k) = C(k+d-1, d-1), as binom and as the entry k of the row kernel
    assert binom(k + d - 1, d - 1) == _row(d, k)[k] == count_exponent_vectors(d, k)


def test_mu_power_frozen():
    assert _row(3, 2)[2] == 6
    assert _row(2, 3)[3] == 4
    assert _row(4, 1)[1] == 4
    assert _row(5, 0)[0] == 1


def test_b_of_values():
    assert b_of(5, 2) == 1
    assert b_of(3, 2) == 0
    for d in range(2, 40):
        assert b_of(d, 1) == d - 2


def test_b_of_domain():
    with pytest.raises(ValueError):
        b_of(1, 2)
    with pytest.raises(ValueError):
        b_of(4, 0)


def test_ineq_sides_frozen_cells():
    s = ineq_sides(4, 2)
    assert (s.b, s.i) == (1, 0)
    assert (s.lhs, s.rhs, s.gap) == (30, 26, 4)
    assert ineq_sides(5, 2).gap == 0
    assert ineq_sides(3, 2).gap == 0


def test_ineq_sides_binomial_form():
    # lhs and rhs are sums of table binomials; recheck one cell by the oracle
    table = pascal_table(40)
    s = ineq_sides(6, 4)
    b = s.b
    lhs = binom_pascal((b + 1) * 4 + 1, 5, table) + binom_pascal((b + 2) * 4, 5, table)
    rhs = binom_pascal(4 + 5, 5, table) + 6 * binom_pascal((b + 1) * 4, 5, table)
    assert (s.lhs, s.rhs) == (lhs, rhs)


def test_ineq_hypothesis_rejected():
    with pytest.raises(ValueError):
        ineq_sides(2, 2)
    with pytest.raises(ValueError):
        ineq_sides(3, 1)
    with pytest.raises(ValueError):
        ineq_gap_telescoped(3, 1)


def test_gap_zero_iff_divisor_on_sweep():
    for d in range(3, 101):
        for ell in range(2, 31):
            gap = ineq_sides(d, ell).gap
            assert gap >= 0, (d, ell)
            assert (gap == 0) == ((d - 1) % ell == 0), (d, ell)


def test_telescoped_equals_direct_on_sweep():
    assert ineq_gap_telescoped(4, 2) == 4
    assert ineq_gap_telescoped(5, 2) == 0
    assert ineq_gap_telescoped(7, 4) == ineq_sides(7, 4).gap
    for d in range(3, 101):
        for ell in range(2, 31):
            assert ineq_gap_telescoped(d, ell) == ineq_sides(d, ell).gap, (d, ell)


@settings(max_examples=300)
@given(d=st.integers(3, 1500), ell=st.integers(2, 400))
def test_telescoped_recurrence_matches_oracle_and_direct(d, ell):
    assert ineq_gap_telescoped(d, ell) == telescoped_gap(d, ell) == ineq_sides(d, ell).gap


@pytest.mark.parametrize(
    "d, ell",
    [
        (5, 2), (7, 3), (201, 100), (1201, 400),  # ell | d-1: the sum is empty
        (4, 7), (10, 400), (3, 400),  # ell > d
        (3, 2), (3, 3), (3, 5),  # d = 3: k = d-2 = 1
        (4, 2), (1500, 399), (1499, 400),  # a single term, and long walks
    ],
)
def test_telescoped_edge_cases(d, ell):
    gap = ineq_gap_telescoped(d, ell)
    assert gap == telescoped_gap(d, ell) == ineq_sides(d, ell).gap
    assert (gap == 0) == ((d - 1) % ell == 0)


@settings(max_examples=40)
@given(d=st.integers(1, 5), k_max=st.integers(0, 6))
def test_mu_row_counts_exponent_vectors(d, k_max):
    assert _row(d, k_max) == [count_exponent_vectors(d, k) for k in range(k_max + 1)]


@settings(max_examples=100)
@given(d_min=st.integers(1, 300), span=st.integers(0, 3), k_max=st.integers(0, 200))
def test_mu_row_matches_binom(d_min, span, k_max):
    # every row the prefix sums yield, up to d = 300, not only the first
    d_max = min(d_min + span, 300)
    rows = list(_mu_rows(d_min, d_max, k_max))
    assert [d for d, _ in rows] == list(range(d_min, d_max + 1))
    for d, row in rows:
        assert row == [binom(k + d - 1, d - 1) for k in range(k_max + 1)], d


@settings(max_examples=200)
@given(d=st.integers(2, 300), ell=st.integers(1, 150))
@example(d=7, ell=3)  # e = 0 off the diagonal: keys e + ell and ell coincide
@example(d=8, ell=3)  # i = 0: keys e + 1 and ell coincide
@example(d=5, ell=1)  # ell = 1: e = 0 and e + 1 = ell = e + ell
@example(d=6, ell=5)  # the Gorenstein diagonal: e = 0
@example(d=2, ell=1)
@example(d=2, ell=4)
def test_cell_reads_the_same_numbers_off_a_row(d, ell):
    # 2*ell - 1 is the shortest row a table with ell_max = ell builds; an index past it would raise.
    # Without a row, _cell reads the same four counts off a dict it fills from binom
    assert _cell(d, ell, _row(d, 2 * ell - 1)) == _cell(d, ell)
