"""Stability and goodness checks on the desk-scale monomial instances."""

import pytest

from reesag import Monomial, MonomialIdeal, good_report, maximal_power
from reesag.goodideals import is_stable
from reesag.monomials import brute_colon, sufficient_colon_bound


def pure_powers(dim, k):
    return MonomialIdeal(dim, (Monomial.variable(dim, j, k) for j in range(dim)))


def test_square_of_maximal_in_three_variables_is_good():
    I = maximal_power(3, 2)
    Q = pure_powers(3, 2)
    report = good_report(I, Q)
    assert report.stable and report.colon_closed and report.good
    assert report.witness is None
    assert report.colon_result == I


@pytest.mark.parametrize("ell", range(2, 11))
def test_plane_powers_are_stable_but_not_colon_closed(ell):
    I = maximal_power(2, ell)
    Q = pure_powers(2, ell)
    report = good_report(I, Q)
    assert report.stable and not report.colon_closed and not report.good
    assert report.colon_result == maximal_power(2, ell - 1)
    assert report.witness is not None
    assert report.witness.degree == ell - 1 and not I.member(report.witness)


def test_cube_of_maximal_in_four_variables_is_not_stable():
    I = maximal_power(4, 3)
    Q = pure_powers(4, 3)
    stable, witness = is_stable(I, Q)
    assert not stable
    assert witness == Monomial((2, 2, 1, 1))
    report = good_report(I, Q)
    assert not report.good and report.witness == witness


def test_witness_is_deterministic_and_flattest():
    I = maximal_power(4, 3)
    Q = pure_powers(4, 3)
    square = I * I
    qi = Q * I
    offending = [g for g in square.gens if not qi.member(g)]
    _, witness = is_stable(I, Q)
    assert witness in offending
    key = lambda m: (tuple(sorted(m.exponents, reverse=True)), tuple(-e for e in m.exponents))
    assert all(key(witness) <= key(g) for g in offending)


def test_reports_confirmed_by_brute_force_colon():
    cases = [
        (maximal_power(3, 2), pure_powers(3, 2)),
        (maximal_power(2, 4), pure_powers(2, 4)),
        (maximal_power(4, 3), pure_powers(4, 3)),
    ]
    for I, Q in cases:
        report = good_report(I, Q)
        assert report.colon_result == brute_colon(Q, I, sufficient_colon_bound(Q))
        assert report.stable == (I * I == Q * I)


def test_ideal_equal_to_reduction():
    m = maximal_power(2, 1)
    report = good_report(m, m)
    assert report.stable
    assert report.colon_result.is_unit
    assert not report.colon_closed and not report.good
    assert report.witness == Monomial((0, 0))


def test_reduction_must_be_contained():
    I = maximal_power(2, 3)
    outside = MonomialIdeal(2, (Monomial((1, 1)),))
    with pytest.raises(ValueError, match="not contained"):
        good_report(I, outside)
    with pytest.raises(ValueError, match="dimension mismatch"):
        good_report(I, maximal_power(3, 3))


def test_report_as_dict():
    d = good_report(maximal_power(2, 2), pure_powers(2, 2)).as_dict()
    assert d["stable"] is True and d["colon_closed"] is False and d["good"] is False
    assert d["colon"] == [[1, 0], [0, 1]]
    assert d["witness"] in ([1, 0], [0, 1])
    d = good_report(maximal_power(3, 2), pure_powers(3, 2)).as_dict()
    assert d["good"] is True and d["witness"] is None
