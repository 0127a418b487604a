"""Stability and goodness checks on the desk-scale monomial instances."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import good_pair
from reesag import Monomial, MonomialIdeal, good_report, maximal_power, monomials
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
    assert report.witness.degree == ell - 1 and not I._has(report.witness.exponents)


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
    offending = [g for g in square.gens if not qi._has(g.exponents)]
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


# -- differential test against the brute-force oracle --------------------------

_HI = {1: 6, 2: 5, 3: 3, 4: 2}
_BIG_K = {2: (10, 14), 3: (3, 4), 4: (2, 3)}


@st.composite
def good_pairs(draw):
    """(dim, I, Q, big): m-primary I in dims 1-4 and m-primary Q inside I.

    A small pair is pure powers plus random generators for I, and multiples
    of I's generators for Q.  Otherwise I = m^k and Q holds the pure k-th
    powers, for a small k alone (m^2 in three variables is good), or for a
    big pair with five or more of I's other generators: at least
    _COLON_TABLE_PAIRS generator pairs, so the colon Q : I reads the table.
    """
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["small", "small", "power", "big"] if dim > 1 else ["small", "power"]))
    if kind != "small":
        k = draw(st.integers(*_BIG_K[dim]) if kind == "big" else st.integers(1, 3))
        i_gens = monomials._of_degree(dim, k)
        q_gens = [g for g in i_gens if max(g) == k]
        if kind == "big":
            others = [g for g in i_gens if max(g) < k]
            q_gens += draw(st.lists(st.sampled_from(others), min_size=5, max_size=8, unique=True))
    else:
        hi = _HI[dim]
        i_gens = [tuple(draw(st.integers(1, hi)) if j == k else 0 for j in range(dim)) for k in range(dim)]
        i_gens += draw(st.lists(st.tuples(*[st.integers(0, hi)] * dim), max_size=5))
        q_gens = [tuple(e + draw(st.integers(0, 2)) if e else 0 for e in g) for g in i_gens[:dim]]
        step = st.tuples(*[st.integers(0, 1)] * dim)
        q_gens += [tuple(map(sum, zip(g, draw(step)))) for g in draw(st.lists(st.sampled_from(i_gens), max_size=3))]
    return dim, i_gens, q_gens, kind == "big"


@settings(max_examples=80)
@given(case=good_pairs())
# x^2 lies in both Q : I and I, and is flatter than the escapees y^2 and z^2
@example(case=(3, [(2, 0, 0), (0, 4, 0), (0, 2, 2), (0, 0, 4)], [(2, 0, 0), (0, 4, 0), (0, 0, 4)], False))
def test_good_report_matches_brute_force_oracle(case):
    dim, i_gens, q_gens, big = case
    I, Q = (MonomialIdeal(dim, map(Monomial, gens)) for gens in (i_gens, q_gens))
    if big:
        assert Q.num_gens() * I.num_gens() >= monomials._COLON_TABLE_PAIRS
    report = good_report(I, Q)
    want = good_pair(i_gens, q_gens)
    assert (report.stable, report.colon_closed) == (want["stable"], want["colon_closed"])
    assert report.good == (want["stable"] and want["colon_closed"])
    assert [g.exponents for g in report.colon_result.gens] == want["colon"]
    assert (report.witness.exponents if report.witness else None) == want["witness"]
