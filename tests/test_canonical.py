"""Canonical ladder numbers: generator counts, components, obstruction."""

import pytest

from oracles import agl_inequality, count_exponent_vectors, rees_cone_counts
from reesag import Monomial, MonomialIdeal, ineq_sides, ladder, maximal_power
from reesag.binomials import b_of
from reesag.canonical import Obstruction, ladder_report, notgraded_obstruction


def component(lad, ell: int, n: int) -> MonomialIdeal:
    """The ladder's degree-n component from its own b and tail exponent e:
    the unit ideal in degrees 1 .. b, then m^(e + (n-b-1)*ell)."""
    k = 0 if n <= lad.b else lad.tail_exponent + (n - lad.b - 1) * ell
    return maximal_power(lad.d, k)


def ladder_cross_check(d: int, ell: int, n_max: int) -> bool:
    """Check the ladder against the colon construction, dimension 2 only.

    At d = 2 the degree-n component m^(n*ell-1) must equal
    (m^ell)^(n-1) * J with J = (x^ell, y^ell) : m^ell, for 1 <= n <= n_max.
    """
    if d != 2:
        raise ValueError(f"ladder_cross_check is a d=2 check, got d={d}")
    if ell < 2:
        raise ValueError(f"ladder_cross_check needs ell >= 2, got ell={ell}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    power_ell = maximal_power(2, ell)
    pure = MonomialIdeal(2, (Monomial((ell, 0)), Monomial((0, ell))))
    current = pure.colon(power_ell)
    lad = ladder(2, ell)
    for n in range(1, n_max + 1):
        if component(lad, ell, n) != current:
            return False
        current = current * power_ell
    return True


def test_ladder_fields():
    lad = ladder(5, 2)
    assert (lad.d, lad.sides.ell, lad.b, lad.tail_exponent) == (5, 2, 1, 0)
    assert lad.a_invariant == -1
    assert lad.unit_tail
    lad = ladder(4, 2)
    assert (lad.b, lad.tail_exponent) == (1, 1)
    assert not lad.unit_tail
    # the ladder keeps only its sides; every number is read off them
    for d, ell in ((5, 2), (4, 2), (2, 3), (9, 4), (40, 7)):
        lad = ladder(d, ell)
        s = lad.sides
        assert (lad.d, lad.b, lad.tail_exponent) == (s.d, s.b, s.tail_exponent)
        assert (s.d, s.ell) == (d, ell)
        assert lad == (s, -1)
        with pytest.raises(AttributeError):
            lad.sides = s
        with pytest.raises(AttributeError):
            lad.b = 0


def test_ladder_component_exponents():
    lad = ladder(6, 2)  # b = 2, tail exponent 1
    assert (lad.b, lad.tail_exponent) == (2, 1)
    assert [component(lad, 2, n) for n in range(1, 6)] == [maximal_power(6, k) for k in (0, 0, 1, 3, 5)]


def test_ladder_components_are_power_ideals():
    lad = ladder(4, 3)
    assert component(lad, 3, 1) == maximal_power(4, 0)
    assert component(lad, 3, 2) == maximal_power(4, 3)


@pytest.mark.parametrize("ell", range(1, 8))
def test_dimension_two_ladder(ell):
    lad = ladder(2, ell)
    assert lad.b == 0 and lad.tail_exponent == ell - 1
    for n in range(1, 5):
        assert component(lad, ell, n) == maximal_power(2, n * ell - 1)


def test_unit_tail_iff_divisor():
    for d in range(2, 25):
        for ell in range(1, 12):
            assert ladder(d, ell).unit_tail == ((d - 1) % ell == 0)


def test_tail_exponent_complements_inequality_index():
    for d in range(3, 25):
        for ell in range(2, 10):
            sides = ineq_sides(d, ell)
            assert ladder(d, ell).tail_exponent == ell - 1 - sides.i


def test_ladder_domain():
    with pytest.raises(ValueError):
        ladder(1, 2)
    with pytest.raises(ValueError):
        ladder(3, 0)


def test_mu_frozen_values():
    assert ladder(4, 3).mu_K == 1
    assert ladder(5, 2).mu_K == 2
    assert ladder(4, 2).mu_K == 5
    assert ladder(3, 2).mu_MK == 9
    assert ladder(4, 2).mu_MK == 34
    assert ladder(5, 2).mu_MK == 25


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_mu_counts_match_ladder_generators(d, ell):
    lad = ladder(d, ell)
    e = lad.tail_exponent
    assert lad.mu_K == lad.b + maximal_power(d, e).num_gens()
    assert lad.mu_MK == (
        lad.b * maximal_power(d, 1).num_gens()
        + maximal_power(d, e + 1).num_gens()
        + maximal_power(d, e + ell).num_gens()
    )


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_rees_cone_oracle_matches_every_ladder_number(d, ell):
    # degrees 1 .. b+3: K has its last generators in degree b+1 and MK in
    # degree b+2, so the last degree must add none
    lad = ladder(d, ell)
    components, cone_mu_K, cone_mu_MK = rees_cone_counts(d, ell, lad.b + 3)
    for n, got in enumerate(components, 1):
        assert got == component(lad, ell, n), n
    assert (cone_mu_K, cone_mu_MK) == (lad.mu_K, lad.mu_MK)
    assert rees_cone_counts(d, ell, lad.b + 2)[1:] == (cone_mu_K, cone_mu_MK)
    gap = cone_mu_MK - d * cone_mu_K - count_exponent_vectors(d, ell)
    assert gap == lad.sides.gap == ineq_sides(d, ell).gap == ladder_report(d, ell)["gap"]


def test_mu_K_is_one_on_diagonal():
    for d in range(3, 31):
        assert ladder(d, d - 1).mu_K == 1


def test_agl_inequality_iff_divisor():
    for d in range(3, 31):
        for ell in range(2, 11):
            assert agl_inequality(d, ell) == ((d - 1) % ell == 0)


def test_agl_inequality_matches_binomial_gap():
    for d in range(3, 31):
        for ell in range(2, 11):
            assert agl_inequality(d, ell) == (ineq_sides(d, ell).gap == 0)


def test_hypothesis_rejections():
    for fn in (ineq_sides, agl_inequality, ladder_report):
        with pytest.raises(ValueError):
            fn(2, 2)
        with pytest.raises(ValueError):
            fn(3, 1)


def test_ulrich_frozen_values():
    # on a divisor cell the ladder is R t + ... + R t^(c+1), and the Ulrich
    # cokernel C = K/R t^(b+1) is free of rank c = b = mu_K - 1
    for (d, ell), c in {(5, 2): 1, (7, 2): 2, (5, 4): 0, (3, 1): 1}.items():
        lad = ladder(d, ell)
        assert lad.unit_tail and lad.mu_K - 1 == lad.b == c


def test_obstruction_frozen_values():
    assert notgraded_obstruction(5, 2) == Obstruction(1, 32)
    assert notgraded_obstruction(7, 2) == Obstruction(2, 128)
    assert notgraded_obstruction(9, 4) == Obstruction(1, 262144)


def test_obstruction_sweep():
    fired = 0
    for d in range(3, 31):
        for ell in range(2, d - 1):
            if (d - 1) % ell != 0:
                continue
            obs = notgraded_obstruction(d, ell)
            assert obs.mu_bound == b_of(d, ell)
            assert obs.e_bound == ell**d
            assert obs.e_bound > obs.mu_bound + 1
            fired += 1
    assert fired > 10


def test_obstruction_rejections():
    with pytest.raises(ValueError):
        notgraded_obstruction(3, 2)  # the Gorenstein diagonal
    with pytest.raises(ValueError):
        notgraded_obstruction(4, 2)  # 2 does not divide 3
    with pytest.raises(ValueError):
        notgraded_obstruction(5, 1)


@pytest.mark.parametrize("ell", range(2, 7))
def test_ladder_cross_check_dimension_two(ell):
    assert ladder_cross_check(2, ell, 5)


def test_ladder_cross_check_domain():
    with pytest.raises(ValueError):
        ladder_cross_check(3, 2, 4)
    with pytest.raises(ValueError):
        ladder_cross_check(2, 1, 4)
    with pytest.raises(ValueError):
        ladder_cross_check(2, 2, 0)


def test_ladder_report_contents():
    report = ladder_report(5, 2)
    assert report == {
        "d": 5,
        "ell": 2,
        "b": 1,
        "tail_exponent": 0,
        "a_invariant": -1,
        "mu_K": 2,
        "mu_MK": 25,
        "gap": 0,
        "obstruction": {"mu_bound": 1, "e_bound": 32},
    }
    report = ladder_report(4, 2)
    assert "obstruction" not in report
    assert report["gap"] == ineq_sides(4, 2).gap == 4
    assert ladder_report(4, 3)["mu_K"] == 1
    assert "obstruction" not in ladder_report(4, 3)
