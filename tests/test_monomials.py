"""Monomial engine: arithmetic, colon vs brute force, colength, multiplicity."""

import random

import numpy as np
import pytest

from oracles import colength_by_membership
from reesag import Monomial, MonomialIdeal, maximal_power
from reesag.binomials import colength_power, mu_power
from reesag.monomials import (
    IdealFileError,
    brute_colon,
    format_ideal,
    minimalize,
    parse_ideal,
    random_ideal,
    sufficient_colon_bound,
)


def ideal(dim, *exps):
    return MonomialIdeal(dim, (Monomial(e) for e in exps))


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.dim == 3 and m.degree == 3 and not m.is_unit
    assert Monomial.unit(2).is_unit
    assert Monomial((1, 0)).divides(Monomial((2, 1)))
    assert not Monomial((1, 2)).divides(Monomial((2, 1)))
    assert Monomial((1, 2)) * Monomial((3, 0)) == Monomial((4, 2))
    assert Monomial((3, 1)).lcm(Monomial((1, 2))) == Monomial((3, 2))
    assert Monomial((3, 1)).colon_by(Monomial((1, 2))) == Monomial((2, 0))


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        Monomial(())
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        Monomial((1, 0)) * Monomial((1, 0, 0))


@pytest.mark.parametrize(
    "exps",
    [(1.5, 2), (2.0, 2), (True, 2), (1, False), (np.int64(1), 2), (1, np.uint8(2))],
    ids=["float", "integral-float", "bool", "bool-false", "numpy-int64", "numpy-uint8"],
)
def test_monomial_refuses_non_int_exponents(exps):
    with pytest.raises(ValueError, match="is not an int"):
        Monomial(exps)


def test_colon_by_half_integer_exponent_is_refused():
    # once accepted, x^1.5 gave the generator x^0.5, printed as an empty string
    with pytest.raises(ValueError, match="is not an int"):
        ideal(2, (1.5, 0), (0, 2)).colon(ideal(2, (1, 0)))


def test_monomial_str():
    assert str(Monomial((0, 0))) == "1"
    assert str(Monomial((2, 1))) == "x^2*y"
    assert str(Monomial((0, 3, 0, 1))) == "y^3*w"
    assert str(Monomial((1, 0, 0, 0, 2))) == "x1*x5^2"


def test_minimalize_drops_divisible():
    assert ideal(1, (2,), (3,)) == ideal(1, (2,))
    assert ideal(2, (1, 0), (0, 1), (1, 1)) == ideal(2, (1, 0), (0, 1))
    assert minimalize([], dim=2).is_zero
    with pytest.raises(ValueError):
        minimalize([])


def test_minimalize_idempotent_order_insensitive():
    rng = random.Random(11)
    for _ in range(50):
        gens = [
            Monomial(tuple(rng.randint(0, 4) for _ in range(3))) for _ in range(6)
        ]
        reference = minimalize(gens)
        assert minimalize(reference.gens) == reference
        rng.shuffle(gens)
        assert minimalize(gens) == reference


def test_zero_and_unit_ideals():
    zero = MonomialIdeal(2)
    unit = ideal(2, (0, 0))
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert unit.contains(zero) and unit.contains(unit)
    assert (zero * unit).is_zero
    assert (zero + unit) == unit
    assert unit.member(Monomial((5, 7)))
    assert not zero.member(Monomial((0, 0)))


def test_product_and_power():
    x, y = Monomial((1, 0)), Monomial((0, 1))
    assert MonomialIdeal(2, (x,)) * MonomialIdeal(2, (y,)) == ideal(2, (1, 1))
    assert maximal_power(2, 1) ** 2 == ideal(2, (2, 0), (1, 1), (0, 2))
    assert maximal_power(3, 1) ** 0 == ideal(3, (0, 0, 0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_power_of_maximal_matches_direct(d, ell):
    assert maximal_power(d, 1) ** ell == maximal_power(d, ell)


def test_power_additivity_on_random_ideals():
    rng = random.Random(23)
    for _ in range(25):
        dim = rng.randint(1, 3)
        base = random_ideal(rng, dim, max_degree=3, max_gens=3)
        a = rng.randint(0, 3)
        b = rng.randint(0, 6 - a)
        assert (base**a) * (base**b) == base ** (a + b)


def test_maximal_power_shape():
    m3 = maximal_power(2, 3)
    assert [g.exponents for g in m3.gens] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert maximal_power(4, 0).is_unit
    assert maximal_power(3, 2).num_gens() == mu_power(3, 2)


def test_membership_and_containment():
    I = ideal(2, (2, 0), (0, 2))
    assert not I.member(Monomial((1, 1)))
    assert I.member(Monomial((2, 3)))
    assert maximal_power(3, 2).contains(maximal_power(3, 3))
    assert not maximal_power(3, 3).contains(maximal_power(3, 2))


def test_colon_frozen_cases():
    I = ideal(2, (2, 0), (0, 2))
    m = maximal_power(2, 1)
    assert I.colon(m) == maximal_power(2, 2)
    assert ideal(2, (3, 0), (0, 3)).colon(maximal_power(2, 3)) == maximal_power(2, 2)
    assert I.colon(ideal(2, (0, 0))) == I  # colon by the unit ideal
    with pytest.raises(ValueError):
        I.colon(MonomialIdeal(2))


def test_colon_times_divisor_inside_ideal():
    rng = random.Random(5)
    for _ in range(120):
        dim = rng.randint(1, 3)
        I = random_ideal(rng, dim)
        J = random_ideal(rng, dim)
        assert I.contains(I.colon(J) * J)


def test_colon_agrees_with_brute_force_seeded():
    rng = random.Random(20260816)
    for _ in range(220):
        dim = rng.randint(1, 3)
        I = random_ideal(rng, dim)
        J = random_ideal(rng, dim)
        assert I.colon(J) == brute_colon(I, J, sufficient_colon_bound(I))


def test_brute_colon_truncation_semantics():
    I = ideal(2, (2, 0), (0, 2))
    J = maximal_power(2, 1)
    assert brute_colon(I, J, 4) == maximal_power(2, 2)
    # truncation of I itself when dividing by the unit ideal
    assert brute_colon(I, ideal(2, (0, 0)), 2) == I


def test_pairwise_lcm_degree_bound_is_insufficient():
    # the componentwise-max bound is needed: the max pairwise lcm degree (6)
    # misses the degree-8 generator x^4*y^4 of (x^5, y^5) : (x, y)
    I = ideal(2, (5, 0), (0, 5))
    J = maximal_power(2, 1)
    full = I.colon(J)
    assert Monomial((4, 4)) in full
    assert brute_colon(I, J, 6) != full
    assert sufficient_colon_bound(I) == 10
    assert brute_colon(I, J, 10) == full


def test_colength_frozen_and_box():
    assert maximal_power(2, 2).colength() == 3
    assert ideal(2, (0, 0)).colength() == 0
    for a in range(1, 5):
        for b in range(1, 5):
            assert ideal(2, (a, 0), (0, b)).colength() == a * b


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", range(1, 9))
def test_colength_of_maximal_powers(d, k):
    assert maximal_power(d, k).colength() == colength_power(d, k)


def test_colength_matches_membership_oracle():
    rng = random.Random(99)
    trials = 0
    while trials < 40:
        dim = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(4)]
        # force primality: a pure power in each variable
        for k in range(dim):
            pure = [0] * dim
            pure[k] = rng.randint(1, 4)
            gens.append(tuple(pure))
        I = minimalize([Monomial(g) for g in gens])
        if I.is_unit:
            continue  # unit ideal keeps no pure-power generators
        assert I.colength() == colength_by_membership([g.exponents for g in I.gens])
        trials += 1


def test_colength_rejects_non_primary():
    with pytest.raises(ValueError, match="variable index 1"):
        ideal(2, (2, 0)).colength()
    with pytest.raises(ValueError, match="variable index 0"):
        MonomialIdeal(3).colength()


def test_multiplicity_values():
    assert maximal_power(2, 2).multiplicity() == 4
    for d in range(1, 5):
        assert maximal_power(d, 1).multiplicity() == 1
    for a in range(1, 4):
        for b in range(1, 4):
            assert ideal(2, (a, 0), (0, b)).multiplicity() == a * b


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_multiplicity_of_maximal_powers_small(d, ell):
    assert maximal_power(d, ell).multiplicity() == ell**d


def test_multiplicity_d5_single_cell():
    assert maximal_power(5, 2).multiplicity() == 32


def test_ideal_file_roundtrip():
    I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 0, 3))
    text = format_ideal(I, header="roundtrip")
    assert parse_ideal(text) == I


def test_ideal_file_parsing_rules():
    text = "# comment\n\n2 0\n0 2\n"
    assert parse_ideal(text) == ideal(2, (2, 0), (0, 2))
    assert parse_ideal("# only a comment\n", dim=2).is_zero
    with pytest.raises(IdealFileError, match="no generator lines"):
        parse_ideal("")
    with pytest.raises(IdealFileError, match="not an integer exponent") as info:
        parse_ideal("2 0\n1 x\n")
    assert info.value.line_no == 2
    with pytest.raises(IdealFileError, match="expected 2 exponents"):
        parse_ideal("2 0\n1 0 0\n")
    with pytest.raises(IdealFileError, match="negative"):
        parse_ideal("-1 0\n")
