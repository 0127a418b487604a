"""Monomial engine: arithmetic, colon vs brute force, colength, multiplicity."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import colength_by_membership, lcm_gens, member, minimal_gens, product_gens
from reesag import Monomial, MonomialIdeal, maximal_power
from reesag.binomials import colength_power, mu_power
from reesag.monomials import (
    IdealFileError,
    brute_colon,
    format_ideal,
    monomials_of_degree,
    monomials_up_to_degree,
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


def test_divides_refuses_dimension_mismatch():
    # without the check, zip truncates the longer vector and both read True
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        Monomial((5, 0, 0)).divides(Monomial((5, 0)))
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        Monomial((1, 2)).divides(Monomial((1, 2, 3)))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: MonomialIdeal(2.5, []), "dim"),
        (lambda: MonomialIdeal(2.0, []), "dim"),
        (lambda: MonomialIdeal(True, [Monomial((1,))]), "dim"),
        (lambda: maximal_power(True, 2), "dim"),
        (lambda: maximal_power(2.0, 3), "dim"),
        (lambda: maximal_power(2, 2.0), "degree"),
        (lambda: maximal_power(2, False), "degree"),
        (lambda: maximal_power(2, 1) ** True, "power n"),
        (lambda: maximal_power(2, 1) ** 2.0, "power n"),
        (lambda: maximal_power(2, 1) ** np.int64(2), "power n"),
        (lambda: monomials_of_degree(True, 2), "dim"),
        (lambda: monomials_of_degree(2, 2.0), "degree"),
        (lambda: brute_colon(maximal_power(2, 2), maximal_power(2, 1), 2.0), "degree_bound"),
        (lambda: brute_colon(maximal_power(2, 2), maximal_power(2, 1), True), "degree_bound"),
        (lambda: monomials_up_to_degree(2, 2.0), "bound"),
        (lambda: monomials_up_to_degree(2, True), "bound"),
        (lambda: Monomial.variable(True, 0), "dim"),
        (lambda: Monomial.variable(2, True), "index"),
        (lambda: Monomial.variable(2, 1.0), "index"),
        (lambda: Monomial.unit(2.0), "dim"),
        (lambda: Monomial.unit(True), "dim"),
    ],
    ids=[
        "ideal-dim-float", "ideal-dim-integral-float", "ideal-dim-bool", "power-dim-bool",
        "power-dim-float", "power-degree-float", "power-degree-bool", "pow-bool", "pow-float",
        "pow-numpy-int64", "enumeration-dim-bool", "enumeration-degree-float",
        "brute-colon-bound-float", "brute-colon-bound-bool", "up-to-degree-bound-float",
        "up-to-degree-bound-bool", "variable-dim-bool", "variable-index-bool",
        "variable-index-float", "unit-dim-float", "unit-dim-bool",
    ],
)
def test_engine_refuses_non_int_sizes(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        call()


def test_engine_sizes_keep_their_range_messages():
    with pytest.raises(ValueError, match="^need dim >= 1, got 0$"):
        MonomialIdeal(0)
    with pytest.raises(ValueError, match="^need degree >= 0, got -1$"):
        maximal_power(2, -1)
    with pytest.raises(ValueError, match="^need dim >= 1, got 0$"):
        maximal_power(0, 2)
    with pytest.raises(ValueError, match="^need power n >= 0, got -1$"):
        maximal_power(2, 1) ** -1
    # it used to yield nothing
    with pytest.raises(ValueError, match="^need bound >= 0, got -1$"):
        monomials_up_to_degree(2, -1)
    with pytest.raises(ValueError, match="^need index >= 0, got -1$"):
        Monomial.variable(2, -1)
    with pytest.raises(ValueError, match="^variable index 2 out of range for dim 2$"):
        Monomial.variable(2, 2)


def test_brute_colon_refuses_a_negative_bound():
    # it used to return the zero ideal, the empty truncation
    with pytest.raises(ValueError, match="^need degree_bound >= 0, got -1$"):
        brute_colon(maximal_power(2, 2), maximal_power(2, 1), -1)


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


def test_ideal_drops_divisible_generators():
    assert ideal(1, (2,), (3,)) == ideal(1, (2,))
    assert ideal(2, (1, 0), (0, 1), (1, 1)) == ideal(2, (1, 0), (0, 1))
    assert MonomialIdeal(2, []).is_zero


def test_ideal_idempotent_order_insensitive():
    rng = random.Random(11)
    for _ in range(50):
        gens = [
            Monomial(tuple(rng.randint(0, 4) for _ in range(3))) for _ in range(6)
        ]
        reference = MonomialIdeal(3, gens)
        assert MonomialIdeal(3, reference.gens) == reference
        rng.shuffle(gens)
        assert MonomialIdeal(3, gens) == reference


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
        I = MonomialIdeal(dim, [Monomial(g) for g in gens])
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


# For these ideals the Hilbert-Samuel function is not yet polynomial on the
# window n = 1..d+1 that the finite difference samples, so multiplicity()
# returns 124 and 48 (ROADMAP item 2).
EARLY_WINDOW = pytest.mark.xfail(strict=True, reason="multiplicity() samples too early a window")


@EARLY_WINDOW
def test_multiplicity_x5_y5_z5_x2yz3():
    assert ideal(3, (5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 3)).multiplicity() == 125


@EARLY_WINDOW
def test_multiplicity_x5_y5_z2_x2y3():
    assert ideal(3, (5, 0, 0), (0, 5, 0), (0, 0, 2), (2, 3, 0)).multiplicity() == 50


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


# -- differential test against the pairwise oracles --------------------------

# exponent ranges shrink with the dimension so that brute_colon's search stays small
_MAX_EXP = {1: 9, 2: 8, 3: 3, 4: 2}


def _exps(gens):
    return [g.exponents for g in gens]


@st.composite
def gen_lists(draw, dim):
    """Exponent tuples of one ideal: zero, unit, or random with duplicates, ties and pure powers."""
    shape = draw(st.sampled_from(["zero", "unit", "gens", "gens", "gens", "gens", "gens"]))
    if shape == "zero":
        return []
    exps = st.tuples(*[st.integers(0, _MAX_EXP[dim])] * dim)
    gens = draw(st.lists(exps, min_size=1, max_size=6))
    if shape == "unit":
        gens.append((0,) * dim)
    if draw(st.booleans()):  # duplicates
        gens += draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    if draw(st.booleans()):  # ties in the first and in the last exponent
        first, last = gens[0][0], gens[-1][-1]
        gens.append((first,) + draw(exps)[1:])
        gens.append(draw(exps)[:-1] + (last,))
    for axis in range(dim):  # pure powers, sometimes two on one axis
        for _ in range(draw(st.integers(0, 2))):
            pure = [0] * dim
            pure[axis] = draw(st.integers(1, _MAX_EXP[dim]))
            gens.append(tuple(pure))
    return gens


@st.composite
def ideal_pairs(draw):
    dim = draw(st.sampled_from([1, 2, 2, 2, 2, 3, 4]))
    return dim, draw(gen_lists(dim)), draw(gen_lists(dim))


def _probes(dim, gens):
    """Each generator and its neighbours one step up or down in each exponent."""
    out = set()
    for g in gens:
        out.add(g)
        for k in range(dim):
            for step in (-1, 1):
                p = list(g)
                p[k] += step
                if p[k] >= 0:
                    out.add(tuple(p))
    return sorted(out)


@settings(max_examples=150)
@given(case=ideal_pairs())
def test_engine_matches_pairwise_oracles(case):
    dim, a, b = case
    I = MonomialIdeal(dim, map(Monomial, a))
    J = MonomialIdeal(dim, map(Monomial, b))
    assert _exps(I.gens) == minimal_gens(a)
    assert _exps(J.gens) == minimal_gens(b)
    for p in _probes(dim, a + b):
        assert I.member(Monomial(p)) == member(a, p)
        assert (Monomial(p) in J) == member(b, p)
    assert I.contains(J) == all(member(a, q) for q in b)
    assert J.contains(I) == all(member(b, q) for q in a)
    assert _exps((I * J).gens) == product_gens(a, b)
    assert _exps(I.intersection(J).gens) == lcm_gens(a, b)
    if J.is_zero:
        with pytest.raises(ValueError, match="colon by the zero ideal"):
            I.colon(J)
    else:
        assert I.colon(J) == brute_colon(I, J, sufficient_colon_bound(I))


# -- Monomial objects are built once per distinct result, never per pair -----


def _built_during(monkeypatch, action):
    calls = []
    original = Monomial.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(Monomial, "__post_init__", counting)
        action()
    return len(calls)


def _clip(g, m):
    return tuple(max(x - y, 0) for x, y in zip(g, m))


def _lcm(p, q):
    return tuple(map(max, p, q))


def test_product_builds_one_monomial_per_distinct_sum(monkeypatch):
    m3, m2 = maximal_power(4, 3), maximal_power(4, 2)
    pairs = [(g.exponents, h.exponents) for g in m3.gens for h in m2.gens]
    distinct = {tuple(map(sum, zip(p, q))) for p, q in pairs}
    assert (len(pairs), len(distinct)) == (200, 56)
    assert _built_during(monkeypatch, lambda: m3 * m2) == len(distinct)


def test_intersection_builds_one_monomial_per_distinct_lcm(monkeypatch):
    I, J = maximal_power(3, 2), maximal_power(3, 1)
    distinct = {_lcm(g.exponents, h.exponents) for g in I.gens for h in J.gens}
    assert (I.num_gens() * J.num_gens(), len(distinct)) == (18, 13)
    assert _built_during(monkeypatch, lambda: I.intersection(J)) == len(distinct)


def test_colon_builds_one_monomial_per_distinct_result(monkeypatch):
    # colon = intersection over the divisor's generators m, in order, of the
    # single colons generated by the clipped differences g - m
    I = ideal(3, (2, 1, 0), (2, 0, 1), (0, 2, 2), (3, 3, 0))
    J = ideal(3, (3, 1, 1), (0, 2, 2))
    a = [g.exponents for g in I.gens]
    singles = [{_clip(g, m.exponents) for g in a} for m in J.gens]
    expected = sum(map(len, singles))
    acc = minimal_gens(singles[0])
    for single in singles[1:]:
        raw = {_lcm(p, q) for p in acc for q in minimal_gens(single)}
        expected += len(raw)
        acc = minimal_gens(raw)
    assert I.num_gens() * J.num_gens() > expected  # the pairs collide
    assert _built_during(monkeypatch, lambda: I.colon(J)) == expected
    principal = ideal(3, (3, 1, 1))
    assert _built_during(monkeypatch, lambda: I.colon(principal)) == len(singles[0]) < I.num_gens()


# -- packed products: edge cases of the packing base ---------------------------

BIG = 2**64


@pytest.mark.parametrize(
    "dim, a, b",
    [
        (1, [(3,)], [(4,)]),
        (1, [(BIG + 5,)], [(2,), (BIG,)]),
        # the largest degrees are pure powers on every axis, so each of these
        # field sums is exactly one below the packing base 1 + 5 + 3
        (3, [(5, 0, 0), (0, 5, 0), (0, 0, 5), (1, 1, 1)], [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
        (2, [(7, 0), (0, 7)], [(0, 0)]),
        (2, [(2**70, 1), (3, 2**65 + 3)], [(2**66, 0), (1, 1), (0, BIG)]),
        (4, [(BIG, 0, 1, 0), (0, 0, 0, BIG + 1)], [(0, BIG - 1, 0, 0), (1, 1, 1, 1)]),
        (3, [], [(1, 0, 0)]),
        (3, [(1, 2, 0)], []),
        (2, [], []),
        (3, [(0, 0, 0)], [(0, 0, 0)]),
        (3, [(0, 0, 0)], [(2, 0, 1), (0, 4, 0)]),
    ],
    ids=[
        "dim1", "dim1-above-2^64", "sums-one-below-base", "unit-factor-dim2", "above-2^64-dim2",
        "above-2^64-dim4", "zero-left", "zero-right", "zero-zero", "unit-unit", "unit-left",
    ],
)
def test_product_edge_cases_match_oracle(dim, a, b):
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    assert _exps((I * J).gens) == product_gens(a, b)
    assert _exps((J * I).gens) == product_gens(b, a)


@settings(max_examples=100)
@given(data=st.data())
def test_product_with_huge_exponents_matches_oracle(data):
    dim = data.draw(st.integers(1, 4))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, BIG - 1, BIG, BIG + 1, 2**70])] * dim)
    a = data.draw(st.lists(exps, max_size=4))
    b = data.draw(st.lists(exps, max_size=4))
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    assert _exps((I * J).gens) == product_gens(a, b)


# -- colength over d-1 axes against the cell-by-cell oracle --------------------

# box sides shrink with the dimension so that the oracle's walk stays small
_MAX_SIDE = {1: 12, 2: 9, 3: 6, 4: 4, 5: 3}


@st.composite
def primary_gens(draw):
    """Generators of an m-primary ideal in dim 1-5, or of the unit ideal.

    The box comes first, with ties among its sides drawn often.  The longest
    side (the first one on a tie) is the axis the colength drops; several
    generators share a prefix with different exponents on it, and others lie
    outside the box on each axis in turn.
    """
    dim = draw(st.integers(1, 5))
    side = st.integers(1, _MAX_SIDE[dim])
    first = draw(side)
    box = [first if draw(st.booleans()) else draw(side) for _ in range(dim)]
    gens = []
    for k, s in enumerate(box):
        pure = [0] * dim
        pure[k] = s
        gens.append(tuple(pure))
    cell = st.tuples(*[st.integers(0, s - 1) for s in box])
    gens += draw(st.lists(cell, max_size=6))
    drop = box.index(max(box))
    for prefix in draw(st.lists(cell, max_size=2)):
        for h in draw(st.lists(st.integers(0, box[drop] - 1), min_size=2, max_size=3)):
            gens.append(prefix[:drop] + (h,) + prefix[drop + 1 :])
    for k in range(dim):
        outside = list(draw(cell))
        outside[k] = box[k] + draw(st.integers(0, 2))
        gens.append(tuple(outside))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * dim)
    return dim, gens


@settings(max_examples=200)
@given(case=primary_gens())
def test_colength_matches_membership_oracle_dims_1_to_5(case):
    dim, gens = case
    I = MonomialIdeal(dim, map(Monomial, gens))
    if I.is_unit:
        assert I.colength() == 0
    else:
        assert I.colength() == colength_by_membership(gens)


def test_colength_cap_refuses_before_allocating():
    # pure powers 500, 500, 500: a 125 000 000-cell box, beyond the cap
    I = ideal(3, (500, 0, 0), (0, 500, 0), (0, 0, 500))
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="^colength box has 125000000 cells; refusing beyond 100000000$"
        ):
            I.colength()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
