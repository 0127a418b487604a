"""Monomial engine: arithmetic, colon vs brute force, colength, multiplicity."""

import contextlib
import functools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engine_paths import PATHS, engine_path
from oracles import (
    colength_by_membership, colon_by, colon_gens, count_below_degree, exponent_vectors, lcm, lcm_gens, member,
    minimal_gens, multiplicity_late_window, newton_closure_2d, product_gens,
)
from reesag import Monomial, MonomialIdeal, _newton, maximal_power, monomials
from reesag.monomials import (
    IdealFileError,
    _antichain,
    _canonical,
    _distinct_sums,
    _table_colon,
    brute_colon,
    format_ideal,
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
    assert ideal(2, (3, 1)).intersection(ideal(2, (1, 2))) == ideal(2, lcm((3, 1), (1, 2))) == ideal(2, (3, 2))
    assert ideal(2, (3, 1)).colon(ideal(2, (1, 2))) == ideal(2, colon_by((3, 1), (1, 2))) == ideal(2, (2, 0))


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
        (lambda: brute_colon(maximal_power(2, 2), maximal_power(2, 1), 2.0), "degree_bound"),
        (lambda: brute_colon(maximal_power(2, 2), maximal_power(2, 1), True), "degree_bound"),
        (lambda: Monomial.variable(True, 0), "dim"),
        (lambda: Monomial.variable(2, True), "index"),
        (lambda: Monomial.variable(2, 1.0), "index"),
        (lambda: Monomial.unit(2.0), "dim"),
        (lambda: Monomial.unit(True), "dim"),
    ],
    ids=[
        "ideal-dim-float", "ideal-dim-integral-float", "ideal-dim-bool", "power-dim-bool",
        "power-dim-float", "power-degree-float", "power-degree-bool", "pow-bool", "pow-float",
        "pow-numpy-int64", "brute-colon-bound-float", "brute-colon-bound-bool",
        "variable-dim-bool", "variable-index-bool",
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
    assert maximal_power(3, 2).num_gens() == math.comb(3 + 2 - 1, 3 - 1)


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
    assert maximal_power(d, k).colength() == count_below_degree(d, k)


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


def test_multiplicity_x5_y5_z5_x2yz3():
    assert ideal(3, (5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 3)).multiplicity() == 125


def test_multiplicity_x5_y5_z2_x2y3():
    assert ideal(3, (5, 0, 0), (0, 5, 0), (0, 0, 2), (2, 3, 0)).multiplicity() == 50


@pytest.mark.parametrize(
    "I, want",
    [
        # a fan over every generator on a compact face, not only its
        # vertices, overcounts this as 36, and m^4 in d = 3 (above) as 100
        (ideal(3, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)), 27),
        (maximal_power(5, 4), 1024),
        # two facets here share three generators but are not adjacent; combined,
        # they give a face that is not a facet, with a degenerate simplex.  The
        # late-window finite difference reads 123 at n = 3, 5 and 6
        (ideal(4, (0, 0, 0, 5), (0, 0, 3, 0), (0, 2, 1, 0), (0, 3, 0, 0), (2, 0, 0, 1), (2, 1, 0, 0), (5, 0, 0, 0)), 123),
        (MonomialIdeal(3, [Monomial.unit(3)]), 0),
        *[(ideal(1, (a,)), a) for a in (2, 7)],
    ],
    ids=["x3_y3_z3_xyz", "m4_d5", "d4_non_adjacent", "unit", "x2", "x7"],
)
def test_multiplicity_regressions(I, want):
    assert I.multiplicity() == want


@pytest.mark.parametrize("I, index", [(MonomialIdeal(3), 0), (ideal(2, (2, 0), (1, 1)), 1)], ids=["zero", "x2_xy"])
def test_multiplicity_refuses_non_primary_before_the_hull(monkeypatch, I, index):
    monkeypatch.setattr(_newton, "multiplicity", lambda *args: pytest.fail("reached the hull"))
    message = f"^not m-primary: no pure power of variable index {index} among the generators$"
    for call in (I.multiplicity, I.colength):
        with pytest.raises(ValueError, match=message):
            call()


_STAIR = [(a, 40 - a, 0) for a in range(41)]  # x^40 .. y^40: 41 generators, past _SCATTER_NUMPY_GENS


@pytest.mark.parametrize(
    "gens, message",
    [
        (_STAIR, "^not m-primary: no pure power of variable index 2 among the generators$"),
        (_STAIR[:-1] + [(0, 0, 5)], "^not m-primary: no pure power of variable index 0 among the generators$"),
        # an exponent past int64: the pure powers are read off the tuples
        (_STAIR + [(1, 0, 2**70)], "^not m-primary: no pure power of variable index 2 among the generators$"),
        (_STAIR + [(0, 0, 2**70)], f"^colength box cells: {1600 * 2**70} over the budget of 100000000$"),
    ],
    ids=["no-z", "no-x", "no-z-past-int64", "z-past-int64"],
)
def test_colength_refusals_are_the_same_on_every_path(gens, message):
    I = MonomialIdeal(3, map(Monomial, gens))
    assert I.num_gens() >= monomials._SCATTER_NUMPY_GENS
    for path in ("default", *PATHS):
        with contextlib.nullcontext() if path == "default" else engine_path(path):
            with pytest.raises(ValueError, match=message):
                I.colength()


def test_multiplicity_budget_refuses_before_the_hull():
    # 1 820 generators in dim 5: McMullen's bound allows 3 317 862 facets
    I = maximal_power(5, 12)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match="^multiplicity facet tests of 1820 generators in dim 5: 6038508840 over the budget of 10000000$",
        ):
            I.multiplicity()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@st.composite
def primary_ideals(draw):
    """Generators of an m-primary ideal in dims 1-4: a pure power of every variable and up to 5 others."""
    dim = draw(st.integers(1, 4))
    hi = (0, 6, 6, 5, 3)[dim]
    gens = draw(st.lists(st.tuples(*[st.integers(0, hi)] * dim), max_size=5))
    for axis in range(dim):
        gens.append(tuple(draw(st.integers(1, hi)) if k == axis else 0 for k in range(dim)))
    return gens


@settings(max_examples=100)
@given(gens=primary_ideals())
@example(gens=[(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 3)])
@example(gens=[(5, 0, 0), (0, 5, 0), (0, 0, 2), (2, 3, 0)])
@example(gens=[(6, 0), (5, 1), (3, 4), (2, 5), (0, 6)])
def test_multiplicity_matches_late_window_finite_difference(gens):
    # in dim 2 the window reads the integral closure from 1 on, exact since a
    # closed ideal there has reduction number 1 (Lipman-Teissier); the ideal's
    # own window can start late: the last example, e = 36, reads 35 at 1 to 3
    dim = len(gens[0])
    I = MonomialIdeal(dim, map(Monomial, gens))
    if dim == 2:
        want = multiplicity_late_window(newton_closure_2d(gens), 1)
    else:
        want = multiplicity_late_window(gens, dim + 1)
    assert I.multiplicity() == want


@st.composite
def staircases(draw):
    """Minimal generators of an m-primary ideal in dim 2, from y^b down to a pure power of x.

    Each run repeats one step (dx, -dy), so its points are collinear: the
    inner ones lie on a hull edge, or above the hull, and are not vertices."""
    x, y = 0, draw(st.integers(1, 12))
    gens = [(x, y)]
    while y:
        dx, dy = draw(st.integers(1, 4)), draw(st.integers(1, y))
        for _ in range(draw(st.integers(1, 4))):
            x, y = x + dx, max(y - dy, 0)
            gens.append((x, y))
            if not y:
                break
    return gens


@settings(max_examples=150)
@given(gens=staircases())
@example(gens=[(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])  # m^4: every point on one edge
@example(gens=[(0, 6), (1, 3), (2, 0)])  # one edge through (1, 3)
@example(gens=[(0, 10), (4, 8), (8, 7), (12, 6), (14, 1), (16, 0)])
def test_lower_hull_walk_matches_the_facet_kernel_and_late_window(gens):
    e = _newton._lower_hull_walk(gens)
    assert e == _newton._facet_sum(gens, 2)
    assert MonomialIdeal(2, map(Monomial, gens)).multiplicity() == e
    # e(I) = e of its integral closure (Rees).  In two variables a closed
    # ideal's powers are closed (Zariski) with reduction number 1 (Lipman-
    # Teissier), so its colengths are a polynomial from n = 1 on and the window
    # at 1 reads e.  I's own window can need a late start: on the last example
    # it reads 150, 156, 158, 158 at starts 1-4 and e = 156 from 5 on.
    closure = newton_closure_2d(gens)
    assert _newton._lower_hull_walk(closure) == e
    assert multiplicity_late_window(closure, 1) == e


def test_dim2_multiplicity_needs_no_facet_budget(monkeypatch):
    # 3 201 generators on the convex curve y = (3200 - x)^2: past the facet
    # budget, which the walk does not consult
    K = 3200
    I = MonomialIdeal(2, [Monomial((a, (K - a) ** 2)) for a in range(K + 1)])
    monkeypatch.setattr(_newton, "_facet_sum", lambda *args: pytest.fail("enumerated facets"))
    assert I.num_gens() * _newton._facet_bound(I.num_gens(), 2) > _newton._FACET_TEST_CAP
    # every generator is a vertex: 2 * the area under the polygon
    assert I.multiplicity() == sum((a + 1) * (K - a) ** 2 - a * (K - a - 1) ** 2 for a in range(K))


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


@settings(max_examples=100)
@given(case=ideal_pairs())
def test_both_construction_paths_agree(case):
    # the checked constructor on Monomials and _of on the same exponent tuples
    # store one ideal; the sum is _of on the stored tuples of both terms
    dim, a, b = case
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    for public, of in [(I, MonomialIdeal._of(dim, a)), (J, MonomialIdeal._of(dim, b))]:
        assert public == of and hash(public) == hash(of) and repr(public) == repr(of)
        assert format_ideal(public) == format_ideal(of)
        assert _exps(public.gens) == _exps(of.gens)
    assert MonomialIdeal._of(dim, a) + MonomialIdeal._of(dim, b) == MonomialIdeal(dim, map(Monomial, a + b)) == I + J


@st.composite
def antichain_candidates(draw):
    """Candidate exponent tuples in dims 1-5: random ones, a one-degree set,
    duplicates, the unit and chains up through several degrees."""
    dim = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    gens = draw(st.lists(exps, max_size=10))
    if draw(st.booleans()):
        gens += draw(st.lists(st.sampled_from(monomials._of_degree(dim, draw(st.integers(0, 4)))), max_size=10))
    if gens and draw(st.booleans()):
        gens += draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append((0,) * dim)
    for _ in range(draw(st.integers(0, 2))):
        link = draw(exps)
        for _ in range(draw(st.integers(1, 4))):
            gens.append(link)
            link = tuple(e + draw(st.integers(0, 2)) for e in link)
    return gens


@settings(max_examples=300)
@given(gens=antichain_candidates())
def test_antichain_matches_oracle_in_canonical_order(gens):
    # the scan depends on the order it meets the candidates in; its result must not
    want = minimal_gens(gens)
    assert _antichain(gens) == want
    assert _antichain(reversed(gens)) == want
    assert _antichain(set(gens)) == want


# -- Monomial objects are built on the first .gens read, one per generator ----


def _built_during(monkeypatch, action):
    """The number of Monomials built while action runs (each passes __post_init__), and its result."""
    calls = []
    post_init = Monomial.__post_init__
    with monkeypatch.context() as patch:
        patch.setattr(Monomial, "__post_init__", lambda self: calls.append(self) or post_init(self))
        result = action()
    return len(calls), result


def _gens_built_on_first_read(monkeypatch, action):
    """action's ideal: action builds no Monomial, the first .gens read one per
    generator, and a second read none, returning the same tuple."""
    built, result = _built_during(monkeypatch, action)
    assert built == 0
    built, first = _built_during(monkeypatch, lambda: result.gens)
    assert built == result.num_gens() == len(first)
    built, again = _built_during(monkeypatch, lambda: result.gens)
    assert built == 0 and again is first
    return result


def test_product_builds_one_monomial_per_distinct_sum(monkeypatch):
    # one per minimal generator of the product, fewer than its distinct sums
    m3, m2 = maximal_power(4, 3), maximal_power(4, 2)
    pairs = [(g.exponents, h.exponents) for g in m3.gens for h in m2.gens]
    distinct = {tuple(map(sum, zip(p, q))) for p, q in pairs}
    assert (len(pairs), len(distinct)) == (200, 56)
    product = _gens_built_on_first_read(monkeypatch, lambda: m3 * m2)
    assert _exps(product.gens) == product_gens(_exps(m3.gens), _exps(m2.gens)) and product.num_gens() == 56
    # (x^2, xy, y^3)^2: x^2 y^3 is a distinct sum, but x^2 y^2 divides it
    a = [(2, 0), (1, 1), (0, 3)]
    distinct = {tuple(map(sum, zip(p, q))) for p in a for q in a}
    I = ideal(2, *a)
    square = _gens_built_on_first_read(monkeypatch, lambda: I * I)
    assert square.num_gens() == len(product_gens(a, a)) == 5 < len(distinct) == 6


def test_intersection_builds_one_monomial_per_distinct_lcm(monkeypatch):
    # one per minimal generator of the intersection, m^2, not per distinct lcm
    I, J = maximal_power(3, 2), maximal_power(3, 1)
    distinct = {lcm(g.exponents, h.exponents) for g in I.gens for h in J.gens}
    assert (I.num_gens() * J.num_gens(), len(distinct)) == (18, 13)
    meet = _gens_built_on_first_read(monkeypatch, lambda: I.intersection(J))
    assert _exps(meet.gens) == lcm_gens(_exps(I.gens), _exps(J.gens)) and meet.num_gens() == 6


def test_colon_builds_one_monomial_per_distinct_result(monkeypatch):
    # pairwise path: colon = intersection over the divisor's generators m, in
    # order, of the single colons generated by the clipped differences g - m;
    # none of those ideals builds a Monomial, the result one per generator
    I = ideal(3, (2, 1, 0), (2, 0, 1), (0, 2, 2), (3, 3, 0))
    J = ideal(3, (3, 1, 1), (0, 2, 2))
    a = _exps(I.gens)
    singles = [minimal_gens({colon_by(g, m.exponents) for g in a}) for m in J.gens]
    acc = singles[0]
    for single in singles[1:]:
        acc = minimal_gens({lcm(p, q) for p in acc for q in single})
    assert I.num_gens() * J.num_gens() > sum(map(len, singles))  # the pairs collide
    assert _exps(_gens_built_on_first_read(monkeypatch, lambda: I.colon(J)).gens) == acc
    principal = ideal(3, (3, 1, 1))
    assert _gens_built_on_first_read(monkeypatch, lambda: I.colon(principal)).num_gens() == len(singles[0]) < I.num_gens()
    # table path
    Q, m6 = MonomialIdeal(3, (Monomial.variable(3, j, 6) for j in range(3))), maximal_power(3, 6)
    assert Q.num_gens() * m6.num_gens() >= monomials._COLON_TABLE_PAIRS
    assert _gens_built_on_first_read(monkeypatch, lambda: Q.colon(m6)) == brute_colon(Q, m6, sufficient_colon_bound(Q))


# -- the pairwise colon on exponent tuples -------------------------------------


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pairwise_colon_builds_one_ideal(monkeypatch, k):
    # k single colons and k - 1 intersections of them, all on exponent tuples:
    # 2k - 1 antichains, no MonomialIdeal.intersection and one ideal at the end
    I = ideal(3, (2, 1, 0), (2, 0, 1), (0, 2, 2), (3, 3, 0))
    J = ideal(3, *[(3, 1, 1), (0, 2, 2), (1, 0, 2), (0, 3, 0)][:k])
    assert J.num_gens() == k and I.num_gens() * k < monomials._COLON_TABLE_PAIRS
    want = brute_colon(I, J, sufficient_colon_bound(I))
    calls = {"_fill": 0, "_antichain": 0}
    with monkeypatch.context() as patch:
        patch.setattr(MonomialIdeal, "_fill", _counted(calls, "_fill", MonomialIdeal._fill))
        patch.setattr(monomials, "_antichain", _counted(calls, "_antichain", monomials._antichain))
        patch.setattr(MonomialIdeal, "intersection", lambda *args: pytest.fail("called intersection"))
        got = I.colon(J)
    assert calls == {"_fill": 1, "_antichain": 2 * k - 1}
    assert got == want


@pytest.mark.parametrize("k", [1, 3])
def test_pairwise_colon_sorts_once_per_antichain(monkeypatch, k):
    # the last antichain is already in canonical order, so the ideal is filled
    # from it without a second sort
    I = ideal(3, (2, 1, 0), (2, 0, 1), (0, 2, 2), (3, 3, 0), (1, 1, 3))
    J = ideal(3, *[(1, 0, 0), (0, 2, 2), (0, 1, 3)][:k])
    assert J.num_gens() == k
    calls = {"_canonical": 0}
    with monkeypatch.context() as patch:
        patch.setattr(monomials, "_canonical", _counted(calls, "_canonical", monomials._canonical))
        got = I.colon(J)
    assert calls == {"_canonical": 2 * k - 1}
    assert got.num_gens() > 1
    assert list(got._exps) == sorted(sorted(got._exps, reverse=True), key=sum)
    assert got == brute_colon(I, J, sufficient_colon_bound(I))


@st.composite
def pairwise_colon_pairs(draw):
    """(dim, left, right) in dims 4-5, below _COLON_TABLE_PAIRS generator pairs;
    right may hold the unit and duplicates."""
    dim = draw(st.integers(4, 5))
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    left = draw(st.lists(exps, min_size=1, max_size=8))
    right = draw(st.lists(exps, min_size=1, max_size=6))
    if draw(st.booleans()):
        right.append((0,) * dim)
    if draw(st.booleans()):
        right.append(right[0])
    return dim, left, right


@settings(max_examples=60)
@given(case=pairwise_colon_pairs())
def test_pairwise_colon_matches_brute_force_dims_4_and_5(case):
    dim, left, right = case
    I, J = (MonomialIdeal(dim, map(Monomial, gens)) for gens in (left, right))
    assert I.num_gens() * J.num_gens() < monomials._COLON_TABLE_PAIRS
    got = I.colon(J)
    assert got == brute_colon(I, J, sufficient_colon_bound(I))
    assert _exps(got.gens) == colon_gens(left, right)


# -- the numpy side of the engine's size thresholds ------------------------------

# the oracle tests below run each case on every path of engine_paths in one
# test, so that their ids stay those of the tests they extend


@pytest.mark.parametrize(
    "a, b, degree, numpy",
    [
        # base = 2**31 - 1: every packed sum is below base**2 < 2**62
        ([(2**30 - 1, 0), (0, 2**30 - 1)], [(2**30 - 1, 0), (1, 1), (0, 0)], None, True),
        # base = 2**31: base**2 = 2**62 is already refused
        ([(2**30, 0)], [(2**30 - 1, 0), (0, 2**30 - 1)], None, False),
        # base**3 >= 2**62 although every sum would fit
        ([(2**20, 0, 0), (0, 1, 5)], [(2**20 - 1, 1, 0), (0, 0, 0)], None, False),
        # 2**62 + 2**62 overflows int64 in one field
        ([(2**62,)], [(2**62,), (3,)], None, False),
        ([(2**62, 1), (1, 2**62)], [(2**62, 0), (0, 2**62)], None, False),
        # one degree: base**3 >= 2**62, but only two coordinates are packed and base**2 < 2**62
        ([(2**25, 0, 0), (0, 0, 2**25)], [(2**25 - 1, 1, 0), (0, 2**25, 0)], 2**26, True),
    ],
    ids=["base^2-below-2^62", "base^2-at-2^62", "base^3-above-2^62", "dim1-2^63", "dim2-2^63",
         "one-degree-base^3-above-2^62"],
)
def test_distinct_sums_take_numpy_only_below_2_to_62(monkeypatch, a, b, degree, numpy):
    base = 1 + max(map(sum, a)) + max(map(sum, b))
    assert (base ** (len(a[0]) - (degree is not None)) < 2**62) == numpy
    assert degree is None or base ** len(a[0]) >= 2**62
    packed = []
    rows = monomials._int64_rows
    monkeypatch.setattr(monomials, "_int64_rows", lambda *args: packed.append(1) or rows(*args))
    with engine_path("numpy"):
        got = _distinct_sums(a, b, base, degree)
    assert bool(packed) == numpy
    assert sorted(got) == sorted({tuple(map(operator.add, p, q)) for p in a for q in b})
    assert all(type(e) is int for sums in got for e in sums)


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
    for path in PATHS:
        with engine_path(path):
            assert _exps((I * J).gens) == product_gens(a, b), path
            assert _exps((J * I).gens) == product_gens(b, a), path


@settings(max_examples=100)
@given(data=st.data())
def test_product_with_huge_exponents_matches_oracle(data):
    dim = data.draw(st.integers(1, 4))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, BIG - 1, BIG, BIG + 1, 2**70])] * dim)
    a = data.draw(st.lists(exps, max_size=4))
    b = data.draw(st.lists(exps, max_size=4))
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    for path in PATHS:
        with engine_path(path):
            assert _exps((I * J).gens) == product_gens(a, b), path


@st.composite
def one_degree_gens(draw, dim):
    """1 to 5 generators of one degree in dim variables: small degrees, the unit
    ideal among them, or degrees from 2**62 on, so that exponents pass 2**62."""
    degree = draw(st.one_of(st.integers(0, 4), st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, 2**70])))
    cuts = st.lists(st.integers(0, degree), min_size=dim - 1, max_size=dim - 1).map(sorted)
    splits = draw(st.lists(cuts, min_size=1, max_size=5))
    return [tuple(hi - lo for lo, hi in zip([0, *c], [*c, degree])) for c in splits]


@settings(max_examples=150)
@given(data=st.data())
def test_one_degree_products_match_oracle(data):
    dim = data.draw(st.integers(1, 5))
    a, b = data.draw(one_degree_gens(dim)), data.draw(one_degree_gens(dim))
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    for path in PATHS:
        with engine_path(path):
            assert _exps((I * J).gens) == product_gens(a, b), path


@st.composite
def staircase_gens(draw, dim, size):
    """size minimal generators in dim 2-5: exponents x and slope * (20 - x) on
    the first two axes for distinct xs, so that none divides another, and any
    exponents after them; slope 1 and one sum after them make one degree."""
    xs = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size, unique=True))
    one_degree = draw(st.booleans())
    slope = 1 if one_degree else draw(st.integers(2, 3))
    total = draw(st.integers(0, 3))
    gens = []
    for x in xs:
        if dim == 2:
            tail = ()
        elif one_degree:
            cuts = sorted(draw(st.lists(st.integers(0, total), min_size=dim - 3, max_size=dim - 3)))
            tail = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))
        else:
            tail = draw(st.tuples(*[st.integers(0, 3)] * (dim - 2)))
        gens.append((x, slope * (20 - x), *tail))
    return gens


@settings(max_examples=150)
@given(data=st.data())
def test_products_straddling_the_packing_crossover_match_oracle(data):
    # the engine's own thresholds: about _SUM_PACK_PAIRS pairs, on either side
    dim = data.draw(st.integers(1, 5))
    if dim == 1:
        a, b = [(data.draw(st.integers(0, 9)),)], [(data.draw(st.integers(0, 9)),)]
    else:
        n = data.draw(st.integers(4, 12))
        pairs = data.draw(st.integers(monomials._SUM_PACK_PAIRS - 12, monomials._SUM_PACK_PAIRS + 12))
        a, b = data.draw(staircase_gens(dim, n)), data.draw(staircase_gens(dim, min(12, round(pairs / n))))
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    assert (I.num_gens(), J.num_gens()) == (len(a), len(b))
    assert _exps((I * J).gens) == product_gens(a, b)


@pytest.mark.parametrize("dim, k, ell", [(2, 3000, 10), (3, 70, 5), (4, 20, 3), (5, 12, 4)])
def test_large_one_degree_products_are_powers_of_m(dim, k, ell):
    # thousands of distinct sums per product, so each column is long on both paths
    want = maximal_power(dim, k + ell)
    assert want.num_gens() > 2000
    for path in PATHS:
        with engine_path(path):
            assert maximal_power(dim, k) * maximal_power(dim, ell) == want, path


@pytest.mark.parametrize(
    "I, J, antichains",
    [
        (maximal_power(2, 16), maximal_power(2, 15), 0),
        (maximal_power(2, 1), ideal(2, (0, 15)), 0),
        (maximal_power(3, 4), maximal_power(3, 0), 0),
        (maximal_power(5, 2), ideal(5, (0, 0, 1, 0, 1), (2, 0, 0, 0, 0)), 0),
        # a dim-1 ideal has one generator, so a product has one sum
        (ideal(1, (3,)), ideal(1, (4,)), 0),
        (maximal_power(1, 0), ideal(1, (2,)), 0),
        # mixed degrees: a distinct sum can be divided by another, so the antichain runs
        (ideal(2, (2, 0), (1, 1), (0, 3)), maximal_power(2, 2), 1),
        (ideal(3, (1, 0, 0), (0, 2, 0)), maximal_power(3, 3), 1),
    ],
    ids=["dim2-m16-m15", "dim2-principal", "dim3-unit", "dim5", "dim1", "dim1-unit", "mixed-dim2", "mixed-dim3"],
)
def test_one_degree_product_skips_the_antichain(monkeypatch, I, J, antichains):
    # distinct monomials of one degree never divide each other, so a product of
    # one-degree ideals keeps every distinct sum and never calls _antichain
    a, b = _exps(I.gens), _exps(J.gens)
    antichain = monomials._antichain
    for path in PATHS:
        calls = []
        with engine_path(path), monkeypatch.context() as patch:
            patch.setattr(monomials, "_antichain", lambda exps: calls.append(1) or antichain(exps))
            product = I * J
        assert len(calls) == antichains, path
        assert _exps(product.gens) == product_gens(a, b), path


# -- dim-2 one-degree products as bitset sumsets ------------------------------


@st.composite
def dim2_one_degree_gens(draw):
    """1 to 12 generators (x, D - x) of one degree D, their xs drawn with gaps
    from a window of up to 4 per generator, or now and then of up to 2**70
    cells, that starts at 0, below 2**62 or from 2**62 on; D is at or above
    the window's last x, by a little or by 2**62 and more."""
    size = draw(st.integers(1, 12))
    width = draw(st.one_of(st.integers(size - 1, 4 * size), st.integers(size, 2**70)))
    low = draw(st.sampled_from([0, 0, 0, 2**62 - 3, 2**62, 2**70]))
    xs = draw(st.lists(st.integers(low, low + width), min_size=1, max_size=size, unique=True))
    degree = max(xs) + draw(st.sampled_from([0, 0, 1, 5, 2**62, 2**70]))
    return [(x, degree - x) for x in xs]


@settings(max_examples=250)
@given(a=dim2_one_degree_gens(), b=dim2_one_degree_gens())
# narrow spans from 2**62 on, 7 x 8 pairs: the sumset takes them exactly
@example(a=[(2**62 + x, 2**63 - x) for x in (0, 1, 3, 6, 7, 9, 12)],
         b=[(2**70 + x, 2**70 + 2 - x) for x in (0, 1, 2, 4, 5, 6, 8, 11)])
def test_dim2_one_degree_products_match_oracle(a, b):
    # pairs on both sides of _SUM_PACK_PAIRS, and a span of the xs' sums on
    # both sides of the pair count, so both the bitset and the packed sums run
    want = product_gens(a, b)
    I, J = MonomialIdeal(2, map(Monomial, a)), MonomialIdeal(2, map(Monomial, b))
    assert _exps((I * J).gens) == want
    for path in PATHS:
        with engine_path(path):
            assert _exps((I * J).gens) == want, path
            assert _exps((J * I).gens) == product_gens(b, a), path


@pytest.mark.parametrize(
    "xs_a, xs_b, bitset",
    [
        # 8 x 8 pairs, their xs 1 000 apart: the sums span 14 001 > 64 bits
        ([1000 * k for k in range(8)], [1000 * k for k in range(8)], False),
        # gapped, from 2**62 on: the sums span 23 <= 56 bits
        ([2**62 + x for x in (0, 1, 3, 6, 7, 9, 12)], [x for x in (0, 1, 2, 4, 5, 6, 8, 10)], True),
        # 8 x 8 pairs whose sums span exactly 64 bits, and one bit more
        (list(range(8)), [*range(7), 56], True),
        (list(range(8)), [*range(7), 57], False),
    ],
    ids=["wide-sparse", "narrow-from-2^62", "span-at-the-pair-count", "span-one-past-the-pair-count"],
)
def test_dim2_one_degree_products_take_the_sumset_while_it_is_narrow(monkeypatch, xs_a, xs_b, bitset):
    a = [(x, max(xs_a) + 3 - x) for x in xs_a]
    b = [(x, max(xs_b) - x) for x in xs_b]
    I, J = MonomialIdeal(2, map(Monomial, a)), MonomialIdeal(2, map(Monomial, b))
    assert len(a) * len(b) >= monomials._SUM_PACK_PAIRS
    want = product_gens(a, b)
    rows, sumset = monomials._int64_rows, monomials._sumset
    for path in ("default", "python", "numpy"):
        packed, sums = [], []
        with monkeypatch.context() as patch:
            patch.setattr(monomials, "_sumset", lambda *args: sums.append(sumset(*args)) or sums[-1])
            patch.setattr(monomials, "_int64_rows", lambda *args: packed.append(1) or rows(*args))
            with contextlib.nullcontext() if path == "default" else engine_path(path):
                assert _exps((I * J).gens) == want, path
        # one _sumset call, which returns its sums (not None) only while the span allows
        assert [s is not None for s in sums] == [bitset], path
        # the wide product still packs, in numpy where every packed sum fits int64
        assert bool(packed) == (path == "numpy" and not bitset), path


@pytest.mark.parametrize("k", [0, 1, 2, 7, 300])
def test_maximal_power_lists_stars_and_bars_in_every_dim(k):
    for dim in range(1, 6 if k < 10 else 3):
        vectors = exponent_vectors(dim, k)
        assert monomials._of_degree(dim, k) == vectors, dim
        assert list(maximal_power(dim, k)._exps) == sorted(vectors, reverse=True), dim


@st.composite
def containment_pairs(draw):
    """Two dim-2 generator lists: the second often multiples of the first's generators."""
    a = draw(gen_lists(2))
    if a and draw(st.booleans()):
        shift = st.tuples(st.integers(0, 3), st.integers(0, 3))
        b = [tuple(map(operator.add, g, draw(shift))) for g in draw(st.lists(st.sampled_from(a), max_size=6))]
        if draw(st.booleans()):
            b += draw(gen_lists(2))
    else:
        b = draw(gen_lists(2))
    return a, b


@settings(max_examples=200)
@given(case=containment_pairs())
def test_dim2_contains_matches_membership(case):
    a, b = case
    I, J = MonomialIdeal(2, map(Monomial, a)), MonomialIdeal(2, map(Monomial, b))
    want = all(map(I._has, J._exps))
    assert want == all(member(a, e) for e in b)
    assert I.contains(J) == want


# -- one-degree results in canonical order, with no sort and no antichain ------


@contextlib.contextmanager
def _recording(*names):
    """Record each call of the named monomials functions while the block runs."""
    calls = {name: 0 for name in names}
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(monomials, name, _counted(calls, name, getattr(monomials, name)))
        yield calls


@st.composite
def one_degree_sets(draw, dim):
    """1 to 12 distinct monomials of one degree in dim variables: some of all
    those of a degree up to 6, or one_degree_gens' draw, past 2**62 at times."""
    if draw(st.booleans()):
        return draw(one_degree_gens(dim))
    every = monomials._of_degree(dim, draw(st.integers(0, 6)))
    return draw(st.lists(st.sampled_from(every), min_size=1, max_size=12, unique=True))


@settings(max_examples=150)
@given(data=st.data())
def test_one_degree_products_come_out_canonical_without_a_sort(data):
    # every path of _distinct_sums, and in dim 2 the sumset (the default
    # thresholds from 48 pairs on), returns the sums in canonical order,
    # which _of(minimal=True) stores as they come
    dim = data.draw(st.integers(2, 5))
    a, b = data.draw(one_degree_sets(dim)), data.draw(one_degree_sets(dim))
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    want = tuple(_canonical(product_gens(a, b)))
    for path in ("default", *PATHS):
        with contextlib.nullcontext() if path == "default" else engine_path(path):
            with _recording("_canonical", "_antichain") as calls:
                product = I * J
        assert product._exps == want, path
        assert calls == {"_canonical": 0, "_antichain": 0}, path


@pytest.mark.parametrize(
    "sizes, bitmap",
    [((8, 8), True), ((7, 9), False)],
    ids=["cells-equal-the-pairs", "cells-one-past-the-pairs"],
)
def test_numpy_products_dedup_by_bitmap_while_cells_fit_the_pairs(monkeypatch, sizes, bitmap):
    # dim 3, degrees 3 and 4: base 8, two packed coordinates, so 64 cells
    # against 8 x 8 = 64 pairs (marked in a bitmap) or 7 x 9 = 63 (sorted)
    a, b = monomials._of_degree(3, 3)[: sizes[0]], monomials._of_degree(3, 4)[: sizes[1]]
    I, J = MonomialIdeal(3, map(Monomial, a)), MonomialIdeal(3, map(Monomial, b))
    assert (1 + 3 + 4) ** 2 - len(a) * len(b) == (0 if bitmap else 1)
    marks, packed = [], []
    flatnonzero, rows = np.flatnonzero, monomials._int64_rows
    with engine_path("numpy"), monkeypatch.context() as patch:
        patch.setattr(np, "flatnonzero", lambda *args: marks.append(1) or flatnonzero(*args))
        patch.setattr(monomials, "_int64_rows", lambda *args: packed.append(1) or rows(*args))
        product = I * J
    assert packed and len(marks) == bitmap
    assert product._exps == tuple(_canonical(product_gens(a, b)))


def test_mixed_degree_numpy_products_dedup_by_bitmap(monkeypatch):
    # m^32 in dim 3 with x^32 raised to x^33: mixed degrees, base 67, three
    # packed coordinates, 300 763 cells against 561 x 561 = 314 721 pairs
    a = [(33, 0, 0), *monomials._of_degree(3, 32)[:-1]]
    I = MonomialIdeal(3, map(Monomial, a))
    assert I.num_gens() == 561 and (1 + 2 * 33) ** 3 <= 561**2
    with engine_path("python"):
        want = I * I
    marks = []
    flatnonzero = np.flatnonzero
    with engine_path("numpy"), monkeypatch.context() as patch:
        patch.setattr(np, "flatnonzero", lambda *args: marks.append(1) or flatnonzero(*args))
        assert I * I == want
    assert marks == [1]


@st.composite
def one_degree_pairs(draw):
    """(dim, a, b) in dims 1-5: one-degree generator lists, often of one and the same degree."""
    dim = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 4))
    every = monomials._of_degree(dim, degree)
    sides = []
    for _ in range(2):
        if draw(st.booleans()):
            sides.append(draw(st.lists(st.sampled_from(every), min_size=1, max_size=8)))
        else:
            sides.append(draw(st.lists(st.sampled_from(monomials._of_degree(dim, draw(st.integers(0, 4)))),
                                       min_size=1, max_size=8)))
    return dim, *sides


@settings(max_examples=200)
@given(case=one_degree_pairs())
def test_one_degree_sums_and_containment_match_oracle(case):
    dim, a, b = case
    I, J = MonomialIdeal(dim, map(Monomial, a)), MonomialIdeal(dim, map(Monomial, b))
    same = sum(a[0]) == sum(b[0])
    with _recording("_antichain", "_canonical") as calls:
        total = I + J
    assert total._exps == tuple(minimal_gens(a + b))
    assert calls == {"_antichain": not same, "_canonical": not same}
    assert I.contains(J) == all(member(a, q) for q in b)
    assert J.contains(I) == all(member(b, q) for q in a)


def test_one_degree_shortcuts_keep_off_other_ideals():
    # the set shortcuts fire only for one and the same degree on both sides
    for dim in (1, 2, 3):
        m2, m3 = maximal_power(dim, 2), maximal_power(dim, 3)
        assert not set(m2._exps) & set(m3._exps)
        assert m2.contains(m3) and not m3.contains(m2)
        assert m2 + m3 == m2 and m3 + m2 == m2
        unit, zero = maximal_power(dim, 0), MonomialIdeal(dim)
        assert unit.is_unit and unit + unit == unit and unit.contains(unit)
        assert unit + m2 == unit and unit.contains(m2) and not m2.contains(unit)
        assert zero + zero == zero and zero.contains(zero)
        assert zero + m2 == m2 + zero == m2 and m2.contains(zero) and not zero.contains(m2)
    # one degree plus mixed degrees: (x^2, xy, y^2) + (x^3, y) = (x^2, y)
    mixed = ideal(2, (3, 0), (0, 1))
    with _recording("_antichain") as calls:
        total = maximal_power(2, 2) + mixed
    assert calls == {"_antichain": 1}
    assert total._exps == ((0, 1), (2, 0)) == tuple(minimal_gens([*maximal_power(2, 2)._exps, (3, 0), (0, 1)]))
    assert not maximal_power(2, 2).contains(mixed) and not mixed.contains(maximal_power(2, 2))
    assert ideal(2, (2, 0), (0, 1)).contains(maximal_power(2, 2))
    # mixed degrees whose least one is m's: x divides x^3, and x is not in (y, x^3)
    m = maximal_power(2, 1)
    assert mixed + m == m + mixed == m and m.contains(mixed) and not mixed.contains(m)


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
    want = 0 if I.is_unit else colength_by_membership(gens)
    for path in PATHS:
        with engine_path(path):
            assert I.colength() == want, path


def test_colength_cap_refuses_before_allocating():
    # pure powers 500, 500, 500: a 125 000 000-cell box, beyond the cap
    I = ideal(3, (500, 0, 0), (0, 500, 0), (0, 0, 500))
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="^colength box cells: 125000000 over the budget of 100000000$"
        ):
            I.colength()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- the drop table's narrow dtype ----------------------------------------------

# fill of the table and the dtype that holds -fill - 1 .. fill: each side of the
# int8 and int16 edges
_DTYPE_EDGES = [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)]


@pytest.mark.parametrize("fill, dtype", _DTYPE_EDGES, ids=[str(fill) for fill, _ in _DTYPE_EDGES])
def test_drop_table_dtype_edges(fill, dtype):
    # numpy's scatter and slab sweep against the Python scatter and np.minimum.accumulate
    gens = [(fill - 1, 0), (0, 1)]
    with engine_path("numpy"):
        swept = monomials._drop_table(gens, 0, [3], fill)
    with engine_path("tuple"):
        accumulated = monomials._drop_table(gens, 0, [3], fill)
    assert swept.dtype == accumulated.dtype == dtype
    assert swept.tolist() == accumulated.tolist() == [fill - 1, 0, 0]


@pytest.mark.parametrize("fill", [fill for fill, _ in _DTYPE_EDGES])
def test_colength_at_the_dtype_edges(fill):
    # the drop axis is x, so the table holds x-exponents up to fill itself
    cases = [
        (2, [(fill, 0), (0, 3), (fill - 1, 1), (fill // 2, 2)]),
        (3, [(fill, 0, 0), (0, 3, 0), (0, 0, 2), (fill - 1, 1, 0), (fill // 3, 0, 1), (0, 2, 1)]),
    ]
    for dim, gens in cases[: 2 if fill < 256 else 1]:
        want = colength_by_membership(gens)
        I = MonomialIdeal(dim, map(Monomial, gens))
        for path in ("default", *PATHS):
            with contextlib.nullcontext() if path == "default" else engine_path(path):
                assert I.colength() == want, (dim, path)


@pytest.mark.parametrize("dim, ell", [(3, 127), (3, 128), (5, 20)])
def test_colength_of_large_powers_takes_the_narrow_sweep(dim, ell):
    # tables of 127^2 int8, 128^2 int16 and 20^4 int8 cells; the last sweeps
    # its slabs on every axis but the contiguous one
    assert maximal_power(dim, ell).colength() == math.comb(ell + dim - 1, dim)


@pytest.mark.parametrize("dim, top", [(2, 62), (2, 63), (1, 16382), (1, 16383)])
def test_table_colon_at_the_dtype_edges(dim, top):
    # bound = top + 1 and fill = 2 * bound: 126 is int8, 128 int16, 32766
    # int16, 32768 int32.  The divisors reach past the bound, so the shifted
    # tables run from -bound to 2 * bound, and cells at the fill sit next to
    # cells at 0.  In dim 1, (x^top) : (x^m, ...) is x to the largest top - m
    # clipped at 0, the lcm of the single colons
    if dim == 2:
        left = [(top, 0), (0, 3), (top - 1, 1), (top // 2, 2), (1, 2)]
        right = [(top + 5, 0), (0, 1), (top // 2, 1), (3, 0), (0, 0), (1, 1), (2, 2), (top, 3)]
    else:
        left = [(top,)]
        right = [(top + 5,), (top // 2,), (1,), (0,)]
    I = MonomialIdeal(dim, map(Monomial, left))
    for k in range(1, len(right) + 1):
        if dim == 2:
            want = brute_colon(I, MonomialIdeal(dim, map(Monomial, right[:k])), sufficient_colon_bound(I))
        else:
            want = MonomialIdeal(1, [Monomial(functools.reduce(lcm, (colon_by(left[0], m) for m in right[:k])))])
        for path in ("default", *PATHS):
            with contextlib.nullcontext() if path == "default" else engine_path(path):
                assert MonomialIdeal(dim, map(Monomial, _table_colon(left, right[:k]))) == want, (path, k)


def test_product_budget_refuses_before_allocating(monkeypatch):
    # m^20 in d = 5 has 10 626 generators: its square would form 112 911 876 pairs
    I = maximal_power(5, 20)
    tracemalloc.start()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(monomials, "_distinct_sums", lambda *args: pytest.fail("formed pairs"))
            with pytest.raises(ValueError, match="^product generator pairs: 112911876 over the budget of 10000000$"):
                I * I
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the budget counts pairs, so a long factor passes against a short one
    assert (I * maximal_power(5, 1)).num_gens() == math.comb(5 + 21 - 1, 5 - 1)


def test_intersection_budget_refuses_before_allocating():
    # a staircase of 3 164 generators in dim 2: its self-intersection would form 10 010 896 pairs
    I = ideal(2, *[(a, 3163 - a) for a in range(3164)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^intersection generator pairs: 10010896 over the budget of 10000000$"):
            I.intersection(I)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the budget counts pairs, so a long side passes against a short one
    assert I.intersection(ideal(2, (1, 0))).num_gens() == 3163


def test_colon_generator_path_refuses_before_intersecting():
    # x's side, 2**70 + 1 cells, refuses the drop table; the divisor (x, y)
    # then makes two colons of 3 202 generators each, whose intersection
    # would form 10 249 602 pairs, about 1 GB of tuples
    N = 3200
    Q = ideal(3, (2**70, 0, 0), *[(0, a, N - a) for a in range(N + 1)])
    D = ideal(3, (1, 0, 0), (0, 1, 0))
    assert _table_colon([g.exponents for g in Q.gens], [g.exponents for g in D.gens]) is None
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^intersection generator pairs: 10249602 over the budget of 10000000$"):
            Q.colon(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two single colons, about 1.5 MB, and not one pair
    assert peak < 3_000_000


@pytest.mark.parametrize("dim", [2237, 10**6])
def test_maximal_power_exponent_budget_refuses_before_allocating(dim):
    # m in dim 2 237 has 2 237 generators, within the generator budget, but
    # 5 004 169 exponents, about 40 MB; in dim 10^6 it would be about 8 TB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(f"^exponents of the monomials of degree 1 in dim {dim}: {dim * dim} "
                                              "over the budget of 5000000$")):
            maximal_power(dim, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_maximal_power_budget_refuses_before_allocating():
    # m^70 in d = 5 has C(74, 4) = 1 150 626 generators, about 220 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^monomials of degree 70 in dim 5: 1150626 over the budget of 1000000$"):
            maximal_power(5, 70)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- colon from the drop table -------------------------------------------------


@st.composite
def table_colon_pairs(draw):
    """(dim, left, right) for the table colon, in dims 1-4.

    left is m-primary, arbitrary with some axes at M_k = 0, or holds the
    unit; right may hold the unit and a generator outside left's box.
    """
    dim = draw(st.integers(1, 4))
    hi = _MAX_EXP[dim]
    shape = draw(st.sampled_from(["primary", "primary", "free", "free", "unit"]))
    live = [True] * dim if shape == "primary" else draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    left = draw(st.lists(st.tuples(*[st.integers(0, hi if on else 0) for on in live]), min_size=1, max_size=8))
    if shape == "primary":
        for axis in range(dim):
            left.append(tuple(draw(st.integers(1, hi)) if k == axis else 0 for k in range(dim)))
    elif shape == "unit":
        left.append((0,) * dim)
    exps = st.tuples(*[st.integers(0, hi + 1)] * dim)
    right = draw(st.lists(exps, min_size=1, max_size=6))
    if draw(st.booleans()):
        right.append((0,) * dim)
    if draw(st.booleans()):
        far = list(draw(exps))
        far[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([hi + 3, 2**70]))
        right.append(tuple(far))
    return dim, left, right


@settings(max_examples=200)
@given(case=table_colon_pairs())
# (xy) : (x^5) = (y): the cell y = 0 has no generator below it for any shift,
# and x^5's exponent on the dropped axis lifts it exactly to the absent bound
@example(case=(2, [(1, 1)], [(5, 0)]))
def test_table_colon_matches_brute_force(case):
    dim, left, right = case
    I, J = (MonomialIdeal(dim, map(Monomial, gens)) for gens in (left, right))
    want = brute_colon(I, J, sufficient_colon_bound(I))
    for path in PATHS:
        with engine_path(path):
            table = _table_colon(left, right)
        # the cells it reads off are exactly the minimal generators, each once
        assert sorted(table) == sorted(minimal_gens(table)), path
        assert MonomialIdeal(dim, map(Monomial, table)) == want, path


@settings(max_examples=100)
@given(case=table_colon_pairs())
def test_table_colon_output_is_already_minimal(case):
    # colon puts the table's cells in canonical order and hands them to
    # MonomialIdeal._of as minimal, so no antichain runs on them: that must
    # change nothing
    dim, left, right = case
    table = _table_colon(left, right)
    assert all(type(e) is int for cell in table for e in cell)
    assert len(set(table)) == len(table)
    assert sorted(_antichain(table)) == sorted(table)
    trusted = MonomialIdeal._of(dim, _canonical(table), minimal=True)
    assert trusted == MonomialIdeal(dim, map(Monomial, table))
    assert _exps(trusted.gens) == minimal_gens(table)


@pytest.mark.parametrize("dim, k", [(2, 40), (3, 6), (4, 4)])
def test_big_colons_read_the_table(monkeypatch, dim, k):
    Q = MonomialIdeal(dim, (Monomial.variable(dim, j, k) for j in range(dim)))
    I = maximal_power(dim, k)
    assert Q.num_gens() * I.num_gens() >= monomials._COLON_TABLE_PAIRS
    with monkeypatch.context() as patch:
        patch.setattr(monomials, "_COLON_TABLE_PAIRS", float("inf"))
        by_generators = Q.colon(I)
    calls = []
    table_colon = monomials._table_colon
    monkeypatch.setattr(monomials, "_table_colon", lambda *args: calls.append(1) or table_colon(*args))
    assert Q.colon(I) == by_generators
    assert calls == [1]


def test_colon_over_the_cell_budget_takes_the_generator_path(monkeypatch):
    # 8 x 10 pairs, above the table threshold, but x's side alone has 2**70 + 1
    # cells, past int64: the table is refused before anything is allocated
    Q = ideal(3, (2**70, 0, 0), *[(0, a, 6 - a) for a in range(7)])
    I = maximal_power(3, 3)
    assert Q.num_gens() * I.num_gens() >= monomials._COLON_TABLE_PAIRS
    assert _table_colon([g.exponents for g in Q.gens], [g.exponents for g in I.gens]) is None
    with monkeypatch.context() as patch:
        patch.setattr(monomials, "_COLON_TABLE_PAIRS", float("inf"))
        by_generators = Q.colon(I)
    tracemalloc.start()
    try:
        got = Q.colon(I)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == by_generators
    assert peak < 100_000
