"""Veronese semigroup modules and the almost-Gorenstein checks over them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import semigroup_equal, semigroup_member
from reesag.monomials import Monomial
from reesag.veronese import (
    SemigroupModule,
    VeroneseInstance,
    verify_good_agg_claim,
    verify_good_agg_parts,
    verify_minimal_multiplicity,
    veronese_report,
)


def module(r, *gens):
    return SemigroupModule(r, frozenset(gens))


def test_membership_rule():
    m = module(3, (3, 0))
    assert m.member((3, 0))
    assert m.member((6, 0)) and m.member((4, 2))
    assert not m.member((4, 0))  # difference (1, 0) has degree 1, not 0 mod 3
    assert not m.member((2, 1))  # not componentwise above the generator


def test_membership_needs_both_conditions():
    m = module(2, (1, 1))
    assert m.member((1, 1)) and m.member((3, 1)) and m.member((2, 2))
    assert not m.member((2, 1))
    assert not m.member((0, 4))


def test_equality_is_modulewise_not_generatorwise():
    a = module(2, (2, 0), (4, 0))
    b = module(2, (2, 0))
    assert a.equals(b) and b.equals(a)
    assert not module(2, (2, 0)).equals(module(2, (0, 2)))


def test_shift_times_union():
    m = module(2, (2, 0), (0, 2))
    assert m.shift((1, 1)).sorted_gens() == [(1, 3), (3, 1)]
    assert m.times(m).sorted_gens() == [(0, 4), (2, 2), (4, 0)]
    assert m.union(module(2, (1, 1))).sorted_gens() == [(0, 2), (1, 1), (2, 0)]


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree mismatch"):
        module(2, (2, 0)).union(module(3, (3, 0)))
    with pytest.raises(ValueError):
        module(1, (-1, 0))
    with pytest.raises(ValueError):
        SemigroupModule(0, frozenset())


def test_pairs_refuse_non_int_and_bad_shapes():
    with pytest.raises(ValueError, match="non-negative ints"):
        SemigroupModule(2, frozenset({(1.5, 0)}))
    with pytest.raises(ValueError, match="non-negative ints"):
        SemigroupModule(2, frozenset({(True, 2)}))
    with pytest.raises(ValueError, match="non-negative ints"):
        module(2, (2, 0)).shift((0.5, 0.5))
    with pytest.raises(ValueError, match="non-negative ints"):
        module(2, (2, 0)).member((2.5, 1.5))
    with pytest.raises(ValueError, match="non-negative ints"):
        module(2, (2, 0)).member((-2, 4))
    with pytest.raises(ValueError):
        module(2, (1, 2, 3))
    with pytest.raises(ValueError):
        module(2, (2, 0)).member((2, 0, 0))
    for r in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="^r must be an int, got "):
            module(r, (1, 1))


def test_member_builds_no_monomial_once_the_class_ideals_exist(monkeypatch):
    # the pair is checked once by member, not again by a Monomial per query
    m = module(3, (3, 0), (1, 2), (0, 6))
    m.member((0, 0))  # builds the class ideals
    built = []
    original = Monomial.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    assert [m.member(p) for p in [(4, 2), (2, 1), (1, 5), (0, 3), (7, 5)]] == [True, False, True, False, True]
    assert built == []


small_pairs = st.tuples(st.integers(0, 6), st.integers(0, 6))
small_points = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8)


@st.composite
def module_pairs(draw):
    """r, generators a, and generators b that often span the same module as a.

    b keeps some of a's generators, each possibly raised by a degree-r step
    (which leaves the module unchanged), then adds up to two pairs of its own.
    """
    r = draw(st.integers(1, 6))
    a = draw(st.lists(small_pairs, max_size=5))
    b = []
    for qa, qb in a:
        if draw(st.booleans()):
            i = draw(st.integers(0, r))
            b.append((qa + i, qb + r - i) if draw(st.booleans()) else (qa, qb))
    b += draw(st.lists(small_pairs, max_size=2))
    return r, a, b


@settings(max_examples=200)
@given(case=module_pairs(), points=small_points)
def test_engine_matches_pairwise_oracle(case, points):
    r, a, b = case
    A, B = module(r, *a), module(r, *b)
    assert A.equals(B) == semigroup_equal(r, a, b)
    assert A.union(B).equals(A) == semigroup_equal(r, a + b, a)
    s = points[0]
    results = [
        (A, a),
        (B, b),
        (A.times(B), [(pa + qa, pb + qb) for pa, pb in a for qa, qb in b]),
        (A.union(B), a + b),
        (A.shift(s), [(s[0] + qa, s[1] + qb) for qa, qb in a]),
    ]
    for M, gens in results:
        assert M.gens == frozenset(gens)
        for p in points + gens:
            assert M.member(p) == semigroup_member(r, gens, p)


def test_instance_distinguished_elements():
    inst = VeroneseInstance(3)
    assert (inst.x, inst.y, inst.z) == ((1, 2), (3, 0), (0, 3))
    assert inst.maximal_ideal().sorted_gens() == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert inst.canonical().sorted_gens() == [(1, 2), (2, 1)]
    assert VeroneseInstance(2).canonical().sorted_gens() == [(1, 1)]
    assert inst.maximal_power(0).sorted_gens() == [(0, 0)]


def test_instance_rejects_degenerate_degree():
    with pytest.raises(ValueError, match="r = 1 is the regular ambient"):
        VeroneseInstance(1)
    with pytest.raises(ValueError, match="need r >= 2"):
        VeroneseInstance(0)


@pytest.mark.parametrize("r", range(2, 7))
def test_minimal_multiplicity(r):
    assert verify_minimal_multiplicity(VeroneseInstance(r))


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("ell", range(1, 5))
def test_good_agg_parts_sweep(r, ell):
    parts = verify_good_agg_parts(VeroneseInstance(r), ell)
    assert parts["precondition_proof_form"]
    assert parts["identity_one"]
    assert parts["identity_two"]
    assert parts["x_outside_mK"]
    assert parts["h_inside_m_ell_K"]
    assert parts["precondition_display_form"] == (r == 2)
    assert verify_good_agg_claim(VeroneseInstance(r), ell)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: VeroneseInstance(2.0), "r"),
        (lambda: VeroneseInstance(True), "r"),
        (lambda: veronese_report(2.5, 1), "r"),
        (lambda: veronese_report(3, 2.0), "ell"),
        (lambda: veronese_report(3, True), "ell"),
        (lambda: VeroneseInstance(3).maximal_power(1.0), "k"),
    ],
    ids=["instance-r-float", "instance-r-bool", "report-r", "report-ell", "report-ell-bool", "power-k"],
)
def test_veronese_refuses_non_int_sizes(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        call()


def test_parts_rejects_bad_ell():
    with pytest.raises(ValueError):
        verify_good_agg_parts(VeroneseInstance(2), 0)


def test_x_outside_mK_concrete():
    # r = 3: x = (1, 2) has degree 3, but every monomial of m K has degree >= 6
    inst = VeroneseInstance(3)
    mK = inst.maximal_ideal().times(inst.canonical())
    assert all(sum(g) >= 6 for g in mK.gens)
    assert not mK.member(inst.x)


def test_report_shape():
    report = veronese_report(3, 2)
    assert report["r"] == 3 and report["ell"] == 2
    assert report["x"] == [1, 2] and report["y"] == [3, 0] and report["z"] == [0, 3]
    assert report["minimal_multiplicity"] is True
    assert report["claim"] is True
    assert report["precondition_display_form"] is False
    assert veronese_report(2, 1)["precondition_display_form"] is True
