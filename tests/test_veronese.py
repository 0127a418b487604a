"""Veronese semigroup modules and the almost-Gorenstein checks over them."""

import pytest

from reesag.veronese import (
    SemigroupModule,
    verify_good_agg_claim,
    verify_good_agg_parts,
    verify_minimal_multiplicity,
    veronese_instance,
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


def test_instance_distinguished_elements():
    inst = veronese_instance(3)
    assert (inst.x, inst.y, inst.z) == ((1, 2), (3, 0), (0, 3))
    assert inst.maximal_ideal().sorted_gens() == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert inst.canonical().sorted_gens() == [(1, 2), (2, 1)]
    assert veronese_instance(2).canonical().sorted_gens() == [(1, 1)]
    assert inst.maximal_power(0).sorted_gens() == [(0, 0)]


def test_instance_rejects_degenerate_degree():
    with pytest.raises(ValueError, match="r = 1 is the regular ambient"):
        veronese_instance(1)
    with pytest.raises(ValueError):
        veronese_instance(0)


@pytest.mark.parametrize("r", range(2, 7))
def test_minimal_multiplicity(r):
    assert verify_minimal_multiplicity(veronese_instance(r))


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("ell", range(1, 5))
def test_good_agg_parts_sweep(r, ell):
    parts = verify_good_agg_parts(veronese_instance(r), ell)
    assert parts["precondition_proof_form"]
    assert parts["identity_one"]
    assert parts["identity_two"]
    assert parts["x_outside_mK"]
    assert parts["h_inside_m_ell_K"]
    assert parts["precondition_display_form"] == (r == 2)
    assert verify_good_agg_claim(veronese_instance(r), ell)


def test_parts_rejects_bad_ell():
    with pytest.raises(ValueError):
        verify_good_agg_parts(veronese_instance(2), 0)


def test_x_outside_mK_concrete():
    # r = 3: x = (1, 2) has degree 3, but every monomial of m K has degree >= 6
    inst = veronese_instance(3)
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
