"""Dimension-two certificates: explicit elements, identities, containment."""

import dataclasses

import numpy as np
import pytest

from reesag import Monomial, MonomialIdeal, maximal_power, monomials
from reesag.certificates import build_certificate_2dim, verify_claim_containment
from reesag.errors import InvariantBreach


@pytest.mark.parametrize("ell", range(2, 21))
def test_certificate_valid_and_colon_is_expected_power(ell):
    cert = build_certificate_2dim(ell)
    assert cert.identity_a and cert.identity_b and cert.valid
    assert cert.J == maximal_power(2, ell - 1)


def test_certificate_frozen_elements():
    cert = build_certificate_2dim(2)
    assert (cert.f, cert.g, cert.h) == (Monomial((1, 0)), Monomial((2, 0)), Monomial((0, 1)))
    cert = build_certificate_2dim(5)
    assert (cert.f, cert.g, cert.h) == (Monomial((1, 0)), Monomial((5, 0)), Monomial((0, 4)))


@pytest.mark.parametrize("ell", range(2, 11))
def test_claim_containment_to_degree_ten(ell):
    cert = build_certificate_2dim(ell)
    assert verify_claim_containment(cert, 10)


def test_claim_containment_sums_run_no_antichain(monkeypatch):
    # f J + m h, g J + I h and (g J) I^(n-1) + I^n h each add two ideals of
    # one and the same degree, whose generators are all minimal
    adds, inside = [], []
    add, antichain = MonomialIdeal.__add__, monomials._antichain

    def counted_add(self, other):
        adds.append(1)
        inside.append(True)
        try:
            return add(self, other)
        finally:
            inside.pop()

    monkeypatch.setattr(MonomialIdeal, "__add__", counted_add)
    monkeypatch.setattr(monomials, "_antichain", lambda exps: pytest.fail("antichain in a sum") if inside
                        else antichain(exps))
    assert verify_claim_containment(build_certificate_2dim(16), 12)
    assert len(adds) == 2 + 2 + 11


def test_claim_containment_degree_zero_only():
    cert = build_certificate_2dim(3)
    assert verify_claim_containment(cert, 0)
    with pytest.raises(ValueError):
        verify_claim_containment(cert, -1)


def test_claim_containment_fails_in_low_degrees_and_raises_past_them(monkeypatch):
    cert = build_certificate_2dim(3)  # J = m^2, h = y^2
    # f = x^2 breaks degree 0: x^2 y lies in m J = m^3 but not in x^2 J + m h
    assert verify_claim_containment(dataclasses.replace(cert, f=Monomial((2, 0))), 1) is False
    # g = x^4 breaks degree 1 only: x^5 lies in I J = m^5 but not in x^4 J + I h
    wrong_g = dataclasses.replace(cert, g=Monomial((4, 0)))
    assert verify_claim_containment(wrong_g, 1) is False
    assert verify_claim_containment(wrong_g, 0) is True
    # past degree 1, with degrees 0 and 1 holding, a failure is an engine bug
    answers = iter([True, True, False])
    monkeypatch.setattr(MonomialIdeal, "contains", lambda self, other: next(answers))
    with pytest.raises(InvariantBreach, match="^degree-2 containment failed although degrees 0 and 1 hold \\(ell=3\\)$"):
        verify_claim_containment(cert, 2)


def test_certificate_rejections():
    with pytest.raises(ValueError, match="parameter ideal"):
        build_certificate_2dim(1)
    with pytest.raises(ValueError, match="ell >= 2"):
        build_certificate_2dim(0)


def test_certificate_as_dict():
    d = build_certificate_2dim(3).as_dict()
    assert d["ell"] == 3
    assert (d["f"], d["g"], d["h"]) == ("x", "x^3", "y^2")
    assert d["J"] == [[2, 0], [1, 1], [0, 2]]
    assert d["identities"] == {"A": True, "B": True}


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: build_certificate_2dim(3.0), "ell"),
        (lambda: build_certificate_2dim(True), "ell"),
        (lambda: build_certificate_2dim(np.int64(3)), "ell"),
        (lambda: verify_claim_containment(build_certificate_2dim(2), 2.5), "n_max"),
        (lambda: verify_claim_containment(build_certificate_2dim(2), 2.0), "n_max"),
        (lambda: verify_claim_containment(build_certificate_2dim(2), True), "n_max"),
    ],
    ids=["ell-float", "ell-bool", "ell-numpy-int64", "n_max-float", "n_max-integral-float", "n_max-bool"],
)
def test_certificate_arguments_must_be_ints(call, name):
    # each was refused naming another argument, with the ell = 1 message, or
    # by a bare TypeError inside range()
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        call()


def test_certificate_arguments_keep_their_range_messages():
    with pytest.raises(ValueError, match="^ell = 1 makes m\\^ell a parameter ideal; no certificate exists$"):
        build_certificate_2dim(1)
    with pytest.raises(ValueError, match="^need ell >= 2, got 0$"):
        build_certificate_2dim(0)
    with pytest.raises(ValueError, match="^need n_max >= 0, got -1$"):
        verify_claim_containment(build_certificate_2dim(2), -1)
