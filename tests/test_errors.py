"""The one input rule: every size argument is exactly an int, at least its least value."""

import importlib

import numpy as np
import pytest

from reesag.binomials import b_of, ineq_gap_telescoped, ineq_sides
from reesag.canonical import ladder, ladder_report, notgraded_obstruction
from reesag.classify import classify, table
from reesag.errors import check_budget, check_int

# entry point -> (its size arguments, valid values for them)
CLOSED_FORM = {
    "b_of": (b_of, ("d", "ell"), (7, 2)),
    "ineq_sides": (ineq_sides, ("d", "ell"), (7, 2)),
    "ineq_gap_telescoped": (ineq_gap_telescoped, ("d", "ell"), (7, 2)),
    "ladder": (ladder, ("d", "ell"), (7, 2)),
    # the ladder properties are the library's mu_K and mu_MK
    "mu_K": (lambda d, ell: ladder(d, ell).mu_K, ("d", "ell"), (7, 2)),
    "mu_MK": (lambda d, ell: ladder(d, ell).mu_MK, ("d", "ell"), (7, 2)),
    "notgraded_obstruction": (notgraded_obstruction, ("d", "ell"), (7, 2)),
    "ladder_report": (ladder_report, ("d", "ell"), (7, 2)),
    "classify": (classify, ("d", "ell"), (7, 2)),
    "table": (table, ("d_max", "ell_max"), (4, 3)),
}

BAD = {"float": float, "bool": lambda v: True, "numpy-int64": np.int64}


def _cases():
    for fn_name, (fn, names, valid) in CLOSED_FORM.items():
        for pos, name in enumerate(names):
            for kind, bad in BAD.items():
                args = list(valid)
                args[pos] = bad(valid[pos])
                yield pytest.param(fn, tuple(args), name, id=f"{fn_name}-{name}-{kind}")
    # 2**65 used to overflow int64 inside the closed form and exit 3
    yield pytest.param(classify, (np.int64(65), 2), "d", id="classify-d-numpy-int64-overflow")


@pytest.mark.parametrize("fn, args, name", _cases())
def test_closed_form_refuses_non_int_sizes(fn, args, name):
    # once accepted: ladder(7, 2.0) was a ladder of floats, b_of(7, 2.5) was
    # 2.0, and classify(5, True) applied the ell = 1 rule
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        fn(*args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: b_of(1, 2), "need d >= 2, got 1"),
        (lambda: b_of(4, 0), "need ell >= 1, got 0"),
        (lambda: ineq_sides(2, 2), "need d >= 3, got 2"),
        (lambda: ineq_gap_telescoped(3, 1), "need ell >= 2, got 1"),
        (lambda: notgraded_obstruction(5, 1), "need ell >= 2, got 1"),
        (lambda: classify(1, 2), "need d >= 2, got 1"),
        (lambda: table(5, 0), "need ell_max >= 1, got 0"),
    ],
    ids=[
        "b_of-d", "b_of-ell", "ineq_sides-d",
        "ineq_gap_telescoped-ell", "notgraded_obstruction-ell",
        "classify-d", "table-ell_max",
    ],
)
def test_closed_form_range_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_closed_form_domain_checks_keep_their_messages():
    with pytest.raises(ValueError, match="^notgraded_obstruction needs ell \\| d-1"):
        notgraded_obstruction(7, 4)
    with pytest.raises(ValueError, match="^ell = d-1 is the Gorenstein diagonal"):
        notgraded_obstruction(3, 2)


def test_closed_form_entry_points_check_each_argument_once(monkeypatch):
    calls = []

    def counted(name, value, least):
        calls.append(name)
        check_int(name, value, least)

    for layer in ("binomials", "canonical", "classify"):
        monkeypatch.setattr(importlib.import_module(f"reesag.{layer}"), "check_int", counted)
    # (7, 2) is a divisor cell off the diagonal, (7, 4) is no divisor cell, (7, 6) is the diagonal
    for d, ell in [(7, 2), (7, 4), (7, 6)]:
        for fn_name in ("b_of", "ineq_sides", "ineq_gap_telescoped", "ladder", "mu_K", "mu_MK", "classify",
                        "ladder_report"):
            calls.clear()
            CLOSED_FORM[fn_name][0](d, ell)
            # ladder_report also asks notgraded_obstruction, which checks its own arguments
            obstructed = fn_name == "ladder_report" and (d, ell) == (7, 2)
            assert len(calls) <= (4 if obstructed else 2), (fn_name, d, ell, calls)


def test_check_budget_refuses_only_past_the_cap():
    check_budget("product generator pairs", 10, 10)
    check_budget("product generator pairs", 0, 10)
    with pytest.raises(ValueError, match="^product generator pairs: 11 over the budget of 10$"):
        check_budget("product generator pairs", 11, 10)
