"""The one input rule: every size argument is exactly an int, at least its least value."""

import numpy as np
import pytest

from reesag.binomials import b_of, colength_power, ineq_gap_telescoped, ineq_sides, mu_power
from reesag.canonical import (
    ladder,
    ladder_report,
    mu_K,
    mu_MK,
    notgraded_obstruction,
    ulrich_numbers,
)
from reesag.classify import classify, table

# entry point -> (its size arguments, valid values for them)
CLOSED_FORM = {
    "b_of": (b_of, ("d", "ell"), (7, 2)),
    "mu_power": (mu_power, ("d", "k"), (3, 2)),
    "colength_power": (colength_power, ("d", "k"), (3, 2)),
    "ineq_sides": (ineq_sides, ("d", "ell"), (7, 2)),
    "ineq_gap_telescoped": (ineq_gap_telescoped, ("d", "ell"), (7, 2)),
    "ladder": (ladder, ("d", "ell"), (7, 2)),
    "mu_K": (mu_K, ("d", "ell"), (7, 2)),
    "mu_MK": (mu_MK, ("d", "ell"), (7, 2)),
    "ulrich_numbers": (ulrich_numbers, ("d", "ell"), (7, 2)),
    "notgraded_obstruction": (notgraded_obstruction, ("d", "ell"), (7, 2)),
    "ladder_report": (ladder_report, ("d", "ell"), (7, 2)),
    "classify": (classify, ("d", "ell"), (7, 2)),
    "table": (table, ("d_max", "ell_max"), (4, 3)),
    "component_exponent": (lambda n: ladder(7, 2).component_exponent(n), ("n",), (3,)),
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
        (lambda: mu_power(0, 2), "need d >= 1, got 0"),
        (lambda: colength_power(2, -1), "need k >= 0, got -1"),
        (lambda: ineq_sides(2, 2), "need d >= 3, got 2"),
        (lambda: ineq_gap_telescoped(3, 1), "need ell >= 2, got 1"),
        (lambda: ladder(7, 2).component_exponent(0), "need n >= 1, got 0"),
        (lambda: mu_K(2, 2), "need d >= 3, got 2"),
        (lambda: notgraded_obstruction(5, 1), "need ell >= 2, got 1"),
        (lambda: classify(1, 2), "need d >= 2, got 1"),
        (lambda: table(5, 0), "need ell_max >= 1, got 0"),
    ],
    ids=[
        "b_of-d", "b_of-ell", "mu_power-d", "colength_power-k", "ineq_sides-d",
        "ineq_gap_telescoped-ell", "component_exponent-n", "mu_K-d", "notgraded_obstruction-ell",
        "classify-d", "table-ell_max",
    ],
)
def test_closed_form_range_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_closed_form_domain_checks_keep_their_messages():
    with pytest.raises(ValueError, match="^ulrich_numbers needs ell \\| d-1"):
        ulrich_numbers(7, 4)
    with pytest.raises(ValueError, match="^ell = d-1 is the Gorenstein diagonal"):
        notgraded_obstruction(3, 2)

