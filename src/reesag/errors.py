"""The input rule every layer applies, and the exception for a broken invariant.

Bad input raises ValueError, which the CLI maps to exit 2.  A size or
dimension argument must be exactly an int (bool and numpy integers are
refused, as exponents are) and at least its least value; check_int is the
one place that says so, and check_equal the one place that refuses two
dimensions or Veronese degrees that should agree.

An invariant is a fact the code proves about its own values (the two closed
forms of b agree, the telescoped gap equals the direct one).  A breach is a
bug in the package, never bad input, so it is kept apart from ValueError;
the CLI maps it to exit 3.  The checks are plain `if`/`raise`, so unlike
`assert` they also run under `python -O`.
"""

from __future__ import annotations

__all__ = ["InvariantBreach", "check_int", "check_equal"]


class InvariantBreach(RuntimeError):
    """An internal invariant of the package does not hold."""


def check_int(name: str, value: object, least: int) -> None:
    """Refuse a size that is not exactly an int or is below least."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def check_equal(what: str, a: object, b: object) -> None:
    """Refuse two values of what (a dimension, a Veronese degree) that differ."""
    if a != b:
        raise ValueError(f"{what} mismatch: {a} vs {b}")
