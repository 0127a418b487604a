"""The one exception every layer raises when an internal invariant fails.

An invariant is a fact the code proves about its own values (the two closed
forms of b agree, the telescoped gap equals the direct one).  A breach is a
bug in the package, never bad input, so it is kept apart from ValueError;
the CLI maps it to exit 3.  The checks are plain `if`/`raise`, so unlike
`assert` they also run under `python -O`.
"""

from __future__ import annotations

__all__ = ["InvariantBreach"]


class InvariantBreach(RuntimeError):
    """An internal invariant of the package does not hold."""
