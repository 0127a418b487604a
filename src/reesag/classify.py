"""Classification of R(m^ell) over a d-dimensional regular local ring.

Each pair (d, ell) gets the strongest true label among: Gorenstein graded,
almost Gorenstein graded, almost Gorenstein local (but not graded), or
none of these.  The decision is a finite rule set:

  ell = d-1            -> GorensteinGraded      (canonical module is free)
  ell = 1, d >= 3      -> AlmostGorensteinGraded (Rees algebra of m itself)
  d = 2, ell >= 2      -> AlmostGorensteinGraded (every power works at d=2)
  ell | d-1, ell < d-1 -> AlmostGorensteinLocalOnly (unit-tail ladder gives
                          the local property; the multiplicity obstruction
                          kills the graded one)
  otherwise            -> NONE (the generator-count inequality fails)

Every cell carries recomputed numeric evidence, never cached table values.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
from dataclasses import dataclass

from .binomials import ineq_sides
from .canonical import Obstruction, ladder, notgraded_obstruction
from .errors import check_int

__all__ = [
    "ClassLabel",
    "Evidence",
    "RULE_LABELS",
    "classify",
    "table",
    "render_ascii",
    "render_json",
    "render_csv",
]


@functools.total_ordering
class ClassLabel(enum.Enum):
    """Possible verdicts, ordered by strength (Gor strongest, NONE weakest)."""

    GORENSTEIN_GRADED = "Gor"
    ALMOST_GORENSTEIN_GRADED = "AG"
    ALMOST_GORENSTEIN_LOCAL_ONLY = "AGL"
    NONE = "X"

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def strength(self) -> int:
        return _STRENGTH[self]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ClassLabel):
            return NotImplemented
        return self.strength < other.strength


_STRENGTH = {
    ClassLabel.NONE: 0,
    ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY: 1,
    ClassLabel.ALMOST_GORENSTEIN_GRADED: 2,
    ClassLabel.GORENSTEIN_GRADED: 3,
}

# rule tag -> the only label that rule can assign
RULE_LABELS = {
    "gorenstein-diagonal": ClassLabel.GORENSTEIN_GRADED,
    "parameter-ideal": ClassLabel.ALMOST_GORENSTEIN_GRADED,
    "dimension-two": ClassLabel.ALMOST_GORENSTEIN_GRADED,
    "divisor-local-only": ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY,
    "gap-positive": ClassLabel.NONE,
}


@dataclass(frozen=True)
class Evidence:
    """Numeric support for one cell.

    gap is present only where the inequality is defined (d >= 3 and
    ell >= 2); obstruction only for the divisor-local-only rule.
    """

    d: int
    ell: int
    b: int
    mu_K: int
    rule: str
    gap: int | None = None
    obstruction: Obstruction | None = None

    def as_dict(self) -> dict:
        out = {"b": self.b, "mu_K": self.mu_K, "rule": self.rule}
        if self.gap is not None:
            out["gap"] = self.gap
        if self.obstruction is not None:
            out["obstruction"] = {
                "mu_bound": self.obstruction.mu_bound,
                "e_bound": self.obstruction.e_bound,
            }
        return out


def classify(d: int, ell: int) -> tuple[ClassLabel, Evidence]:
    """Label one pair (d >= 2, ell >= 1, which ladder checks) with recomputed evidence."""
    lad = ladder(d, ell)
    gap = ineq_sides(d, ell).gap if (d >= 3 and ell >= 2) else None
    obstruction = None
    if ell == d - 1:
        rule = "gorenstein-diagonal"
    elif ell == 1:
        rule = "parameter-ideal"
    elif d == 2:
        rule = "dimension-two"
    elif lad.unit_tail:
        rule = "divisor-local-only"
        obstruction = notgraded_obstruction(d, ell)
    else:
        rule = "gap-positive"
    label = RULE_LABELS[rule]
    # the count b + mu(m^e) makes sense for d = 2 and ell = 1 as well
    evidence = Evidence(d=d, ell=ell, b=lad.b, mu_K=lad.mu_K, rule=rule, gap=gap, obstruction=obstruction)
    return label, evidence


def table(d_max: int, ell_max: int) -> dict[tuple[int, int], tuple[ClassLabel, Evidence]]:
    """Full grid for 2 <= d <= d_max, 1 <= ell <= ell_max."""
    check_int("d_max", d_max, 2)
    check_int("ell_max", ell_max, 1)
    return {
        (d, ell): classify(d, ell)
        for d in range(2, d_max + 1)
        for ell in range(1, ell_max + 1)
    }


# -- renderers ---------------------------------------------------------------


def _sorted_cells(grid: dict) -> list[tuple[int, int]]:
    return sorted(grid)  # d-major, then ell


def render_ascii(grid: dict[tuple[int, int], tuple[ClassLabel, Evidence]]) -> str:
    """Symbol table, one row per d, one column per ell."""
    ds = sorted({d for d, _ in grid})
    ells = sorted({ell for _, ell in grid})
    width = max(3, *(len(grid[key][0].symbol) for key in grid)) + 2
    head = "d\\l".ljust(4) + "".join(str(ell).rjust(width) for ell in ells)
    lines = [head]
    for d in ds:
        row = str(d).ljust(4) + "".join(grid[(d, ell)][0].symbol.rjust(width) for ell in ells)
        lines.append(row)
    return "\n".join(lines) + "\n"


def render_json(grid: dict[tuple[int, int], tuple[ClassLabel, Evidence]]) -> str:
    cells = []
    for d, ell in _sorted_cells(grid):
        label, evidence = grid[(d, ell)]
        cells.append(
            {"d": d, "ell": ell, "label": label.symbol, "evidence": evidence.as_dict()}
        )
    return json.dumps(cells, indent=2) + "\n"


def render_csv(grid: dict[tuple[int, int], tuple[ClassLabel, Evidence]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "ell", "label"])
    for d, ell in _sorted_cells(grid):
        writer.writerow([d, ell, grid[(d, ell)][0].symbol])
    return buf.getvalue()
