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
_label holds the rule set and takes a cell's ladder numbers as plain ints:
classify reads them off the public ladder, and table off binomials._cell.
Each rule that rests on a fact about those numbers checks it: gap > 0 on
gap-positive, gap = 0 on divisor-local-only and mu_K = 1 on the Gorenstein
diagonal; a fact that fails is an InvariantBreach.  Evidence is a
NamedTuple, the cheapest immutable record to build once per cell.
Within one table() call each d reads its generator counts off one row,
mu(m^k) for k < 2*ell_max, built for that call and dropped with it, and
builds nothing per cell but its Evidence; the row's cell (d, ell_max) is
classified again from binom, and any difference is an InvariantBreach.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from typing import NamedTuple

from .binomials import _cell, _check_grid_bits, _mu_row
from .canonical import Obstruction, _obstruction, ladder
from .errors import InvariantBreach, check_budget, check_int

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

# (d_max - 1) * ell_max cells, at about 400 B each
_TABLE_CELL_CAP = 1_000_000


class ClassLabel(enum.Enum):
    """Possible verdicts, from Gor, the strongest, down to NONE."""

    GORENSTEIN_GRADED = "Gor"
    ALMOST_GORENSTEIN_GRADED = "AG"
    ALMOST_GORENSTEIN_LOCAL_ONLY = "AGL"
    NONE = "X"

    @property
    def symbol(self) -> str:
        return self.value


# rule tag -> the only label that rule can assign
RULE_LABELS = {
    "gorenstein-diagonal": ClassLabel.GORENSTEIN_GRADED,
    "parameter-ideal": ClassLabel.ALMOST_GORENSTEIN_GRADED,
    "dimension-two": ClassLabel.ALMOST_GORENSTEIN_GRADED,
    "divisor-local-only": ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY,
    "gap-positive": ClassLabel.NONE,
}


class Evidence(NamedTuple):
    """Numeric support for one cell.

    gap is present only where the inequality is defined (d >= 3 and
    ell >= 2); obstruction only for the divisor-local-only rule.  A
    NamedTuple, so it also equals the plain tuple of its fields.
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
            out["obstruction"] = self.obstruction._asdict()
        return out


def classify(d: int, ell: int) -> tuple[ClassLabel, Evidence]:
    """Label one pair (d >= 2, ell >= 1, which ladder checks) with recomputed evidence."""
    lad = ladder(d, ell)
    return _label(d, ell, lad.b, lad.tail_exponent, lad.sides.gap, lad.sides.mu_tail)


def _label(d: int, ell: int, b: int, e: int, gap: int, mu_tail: int) -> tuple[ClassLabel, Evidence]:
    """The rule set on one cell's ladder numbers: b, tail exponent e, gap and mu(m^e), as ints;
    a rule that rests on a fact about them raises InvariantBreach unless it holds."""
    # mu_K = b + mu(m^e) makes sense for d = 2 and ell = 1 as well; the gap does not
    mu_K = b + mu_tail
    obstruction = None
    if ell == d - 1:
        rule = "gorenstein-diagonal"
        if mu_K != 1:
            raise InvariantBreach(f"gorenstein-diagonal needs mu_K = 1, got {mu_K} at d={d}, ell={ell}")
    elif ell == 1:
        rule = "parameter-ideal"
    elif d == 2:
        rule = "dimension-two"
    elif e == 0:
        rule = "divisor-local-only"
        if gap != 0:
            raise InvariantBreach(f"divisor-local-only needs gap = 0, got {gap} at d={d}, ell={ell}")
        obstruction = _obstruction(d, ell)
    else:
        rule = "gap-positive"
        if gap <= 0:
            raise InvariantBreach(f"gap-positive needs gap > 0, got {gap} at d={d}, ell={ell}")
    evidence = Evidence(d=d, ell=ell, b=b, mu_K=mu_K, rule=rule,
                        gap=gap if (d >= 3 and ell >= 2) else None, obstruction=obstruction)
    return RULE_LABELS[rule], evidence


def table(d_max: int, ell_max: int) -> dict[tuple[int, int], tuple[ClassLabel, Evidence]]:
    """Full grid for 2 <= d <= d_max, 1 <= ell <= ell_max; refuses past _TABLE_CELL_CAP cells
    and, checked once for the largest cell (d_max, ell_max), past the bit budget.

    Each d reads the counts of all its cells off one _mu_row, and labels
    each cell from _cell's ints, building only its Evidence.  Its cell
    (d, ell_max) is checked against classify, whose counts come from binom.
    """
    check_int("d_max", d_max, 2)
    check_int("ell_max", ell_max, 1)
    check_budget("table cells", (d_max - 1) * ell_max, _TABLE_CELL_CAP)
    _check_grid_bits(d_max, ell_max)
    grid = {}
    for d in range(2, d_max + 1):
        row = _mu_row(d, 2 * ell_max - 1)
        for ell in range(1, ell_max + 1):
            b, _, e, _, _, gap, mu_tail = _cell(d, ell, row)
            grid[(d, ell)] = _label(d, ell, b, e, gap, mu_tail)
        if grid[(d, ell_max)] != classify(d, ell_max):
            raise InvariantBreach(f"table row disagrees with classify at d={d}, ell={ell_max}")
    return grid


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
