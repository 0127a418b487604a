"""Classification grid against the hand-written golden table and cross checks."""

import csv
import hashlib
import importlib
import json
import pathlib
import re
import time
import tracemalloc

import pytest

from reesag import binomials, canonical, classify, ineq_sides
from reesag.binomials import _mu_rows
from reesag.canonical import ladder, notgraded_obstruction
from reesag.classify import (
    ClassLabel,
    Evidence,
    RULE_LABELS,
    render_ascii,
    render_csv,
    render_json,
    table,
)
from reesag.errors import InvariantBreach

classify_module = importlib.import_module("reesag.classify")

GOLDEN = pathlib.Path(__file__).parent / "data" / "table_10_9.csv"


def golden_cells():
    with GOLDEN.open(newline="") as fh:
        return {
            (int(row["d"]), int(row["ell"])): row["label"]
            for row in csv.DictReader(fh)
        }


def cross_check(d: int, ell: int) -> bool:
    """Tie the label to the ladder evidence; d >= 3, ell >= 2 only.

    Gorenstein-or-local labels must coincide with gap = 0; the Gorenstein
    label must coincide with mu_K = 1; the local-only label must admit the
    multiplicity obstruction.
    """
    if d < 3 or ell < 2:
        raise ValueError(f"cross_check needs d >= 3 and ell >= 2, got ({d}, {ell})")
    label, _ = classify(d, ell)
    gap = ineq_sides(d, ell).gap
    ok = (label in (ClassLabel.GORENSTEIN_GRADED, ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY)) == (
        gap == 0
    )
    ok = ok and (label is ClassLabel.GORENSTEIN_GRADED) == (ladder(d, ell).mu_K == 1)
    if label is ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY:
        obs = notgraded_obstruction(d, ell)
        ok = ok and obs.e_bound > obs.mu_bound + 1
    return ok


def test_golden_file_shape():
    cells = golden_cells()
    assert len(cells) == 81
    assert set(cells) == {(d, ell) for d in range(2, 11) for ell in range(1, 10)}


def test_table_matches_golden():
    grid = table(10, 9)
    for key, expected in golden_cells().items():
        label, _ = grid[key]
        assert label.symbol == expected, f"cell {key}"


def test_rule_labels_cover_and_determine():
    grid = table(12, 12)
    seen = set()
    for (d, ell), (label, evidence) in grid.items():
        assert evidence.rule in RULE_LABELS
        assert RULE_LABELS[evidence.rule] is label
        assert (evidence.d, evidence.ell) == (d, ell)
        seen.add(evidence.rule)
    assert seen == set(RULE_LABELS)


def test_classify_frozen_cells():
    label, ev = classify(4, 3)
    assert label is ClassLabel.GORENSTEIN_GRADED
    assert (ev.rule, ev.mu_K, ev.gap) == ("gorenstein-diagonal", 1, 0)

    label, ev = classify(3, 1)
    assert label is ClassLabel.ALMOST_GORENSTEIN_GRADED
    assert (ev.rule, ev.gap) == ("parameter-ideal", None)

    label, ev = classify(2, 5)
    assert label is ClassLabel.ALMOST_GORENSTEIN_GRADED
    assert (ev.rule, ev.gap) == ("dimension-two", None)

    label, ev = classify(5, 2)
    assert label is ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY
    assert (ev.rule, ev.gap, ev.mu_K) == ("divisor-local-only", 0, 2)
    assert ev.obstruction == (1, 32)

    label, ev = classify(4, 2)
    assert label is ClassLabel.NONE
    assert (ev.rule, ev.gap, ev.obstruction) == ("gap-positive", 4, None)


def test_classify_diagonal_is_gorenstein():
    for d in range(3, 51):
        label, ev = classify(d, d - 1)
        assert label is ClassLabel.GORENSTEIN_GRADED
        assert ev.mu_K == 1


def test_classify_degenerate_2_1():
    # d = 2, ell = 1 sits on the diagonal, so the Gorenstein rule fires first
    label, ev = classify(2, 1)
    assert label is ClassLabel.GORENSTEIN_GRADED
    assert ev.rule == "gorenstein-diagonal"


def test_classify_domain():
    with pytest.raises(ValueError):
        classify(1, 1)
    with pytest.raises(ValueError):
        classify(2, 0)
    with pytest.raises(ValueError):
        table(1, 5)
    with pytest.raises(ValueError):
        table(5, 0)


def test_cross_check_sweep():
    for d in range(3, 31):
        for ell in range(2, 31):
            assert cross_check(d, ell), f"({d}, {ell})"


def test_cross_check_agrees_with_mu_and_gap():
    label, _ = classify(9, 4)
    assert label is ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY
    assert ineq_sides(9, 4).gap == 0 and ladder(9, 4).mu_K > 1


def test_cross_check_domain():
    with pytest.raises(ValueError):
        cross_check(2, 2)
    with pytest.raises(ValueError):
        cross_check(3, 1)


def test_label_ordering_and_symbols():
    # declared from the strongest label down; each symbol names its label
    assert [lab.symbol for lab in ClassLabel] == ["Gor", "AG", "AGL", "X"]
    assert all(ClassLabel(lab.symbol) is lab for lab in ClassLabel)
    assert ClassLabel("Gor") is ClassLabel.GORENSTEIN_GRADED


def test_evidence_as_dict_omits_absent_fields():
    _, ev = classify(2, 3)
    d = ev.as_dict()
    assert set(d) == {"b", "mu_K", "rule"}
    _, ev = classify(7, 4)
    assert set(ev.as_dict()) == {"b", "mu_K", "rule", "gap"}
    _, ev = classify(7, 2)
    assert set(ev.as_dict()) == {"b", "mu_K", "rule", "gap", "obstruction"}
    assert ev.as_dict()["obstruction"] == {"mu_bound": 2, "e_bound": 128}


def test_render_csv_equals_golden_content():
    assert render_csv(table(10, 9)) == GOLDEN.read_text()


def test_render_json_round_trip():
    grid = table(4, 3)
    cells = json.loads(render_json(grid))
    assert len(cells) == 9
    by_key = {(c["d"], c["ell"]): c for c in cells}
    for (d, ell), (label, evidence) in grid.items():
        cell = by_key[(d, ell)]
        assert cell["label"] == label.symbol
        assert cell["evidence"] == evidence.as_dict()
    # d-major ordering
    assert [(c["d"], c["ell"]) for c in cells] == sorted(by_key)


def test_render_ascii_layout():
    grid = table(4, 3)
    lines = render_ascii(grid).splitlines()
    assert lines[0].split() == ["d\\l", "1", "2", "3"]
    assert lines[1].split() == ["2", "Gor", "AG", "AG"]
    assert lines[2].split() == ["3", "AG", "Gor", "X"]
    assert lines[3].split() == ["4", "AG", "X", "Gor"]


def test_evidence_is_frozen():
    _, ev = classify(3, 2)
    assert isinstance(ev, Evidence)
    with pytest.raises(AttributeError):
        ev.gap = 7


def test_render_json_digest_is_pinned():
    # the digest the dataclass records gave; the NamedTuples must print the same bytes
    digest = hashlib.sha256(render_json(table(60, 30)).encode()).hexdigest()
    assert digest == "507c28dc842902b55a09a7ebbeef32c21b46e7b5637c520bb9ac4fb97eed2e05"


# a cell of each rule that rests on a fact, with one of its numbers corrupted:
# (d, ell, index into _cell's (b, i, e, lhs, rhs, gap, mu_tail), corrupt value)
CORRUPTED_FACTS = {
    "gap-positive": (7, 4, 5, 0, "gap-positive needs gap > 0, got 0 at d=7, ell=4"),
    "divisor-local-only": (7, 3, 5, 1, "divisor-local-only needs gap = 0, got 1 at d=7, ell=3"),
    "gorenstein-diagonal": (5, 4, 6, 2, "gorenstein-diagonal needs mu_K = 1, got 2 at d=5, ell=4"),
}


@pytest.mark.parametrize("rule", list(CORRUPTED_FACTS))
def test_each_rule_checks_its_fact(monkeypatch, rule):
    d, ell, index, value, message = CORRUPTED_FACTS[rule]
    assert classify(d, ell)[1].rule == rule
    cell = binomials._cell

    def corrupted(d_, ell_, row=None):
        out = list(cell(d_, ell_, row))
        if (d_, ell_) == (d, ell):
            out[index] = value
        return tuple(out)

    # classify reads _cell through binomials._sides, table through its own import
    monkeypatch.setattr(binomials, "_cell", corrupted)
    monkeypatch.setattr(classify_module, "_cell", corrupted)
    with pytest.raises(InvariantBreach, match=f"^{message}$"):
        classify(d, ell)
    with pytest.raises(InvariantBreach, match=f"^{message}$"):
        table(d, ell)


def test_classify_checks_a_divisor_cell_once(monkeypatch):
    # (7, 3) is a divisor cell off the diagonal: reading its obstruction builds the bound, with no second bit check
    cells = []
    check = binomials._check_cell_bits
    for module in (binomials, canonical):
        monkeypatch.setattr(module, "_check_cell_bits", lambda d, ell: cells.append((d, ell)) or check(d, ell))
    label, ev = classify(7, 3)
    assert label == ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY and ev.obstruction == (1, 3**7)
    assert cells == [(7, 3)]


def test_bit_budget_admits_the_largest_printed_bound():
    # classify 20001 10000 prints 10000^20001, 80 005 digits, below 2^280014
    binomials._check_cell_bits(20001, 10000)
    assert 20001 * (10000).bit_length() == 280_014 < binomials._CELL_BIT_CAP
    label, ev = classify(20001, 10000)
    assert (label, ev.gap, ev.obstruction.e_bound) == (ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY, 0, 10000**20001)


def test_cell_bit_bound_covers_every_integer_of_the_cell(monkeypatch):
    # the counts C(n, d-1) and C(n, d-2), n <= 2*ell + d - 2 and n - k <= 2*ell, that the
    # direct and the telescoped gap read, and the ell^d of a divisor cell off the diagonal
    # and off ell = 1: with the cap one below the longest of them, the cell must be refused
    for d in range(2, 61):
        for ell in range(1, 31):
            (_, below), (_, at) = _mu_rows(d - 1, d, 2 * ell)
            ints = at[: 2 * ell] + below
            if 1 < ell < d - 1 and (d - 1) % ell == 0:
                ints.append(ell**d)
            longest = max(x.bit_length() for x in ints)
            monkeypatch.setattr(binomials, "_CELL_BIT_CAP", longest - 1)
            with pytest.raises(ValueError, match=f"^integer bits of cell \\({d}, {ell}\\): "):
                binomials._check_cell_bits(d, ell)


BIG_CELL = "integer bits of cell (1000000, 500000): 1999998 over the budget of 400000"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify(10**6, 500_000), BIG_CELL),
        (lambda: canonical.ladder(10**6, 500_000), BIG_CELL),
        (lambda: canonical.ladder_report(10**6, 500_000), BIG_CELL),
        (lambda: ineq_sides(10**6, 500_000), BIG_CELL),
        (lambda: binomials.ineq_gap_telescoped(10**6, 500_000), BIG_CELL),
        # ell | d-1, so the obstruction bound 2^400001 would be its largest integer
        (lambda: notgraded_obstruction(400_001, 2), "integer bits of cell (400001, 2): 800002 over the budget of 400000"),
        # 10^6 cells, within the cell budget; the largest cell is checked once
        (lambda: table(100_001, 10), "integer bits of cell (100001, 10): 400004 over the budget of 400000"),
    ],
    ids=["classify", "ladder", "ladder_report", "ineq_sides", "ineq_gap_telescoped", "notgraded_obstruction",
         "table"],
)
def test_closed_form_bit_budget_refuses_before_any_comb(monkeypatch, call, message):
    monkeypatch.setattr(binomials.math, "comb", lambda n, k: pytest.fail("called math.comb"))
    monkeypatch.setattr(classify_module, "_mu_rows", lambda *a: pytest.fail("built a row"))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 100_000


@pytest.mark.parametrize("d_max, ell_max", [(2, 1), (3, 2), (30, 17), (120, 60)])
def test_table_equals_classify_cell_by_cell(d_max, ell_max):
    grid = table(d_max, ell_max)
    assert list(grid) == [(d, ell) for d in range(2, d_max + 1) for ell in range(1, ell_max + 1)]
    for (d, ell), (label, evidence) in grid.items():
        assert (label, evidence) == classify(d, ell), (d, ell)


def test_table_reads_binom_once_per_row_not_once_per_cell(monkeypatch):
    calls = []
    binom = binomials.binom
    monkeypatch.setattr(binomials, "binom", lambda n, m: calls.append((n, m)) or binom(n, m))
    table(40, 20)
    # the three binom counts of the cell (d, 20) that classify re-derives for each d
    assert len(calls) == 3 * 39


def test_table_builds_ladders_only_for_the_checked_cells(monkeypatch):
    built = []
    cls = binomials.IneqSides
    monkeypatch.setattr(binomials, "IneqSides", lambda *a, **k: built.append(cls.__name__) or cls(*a, **k))
    table(40, 20)
    # the cell (d, 20) that classify re-derives for each d, and no other
    assert built == ["IneqSides"] * 39


def test_table_builds_obstruction_bounds_only_where_printed(monkeypatch):
    built = []
    obstruction = canonical._obstruction
    monkeypatch.setattr(classify_module, "_obstruction", lambda d, ell: built.append((d, ell)) or obstruction(d, ell))
    grid = table(60, 30)
    render_csv(grid)
    render_ascii(grid)
    assert built == []
    render_json(grid)
    # one bound per divisor cell off the diagonal, each ell^d built once, in the rendered order
    assert built == [(d, ell) for d in range(3, 61) for ell in range(2, min(d - 1, 31)) if (d - 1) % ell == 0]


@pytest.mark.parametrize(
    "corrupt, first_d",
    [
        (lambda d_min, d_max, k: ((d - 1, row) for d, row in _mu_rows(d_min + 1, d_max + 1, k)), 2),
        # mu(m^5) enters every cell (d, 5), but at d = 2 only through the gap, which is not evidence there
        (lambda *a: ((d, [mu + (j == 5) for j, mu in enumerate(row)]) for d, row in _mu_rows(*a)), 3),
    ],
    ids=["wrong-dimension", "one-entry"],
)
def test_corrupted_row_breaks_the_table(monkeypatch, corrupt, first_d):
    monkeypatch.setattr(classify_module, "_mu_rows", corrupt)
    with pytest.raises(InvariantBreach, match=f"^table row disagrees with classify at d={first_d}, ell=5$"):
        table(6, 5)


def test_table_budget_refuses_before_allocating(monkeypatch):
    # 1 000 values of d times 1 001 of ell: 1 001 000 cells, beyond the cap
    monkeypatch.setattr(classify_module, "_mu_rows", lambda *a: pytest.fail("built a row"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^table cells: 1001000 over the budget of 1000000$"):
            table(1001, 1001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
