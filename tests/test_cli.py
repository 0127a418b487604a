"""CLI end to end: every verb, every format, schema validation, exit codes."""

import contextlib
import json
import pathlib
import sys
import time

import pytest

from reesag import cli, ineq_sides, maximal_power
from reesag.binomials import _mu_rows
from reesag.cli import main
from reesag.monomials import parse_ideal

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = pathlib.Path(__file__).parent.parent / "docs" / "schemas"
GOLDEN = pathlib.Path(__file__).parent / "data" / "table_10_9.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validated(out, schema_name):
    payload = json.loads(out)
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)
    return payload


def write_ideal(tmp_path, name, *rows):
    path = tmp_path / name
    path.write_text("".join(f"{' '.join(map(str, r))}\n" for r in rows))
    return str(path)


# -- table -------------------------------------------------------------------


def test_table_ascii_default(capsys):
    code, out, err = run_cli(capsys, "table")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 10  # header plus d = 2 .. 10
    assert lines[0].split() == ["d\\l"] + [str(ell) for ell in range(1, 10)]
    assert lines[1].split() == ["2", "Gor"] + ["AG"] * 8


def test_table_json_schema_and_agreement(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    cells = validated(out, "table")
    assert len(cells) == 81
    code, ascii_out, _ = run_cli(capsys, "table")
    rows = {line.split()[0]: line.split()[1:] for line in ascii_out.splitlines()[1:]}
    for cell in cells:
        assert rows[str(cell["d"])][cell["ell"] - 1] == cell["label"]


def test_table_csv_equals_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_rejects_degenerate_grid(capsys):
    code, out, err = run_cli(capsys, "table", "1", "1")
    assert code == 2 and out == "" and "error:" in err


# -- lemma-ineq ---------------------------------------------------------------


def test_lemma_ineq_ascii(capsys):
    code, out, err = run_cli(capsys, "lemma-ineq", "--dmax", "12", "--lmax", "6")
    assert code == 0 and err == ""
    assert "checked 50 cells" in out
    assert "gap = 0 exactly when ell divides d-1" in out


def test_lemma_ineq_json_with_gaps(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-ineq", "--dmax", "6", "--lmax", "4", "--report-gaps", "--format", "json"
    )
    assert code == 0
    payload = validated(out, "lemma_ineq")
    assert payload["ok"] is True and payload["counterexample"] is None
    assert payload["cells"] == 12 and len(payload["gaps"]) == 12
    for row in payload["gaps"]:
        assert row["gap"] == ineq_sides(row["d"], row["ell"]).gap
        assert row["divides"] == ((row["d"] - 1) % row["ell"] == 0)


def test_lemma_ineq_row_gaps_equal_ineq_sides(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-ineq", "--dmax", "60", "--lmax", "30", "--report-gaps", "--format", "json"
    )
    assert code == 0
    payload = validated(out, "lemma_ineq")
    want = [(d, ell, ineq_sides(d, ell).gap) for d in range(3, 61) for ell in range(2, 31)]
    assert [(row["d"], row["ell"], row["gap"]) for row in payload["gaps"]] == want


@pytest.mark.parametrize(
    "corrupt, first_cell",
    [
        (lambda d_min, d_max, k: ((d - 1, row) for d, row in _mu_rows(d_min + 1, d_max + 1, k)), "d=3, ell=2"),
        # mu(m^5) first enters a cell at (3, 5), as mu(m^ell)
        (lambda *a: ((d, [mu + (j == 5) for j, mu in enumerate(row)]) for d, row in _mu_rows(*a)), "d=3, ell=5"),
    ],
    ids=["wrong-dimension", "one-entry"],
)
def test_corrupted_row_breaks_lemma_ineq(capsys, monkeypatch, corrupt, first_cell):
    monkeypatch.setattr(cli, "_mu_rows", corrupt)
    code, out, err = run_cli(capsys, "lemma-ineq", "--dmax", "6", "--lmax", "5")
    assert code == 3 and out == ""
    assert err.startswith("internal invariant breach: telescoped sum ") and err.endswith(f" at {first_cell}\n")


def test_lemma_ineq_report_gaps_ascii(capsys):
    code, out, _ = run_cli(capsys, "lemma-ineq", "--dmax", "4", "--lmax", "3", "--report-gaps")
    assert code == 0
    assert "d=4 ell=2 gap=4 divides=no" in out
    assert "d=3 ell=2 gap=0 divides=yes" in out


def test_lemma_ineq_rejects_small_bounds(capsys):
    code, _, err = run_cli(capsys, "lemma-ineq", "--dmax", "2")
    assert code == 2 and "dmax" in err


# -- classify -----------------------------------------------------------------


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify", "5", "2")
    assert code == 0
    payload = validated(out, "classify")
    assert payload["label"] == "AGL"
    assert payload["evidence"]["rule"] == "divisor-local-only"
    assert payload["evidence"]["obstruction"] == {"mu_bound": 1, "e_bound": 32}


def test_classify_ascii(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "3", "--format", "ascii")
    assert code == 0
    assert "Gorenstein graded [Gor]" in out
    assert "rule: gorenstein-diagonal" in out
    code, out, _ = run_cli(capsys, "classify", "7", "2", "--format", "ascii")
    assert "almost Gorenstein local, not graded [AGL]" in out
    assert "graded obstruction" in out


@contextlib.contextmanager
def unbounded_digits():
    """Lift Python's int/str digit limit, where it exists, for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Known defect: these valid inputs exit 2 with Python's 4300-digit int-to-str
# error.  The fix (lifting the limit inside cli.main) has to land together with
# a benchmark CLI checker that can parse such output (ROADMAP.md).  Strict, so
# that the fix must remove the marks.
BIG_INTEGERS = pytest.mark.xfail(strict=True, reason="CLI stops at 4300-digit integers")


@BIG_INTEGERS
@pytest.mark.parametrize("d, ell", [(15001, 2), (20001, 10000)])
def test_classify_emits_integers_of_any_size(capsys, d, ell):
    # the obstruction bound ell^d has more than 4300 decimal digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "classify", str(d), str(ell))
    assert code == 0 and err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with unbounded_digits():
        payload = json.loads(out)
    schema = json.loads((SCHEMAS / "classify.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert (payload["d"], payload["ell"], payload["label"]) == (d, ell, "AGL")
    assert payload["evidence"]["gap"] == ineq_sides(d, ell).gap == 0
    assert payload["evidence"]["obstruction"]["e_bound"] == ell**d


@BIG_INTEGERS
def test_classify_ascii_emits_integers_of_any_size(capsys):
    code, out, err = run_cli(capsys, "classify", "15001", "2", "--format", "ascii")
    assert code == 0 and err == ""
    with unbounded_digits():
        bound = str(2**15001)
    assert out.splitlines()[-1] == f"  graded obstruction: mu(C) <= 7499 but e(C) >= {bound}"


def test_classify_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 2 and "the following arguments are required: D, ELL" in err


@pytest.mark.parametrize(
    "argv, flag",
    [(("table", "--dmax", "5"), "--dmax"), (("table", "--lmax", "4"), "--lmax"),
     (("classify", "4", "2", "--d", "4"), "--d"), (("classify", "4", "2", "--ell", "2"), "--ell")],
    ids=["table-dmax", "table-lmax", "classify-d", "classify-ell"],
)
def test_grid_and_cell_sizes_are_positional_only(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err


def test_classify_rejects_bad_domain(capsys):
    code, _, err = run_cli(capsys, "classify", "1", "4")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "1000000", "500000"), "integer bits of cell (1000000, 500000): 1999998 over the budget of 400000"),
        (("table", "100001", "10"), "integer bits of cell (100001, 10): 400004 over the budget of 400000"),
        (("lemma-ineq", "--dmax", "200001", "--lmax", "2"), "integer bits of cell (200001, 2): 400002 over the budget of 400000"),
    ],
    ids=["classify", "table", "lemma-ineq"],
)
def test_closed_form_bit_budget_exits_2_at_once(capsys, argv, message):
    # without the budget, classify 1000000 500000 spent over 20 s in math.comb, then failed on printing
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_closed_form_bit_budget_admits_a_cheap_cell_of_large_d(capsys):
    # n = 400 004 would pass the budget as 2^n, but every count of the cell is
    # C(n, k) with n - k <= 4, and ell = 2 does not divide d - 1, so no 2^d is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "400002", "2", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["label"], payload["evidence"]["gap"]) == ("X", 10666746666800000)


@pytest.mark.parametrize(
    "d, ell, label, gap",
    [(30000, 29999, "Gor", 0), (400001, 1, "AG", None)],
    ids=["gorenstein-diagonal", "parameter-ideal"],
)
def test_closed_form_bit_budget_admits_divisor_cells_that_build_no_bound(capsys, d, ell, label, gap):
    # ell | d-1, but ell = d-1 and ell = 1 build no ell^d; the largest integers
    # of these cells have 59 990 and 20 bits, far below d * bits of ell
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", str(d), str(ell))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    payload = validated(out, "classify")
    assert (payload["d"], payload["ell"], payload["label"]) == (d, ell, label)
    assert "obstruction" not in payload["evidence"] and payload["evidence"].get("gap") == gap


# -- good-check ---------------------------------------------------------------


def test_good_check_json_schema(capsys, tmp_path):
    I = write_ideal(tmp_path, "I.ideal", (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    Q = write_ideal(tmp_path, "Q.ideal", (2, 0, 0), (0, 2, 0), (0, 0, 2))
    code, out, _ = run_cli(capsys, "good-check", "--ideal", I, "--reduction", Q)
    assert code == 0
    payload = validated(out, "good_report")
    assert payload["dim"] == 3
    assert payload["stable"] and payload["colon_closed"] and payload["good"]
    assert payload["witness"] is None
    assert sorted(payload["colon"]) == sorted(g.as_list() for g in maximal_power(3, 2).gens)


def test_good_check_failure_is_data_not_error(capsys, tmp_path):
    I = write_ideal(tmp_path, "I.ideal", (3, 0), (2, 1), (1, 2), (0, 3))
    Q = write_ideal(tmp_path, "Q.ideal", (3, 0), (0, 3))
    code, out, _ = run_cli(capsys, "good-check", "--ideal", I, "--reduction", Q)
    assert code == 0
    payload = validated(out, "good_report")
    assert payload["stable"] is True and payload["good"] is False
    assert payload["witness"] is not None


def test_good_check_ascii(capsys, tmp_path):
    I = write_ideal(tmp_path, "I.ideal", (2, 0), (1, 1), (0, 2))
    Q = write_ideal(tmp_path, "Q.ideal", (2, 0), (0, 2))
    code, out, _ = run_cli(capsys, "good-check", "--ideal", I, "--reduction", Q, "--format", "ascii")
    assert code == 0
    assert "stable (I^2 = QI): true" in out
    assert "colon closed (Q:I = I): false" in out
    assert "witness:" in out


def test_good_check_missing_file(capsys, tmp_path):
    Q = write_ideal(tmp_path, "Q.ideal", (2, 0), (0, 2))
    code, _, err = run_cli(capsys, "good-check", "--ideal", str(tmp_path / "absent"), "--reduction", Q)
    assert code == 2 and "error:" in err


def test_good_check_dimension_mismatch(capsys, tmp_path):
    I = write_ideal(tmp_path, "I.ideal", (2, 0), (0, 2))
    Q = write_ideal(tmp_path, "Q.ideal", (2, 0, 0), (0, 2, 0), (0, 0, 2))
    code, _, err = run_cli(capsys, "good-check", "--ideal", I, "--reduction", Q)
    assert code == 2 and "expected 2 exponents" in err


def test_good_check_malformed_exponent_names_line(capsys, tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("2 0\n1 x\n")
    Q = write_ideal(tmp_path, "Q.ideal", (2, 0), (0, 2))
    code, _, err = run_cli(capsys, "good-check", "--ideal", str(path), "--reduction", Q)
    assert code == 2
    assert f"{path}:2: not an integer exponent: 'x'" in err


# -- certificate --------------------------------------------------------------


def test_certificate_json_schema(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--ell", "3", "--nmax", "6")
    assert code == 0
    payload = validated(out, "certificate")
    assert payload["ell"] == 3 and payload["containment"] is True
    assert payload["degrees_checked"] == 6
    assert payload["identities"] == {"A": True, "B": True}
    assert payload["f"] == "x" and payload["g"] == "x^3" and payload["h"] == "y^2"


def test_certificate_ascii(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--ell", "2", "--format", "ascii")
    assert code == 0
    assert "identity A (mJ = fJ + mh): true" in out
    assert "identity B (IJ = gJ + Ih): true" in out


def test_certificate_rejects_parameter_case_and_wrong_dim(capsys):
    code, _, err = run_cli(capsys, "certificate", "--ell", "1")
    assert code == 2 and "parameter ideal" in err
    # certificate takes no --dim: d = 2 is its only case
    code, _, err = run_cli(capsys, "certificate", "--ell", "3", "--dim", "3")
    assert code == 2 and "unrecognized arguments: --dim 3" in err


# -- veronese -----------------------------------------------------------------


def test_veronese_json_schema(capsys):
    code, out, _ = run_cli(capsys, "veronese", "--r", "3", "--ell", "2")
    assert code == 0
    payload = validated(out, "veronese")
    assert payload["claim"] is True
    assert payload["precondition_display_form"] is False  # data, not a failure
    assert payload["x"] == [1, 2]


def test_veronese_display_form_true_at_two(capsys):
    code, out, _ = run_cli(capsys, "veronese", "--r", "2")
    assert code == 0
    assert validated(out, "veronese")["precondition_display_form"] is True


def test_veronese_ascii(capsys):
    code, out, _ = run_cli(capsys, "veronese", "--r", "4", "--format", "ascii")
    assert code == 0
    assert "minimal multiplicity (m^2 = ym + zm): true" in out
    assert "variant mK = y(mK) + xm: false" in out


def test_veronese_rejects_degenerate_degree(capsys):
    code, _, err = run_cli(capsys, "veronese", "--r", "1")
    assert code == 2 and "regular ambient" in err


# -- colon --------------------------------------------------------------------


def test_colon_ascii_round_trip(capsys, tmp_path):
    lhs = write_ideal(tmp_path, "lhs.ideal", (3, 0), (0, 3))
    rhs = write_ideal(tmp_path, "rhs.ideal", (1, 0), (0, 1))
    code, out, _ = run_cli(capsys, "colon", lhs, rhs)
    assert code == 0
    assert out.startswith("#")
    assert parse_ideal(out) == parse_ideal("3 0\n2 2\n0 3\n")


def test_colon_json_schema(capsys, tmp_path):
    lhs = write_ideal(tmp_path, "lhs.ideal", (2, 0), (0, 2))
    rhs = write_ideal(tmp_path, "rhs.ideal", (1, 0), (0, 1))
    code, out, _ = run_cli(capsys, "colon", lhs, rhs, "--format", "json")
    assert code == 0
    payload = validated(out, "colon")
    assert payload["dim"] == 2
    assert sorted(payload["gens"]) == [[0, 2], [1, 1], [2, 0]]


def test_colon_by_zero_rejected(capsys, tmp_path):
    lhs = write_ideal(tmp_path, "lhs.ideal", (2, 0), (0, 2))
    rhs = tmp_path / "zero.ideal"
    rhs.write_text("# zero ideal\n")
    code, _, err = run_cli(capsys, "colon", lhs, str(rhs))
    assert code == 2 and "error:" in err


# -- selfcheck ----------------------------------------------------------------


def test_selfcheck_ascii(capsys):
    code, out, err = run_cli(capsys, "selfcheck", "--trials", "40", "--seed", "7")
    assert code == 0 and err == ""
    assert "agrees with brute force on 40 seeded trials (seed 7)" in out


def test_selfcheck_json_schema(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--trials", "25", "--format", "json")
    assert code == 0
    payload = validated(out, "selfcheck")
    assert payload == {"seed": 0, "trials": 25, "ok": True, "counterexample": None}


def test_selfcheck_rejects_zero_trials(capsys):
    code, _, err = run_cli(capsys, "selfcheck", "--trials", "0")
    assert code == 2 and "trials" in err


# -- top level ----------------------------------------------------------------


def test_unknown_verb_exits_two(capsys):
    assert main(["no-such-verb"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in ("table", "lemma-ineq", "classify", "good-check", "certificate", "veronese", "colon", "selfcheck"):
        assert verb in out
