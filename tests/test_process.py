"""The CLI as a process: what it imports, and its exit codes under `python -O`.

Each test starts a fresh interpreter on the package in src/, because
sys.modules of the test process already holds numpy, and because -O is a
flag of the interpreter.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_numpy_stays_off_the_closed_form_path():
    proc = run_python(
        """
        import contextlib, io, sys
        import reesag
        print("import", "numpy" in sys.modules)
        from reesag.cli import main
        for argv in (["table", "10", "9"], ["lemma-ineq"], ["classify", "7", "3"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], code, "numpy" in sys.modules)
        reesag.maximal_power(2, 2).colength()
        print("colength", "numpy" in sys.modules)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import False",
        "table 0 False",
        "lemma-ineq 0 False",
        "classify 0 False",
        "colength True",
    ]


def test_invariant_breach_exits_3_under_optimize():
    # a telescoped gap off by one must be caught even though -O strips asserts
    proc = run_python(
        """
        import sys
        import reesag.cli as cli
        from reesag.binomials import ineq_gap_telescoped
        if not sys.flags.optimize:
            sys.exit("this check needs python -O")
        cli.ineq_gap_telescoped = lambda d, ell: ineq_gap_telescoped(d, ell) + 1
        sys.exit(cli.main(["lemma-ineq", "--dmax", "5", "--lmax", "3"]))
        """,
        "-O",
    )
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == ""
    assert "internal invariant breach: telescoped sum 1 != direct gap 0 at d=3, ell=2" in proc.stderr


def test_numpy_stays_off_small_cli_colons(tmp_path):
    # the largest files the benchmark's CLI probe writes: good-check on 4
    # random generators plus pure powers against those powers, colon on 4 by 4
    files = {
        "good_I": ["4 0 0", "0 3 0", "0 0 4", "1 1 1", "2 0 1", "0 2 1", "1 2 0"],
        "good_Q": ["4 0 0", "0 3 0", "0 0 4"],
        "colon_L": ["3 1 0", "0 2 2", "1 0 3", "2 2 0"],
        "colon_R": ["1 1 0", "0 1 1", "2 0 0", "0 0 1"],
    }
    for name, lines in files.items():
        (tmp_path / f"{name}.txt").write_text("\n".join(lines) + "\n")
    proc = run_python(
        f"""
        import contextlib, io, sys
        from reesag.cli import main
        d = {str(tmp_path)!r}
        for argv in (["good-check", "--ideal", f"{{d}}/good_I.txt", "--reduction", f"{{d}}/good_Q.txt"],
                     ["colon", f"{{d}}/colon_L.txt", f"{{d}}/colon_R.txt", "--format", "json"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], code, "numpy" in sys.modules)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["good-check 0 False", "colon 0 False"]


def test_numpy_stays_off_the_small_product_verbs(tmp_path):
    # a product never imports numpy (certificate --ell 21 forms 106 x 21
    # pairs and its colon, 2 x 22, stays below the table threshold; veronese
    # --r 60 multiplies modules of up to 62 generators)
    code = """
        import contextlib, io, sys
        from reesag.cli import main
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], argv[2], code, "numpy" in sys.modules)
        """
    small = [["certificate", "--ell", "5"], ["veronese", "--r", "3"],
             ["selfcheck", "--seed", "7", "--trials", "20", "--format", "json"], ["veronese", "--r", "60"],
             ["certificate", "--ell", "21"]]
    # the control: good-check of m^9 in dim 3 against (x^9, y^9, z^9) squares
    # m^9, 55 x 55 pairs, in Python, and its colon, 3 x 55 pairs, loads numpy
    # for the drop table
    (tmp_path / "I.txt").write_text("".join(f"{a} {b} {9 - a - b}\n" for a in range(10) for b in range(10 - a)))
    (tmp_path / "Q.txt").write_text("9 0 0\n0 9 0\n0 0 9\n")
    control = [["good-check", "--dim", "3", "--ideal", str(tmp_path / "I.txt"), "--reduction", str(tmp_path / "Q.txt")]]
    outputs = [run_python(code.replace("ARGVS", repr(argvs))) for argvs in (small, control)]
    for proc in outputs:
        assert proc.returncode == 0, proc.stderr
    assert [proc.stdout.splitlines() for proc in outputs] == [
        ["certificate 5 0 False", "veronese 3 0 False", "selfcheck 7 0 False", "veronese 60 0 False",
         "certificate 21 0 False"],
        ["good-check 3 0 True"],
    ]


def test_a_cold_product_of_millions_of_pairs_stays_off_numpy():
    # m^22 * m^16 in dim 4: 2 300 x 969 = 2 228 700 pairs, packed and summed in Python
    proc = run_python(
        """
        import sys
        from reesag.monomials import maximal_power as p
        print(p(4, 22) * p(4, 16) == p(4, 38), "numpy" in sys.modules)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True False"]


def test_row_breach_exits_3_under_optimize():
    # a table row built for the wrong dimension must be caught by its checked cell even under -O
    proc = run_python(
        """
        import importlib, sys
        import reesag.cli as cli
        from reesag.binomials import _mu_rows
        if not sys.flags.optimize:
            sys.exit("this check needs python -O")
        importlib.import_module("reesag.classify")._mu_rows = (
            lambda d_min, d_max, k: ((d - 1, row) for d, row in _mu_rows(d_min + 1, d_max + 1, k))
        )
        sys.exit(cli.main(["table", "10", "9"]))
        """,
        "-O",
    )
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == ""
    assert "internal invariant breach: table row disagrees with classify at d=2, ell=9" in proc.stderr


def test_multiplicity_kernel_loads_on_first_call_and_checks_under_optimize():
    # the Newton kernel stays out of `import reesag`, needs no numpy, and its
    # two invariants are checks that -O keeps: a zero simplex determinant and
    # a result above the product of the pure powers
    proc = run_python(
        """
        import sys
        import reesag
        from reesag.errors import InvariantBreach
        if not sys.flags.optimize:
            sys.exit("this check needs python -O")
        print("import", "reesag._newton" in sys.modules)
        m2 = reesag.maximal_power(3, 2)
        print(m2.multiplicity(), "reesag._newton" in sys.modules, "numpy" in sys.modules)
        from reesag import _newton
        for fake in (0, 9):
            _newton._det = lambda rows: fake
            try:
                m2.multiplicity()
            except InvariantBreach as exc:
                print(str(exc).split(" (")[0])
        """,
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import False",
        "8 True False",
        "degenerate simplex",
        "multiplicity 9 outside [1, 8] for pure powers [2, 2, 2]",
    ]


def test_rule_fact_breaches_exit_3_under_optimize():
    # each rule's fact, corrupted in one cell, must be caught by classify and
    # by table even though -O strips asserts
    proc = run_python(
        """
        import contextlib, importlib, io, sys
        import reesag.cli as cli
        from reesag import binomials
        if not sys.flags.optimize:
            sys.exit("this check needs python -O")
        cell = binomials._cell
        for d, ell, index, value in ((7, 4, 5, 0), (7, 3, 5, 1), (5, 4, 6, 2)):
            def corrupted(d_, ell_, row=None, d=d, ell=ell, index=index, value=value):
                out = list(cell(d_, ell_, row))
                if (d_, ell_) == (d, ell):
                    out[index] = value
                return tuple(out)
            binomials._cell = importlib.import_module("reesag.classify")._cell = corrupted
            for argv in (["classify", str(d), str(ell)], ["table", str(d), str(ell)]):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = cli.main(argv)
                print(argv[0], code, repr(out.getvalue()))
        """,
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{verb} 3 ''" for _ in range(3) for verb in ("classify", "table")]
    assert proc.stderr.splitlines() == [
        f"internal invariant breach: {message}"
        for message in ("gap-positive needs gap > 0, got 0 at d=7, ell=4",
                        "divisor-local-only needs gap = 0, got 1 at d=7, ell=3",
                        "gorenstein-diagonal needs mu_K = 1, got 2 at d=5, ell=4")
        for _ in range(2)
    ]
