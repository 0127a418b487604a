"""Reach audit: which functions of src/reesag no verb, demo or workload calls.

Runs, in one process and under sys.settrace, the program's entry points:

* every CLI verb in each of its formats, through reesag.cli.main;
* the demos under demos/;
* one batch each of the closed_form, engine_bulk and engine_small workloads
  of perfbench/workloads.py;
* perfbench/tracer.py's census(), which calls each benchmarked function once.

perfbench is imported, never changed.  The audit lists every function of
src/reesag (each def and lambda) that none of them calls, and exits 1 if one
is not in KEEP below, or if a KEEP entry names a function that is gone or
that a verb, demo or workload reaches.  A function that only the census
reaches counts as unreached: the census exists to define every benchmark
metric, not to serve a user.  The statements that never ran, in functions
that did, are printed for information only.

Run from anywhere, stdlib only:  python tools/reach.py
It audits the checkout it sits in: src/ and perfbench/ go first on sys.path.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reesag"

# functions that no verb, demo or workload reaches, and why each stays
KEEP = {
    "_newton._lower_hull_walk": "only the census reaches it, through a dim-2 multiplicity; it is the one path for "
    "dim-2 ideals past the facet budget (test_dim2_multiplicity_needs_no_facet_budget)",
    "monomials.MonomialIdeal.__setattr__": "value semantics: an ideal is immutable",
    "monomials.MonomialIdeal.__hash__": "value semantics: equal ideals hash equal, as __eq__ requires",
    "monomials.IdealFileError.__init__": "an error path: it names the file and line of a malformed ideal file",
    "cli.run": "the console script; it runs only in a subprocess",
}

# statements that never run in a reached function, by (function, start of the statement), and why they stay
KEEP_STATEMENTS = {
    ("monomials._sumset", "return None"): "the budget fallback: sums spanning more bits than pairs go pair by pair",
    ("monomials._table_colon", "return None"): "the budget fallback: a box past the cell budget takes the "
    "pairwise colon",
    ("monomials.MonomialIdeal.colength", "except OverflowError"): "the exactness fallback: an exponent past "
    "int64 takes the tuple scan",
}

SEED = 1


def _ideal_file(path: Path, gens) -> str:
    path.write_text("".join(" ".join(map(str, g)) + "\n" for g in gens))
    return str(path)


def cli_verbs(workdir: Path) -> list[list[str]]:
    """Every verb in each format it offers, on small inputs."""
    good_i = _ideal_file(workdir / "good_I.txt", [(2, 1, 0), (0, 2, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    good_q = _ideal_file(workdir / "good_Q.txt", [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    left = _ideal_file(workdir / "colon_L.txt", [(4, 1), (2, 3), (0, 5)])
    right = _ideal_file(workdir / "colon_R.txt", [(1, 0), (0, 2)])
    argvs = [["table", "10", "9", "--format", fmt] for fmt in ("ascii", "json", "csv")]
    argvs += [["lemma-ineq", "--format", fmt] for fmt in ("ascii", "json")]
    argvs += [["lemma-ineq", "--dmax", "12", "--lmax", "5", "--report-gaps", "--format", fmt]
              for fmt in ("ascii", "json")]
    for fmt in ("ascii", "json"):
        argvs += [["classify", str(d), str(ell), "--format", fmt] for d, ell in ((7, 2), (7, 4), (7, 6), (2, 3), (5, 1))]
        argvs += [
            ["good-check", "--ideal", good_i, "--reduction", good_q, "--format", fmt],
            ["certificate", "--ell", "4", "--nmax", "6", "--format", fmt],
            ["veronese", "--r", "3", "--ell", "2", "--format", fmt],
            ["colon", left, right, "--format", fmt],
            ["selfcheck", "--seed", str(SEED), "--trials", "50", "--format", fmt],
        ]
    return argvs


def run_cli(workdir: Path) -> None:
    from reesag.cli import main

    for argv in cli_verbs(workdir):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"reach: reesag {' '.join(argv)} exited {code}")


def run_demos(workdir: Path) -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def run_workload(name: str):
    def run(workdir: Path) -> None:
        import workloads

        for task in workloads.BUILDERS[name](SEED, workdir):
            task.run()

    return run


def run_census(workdir: Path) -> None:
    import tracer

    tracer.census()


ENTRY_POINTS = {
    "cli": run_cli,
    "demos": run_demos,
    "closed_form": run_workload("closed_form"),
    "engine_bulk": run_workload("engine_bulk"),
    "engine_small": run_workload("engine_small"),
    "census": run_census,
}


# -- the functions and statements of src/reesag ----------------------------------


def functions() -> dict[tuple[str, int, str], tuple[str, ast.AST]]:
    """(file, first line, code name) -> (qualified name, node), for each def and lambda.

    The first line is the one the code object reports: a decorated function's
    first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                    name = child.name if not isinstance(child, ast.Lambda) else "<lambda>"
                    first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                    found[(str(path), first, name)] = (f"{prefix}.{name}", child)
                    visit(child, f"{prefix}.{name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), module)
    return found


def statements(node: ast.AST) -> list[tuple[ast.stmt, range]]:
    """The statements of one function body, nested ones included but not those of
    nested functions, each with the lines that can report it: a simple statement's
    own lines, a compound statement's header up to its first body statement.
    Docstrings run no code and are left out."""
    out = []
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, ast.FunctionDef):
            out.append((stmt, range(stmt.lineno, stmt.lineno + 1)))
            continue
        inner = [s for field in ("body", "orelse", "finalbody", "handlers") for s in getattr(stmt, field, ())]
        end = min((s.lineno for s in inner), default=stmt.end_lineno + 1)
        out.append((stmt, range(stmt.lineno, max(end, stmt.lineno + 1))))
        stack.extend(reversed(inner))
    return out


# -- tracing ---------------------------------------------------------------------


def trace(entry_points) -> tuple[dict, set, dict]:
    """Run each entry point under sys.settrace; return the calls of src/reesag
    code, as (file, first line, code name) -> entry points, its line events and
    each entry point's wall time."""
    prefix = str(SRC) + "/"
    calls: dict[tuple[str, int, str], set[str]] = defaultdict(set)
    lines: set[tuple[str, int]] = set()
    group = ""

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        calls[(code.co_filename, code.co_firstlineno, code.co_name)].add(group)
        lines.add((code.co_filename, frame.f_lineno))
        return on_line

    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group, run in entry_points.items():
            start = time.perf_counter()
            sys.settrace(on_call)
            try:
                run(Path(tmp))
            finally:
                sys.settrace(None)
            seconds[group] = time.perf_counter() - start
    return calls, lines, seconds


def main() -> int:
    sys.dont_write_bytecode = True  # perfbench/ is read, and left as it is
    for path in (ROOT / "perfbench", ROOT / "src"):
        sys.path.insert(0, str(path))
    import reesag

    if Path(reesag.__file__).resolve().parent != SRC:
        raise SystemExit(f"reach: imported reesag from {reesag.__file__}, not from {SRC}")
    calls, lines, seconds = trace(ENTRY_POINTS)
    found = functions()
    names = {qual for qual, _ in found.values()}

    idle = {}  # qualified name -> why it counts as unreached
    for key, (qual, _) in found.items():
        groups = calls.get(key, set())
        if groups <= {"census"}:
            idle[qual] = "census only" if groups else "unreached"

    print("reach: " + ", ".join(f"{g} {s:.2f} s" for g, s in seconds.items()))
    print(f"reach: {len(found)} functions in src/reesag, {len(found) - len(idle)} reached by a verb, demo or workload")
    for qual, where in sorted(idle.items()):
        print(f"  {where}: {qual}" + (f"  (kept: {KEEP[qual]})" if qual in KEEP else "  NOT KEPT"))

    print("reach: statements that never ran in a reached function (information only)")
    for (path, _, _), (qual, node) in sorted(found.items()):
        if qual in idle or isinstance(node, ast.Lambda):
            continue
        missed = [s for s, span in statements(node) if not any((path, n) in lines for n in span)]
        source = Path(path).read_text()
        for stmt in missed:
            if any(o is not stmt and o.lineno <= stmt.lineno <= o.end_lineno for o in missed):
                continue  # inside a statement that never ran, which is printed
            text = ast.get_source_segment(source, stmt).splitlines()[0].strip()
            reasons = [why for (fn, start), why in KEEP_STATEMENTS.items() if fn == qual and text.startswith(start)]
            note = f"  (kept: {reasons[0]})" if reasons else ""
            print(f"  {Path(path).name}:{stmt.lineno} {qual}: {text}{note}")

    errors = [f"{qual} is reached by no verb, demo or workload and is not in KEEP" for qual in idle if qual not in KEEP]
    errors += [f"KEEP names {qual}, which is not a function of src/reesag" for qual in KEEP if qual not in names]
    errors += [f"KEEP names {qual}, which a verb, demo or workload reaches: drop the entry"
               for qual in KEEP if qual in names and qual not in idle]
    errors += [f"KEEP_STATEMENTS names {qual}, which is not a function of src/reesag"
               for qual, _ in KEEP_STATEMENTS if qual not in names]
    for error in errors:
        print(f"FAIL: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
