"""The four workloads: seeded inputs, the tasks run on them, and their checks.

Building a workload is the benchmark's set-up: it imports reesag and turns
the seed into inputs.  Each task pairs a call into the program with an
independent reference (see reference.py) and a comparison; the worker
computes every reference after set-up and before the first timed batch.  A
task that documents a known defect carries the exact mismatch the defect
produces today, so the defect is counted as a failure on every run without
marking the run as a regression.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from pathlib import Path
from statistics import median
from typing import Callable

import reesag

import reference as ref

# each layer by its module, so that the benchmark does not depend on which
# names the package itself re-exports
binomials, canonical, classify, goodideals, certificates, monomials, veronese = (
    import_module(f"reesag.{layer}")
    for layer in ("binomials", "canonical", "classify", "goodideals", "certificates", "monomials", "veronese"))
Monomial, MonomialIdeal = monomials.Monomial, monomials.MonomialIdeal

_UNSET = object()


@dataclass
class Task:
    """One call into the program and how to judge its output."""

    name: str
    run: Callable[[], object]
    reference: Callable[[], object]
    compare: Callable[[object, object], str | None]  # None when output matches
    known: str | None = None  # the mismatch a known defect produces today
    _ref: object = field(default=_UNSET, init=False, repr=False)

    def prepare(self) -> None:
        if self._ref is _UNSET:
            self._ref = self.reference()

    def check(self, out: object) -> str | None:
        self.prepare()
        return self.compare(out, self._ref)


def ideal(gens) -> MonomialIdeal:
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), (Monomial(g) for g in gens))


def gens_of(result: MonomialIdeal) -> list[tuple[int, ...]]:
    return sorted(g.exponents for g in result.gens)


def _same(what: str, got, want) -> str | None:
    return None if got == want else f"{what} {_short(got)} != {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _const(value):
    return lambda: value


def _late(owner, name: str, *args):
    """owner.name(*args), looked up at call time so that the traced run sees its wrappers."""
    return getattr(owner, name)(*args)


# -- closed_form ---------------------------------------------------------------
#
# An eighth of the cells of the 200 x 100 grid, those with d + ell divisible
# by 8 (so every d and every ell occurs, in every residue class), each run
# the four closed-form entry points; one more task builds the table over the
# whole grid.  An eighth keeps the batch short enough that a run repeats every
# cell dozens of times.  The seed only orders the cells, so every seed does
# the same arithmetic.

D_RANGE = range(3, 203)
ELL_RANGE = range(2, 102)
CELL_STRIDE = 8


def _cell(d: int, ell: int):
    return (
        classify.classify(d, ell),
        binomials.ineq_sides(d, ell),
        binomials.ineq_gap_telescoped(d, ell),
        canonical.ladder_report(d, ell),
    )


def _compare_cell(out, want, d: int, ell: int) -> str | None:
    (label, evidence), sides, telescoped, report = out
    gap = sides.gap
    return (
        _same(f"({d},{ell}) label", label.symbol, want)
        or _same(f"({d},{ell}) b", (evidence.b, report["b"]), ((d - 2) // ell,) * 2)
        or _same(f"({d},{ell}) gap >= 0", gap >= 0, True)
        or _same(f"({d},{ell}) gap == 0", gap == 0, (d - 1) % ell == 0)
        or _same(f"({d},{ell}) telescoped gap", telescoped, gap)
        or _same(f"({d},{ell}) reported gaps", (evidence.gap, report["gap"]), (gap, gap))
    )


def _compare_table(grid, golden) -> str | None:
    want = {(d, ell): ref.label(d, ell) for d in range(2, D_RANGE.stop) for ell in range(1, ELL_RANGE.stop)}
    got = {key: label.symbol for key, (label, _) in grid.items()}
    corner = {key: got.get(key) for key in golden}
    return _same("golden 10x9 corner", corner, golden) or _same("table labels", got, want)


def closed_form(seed: int, workdir: Path) -> list[Task]:
    tasks = [
        Task(f"cell({d},{ell})", partial(_cell, d, ell), partial(ref.label, d, ell),
             partial(_compare_cell, d=d, ell=ell))
        for d in D_RANGE
        for ell in ELL_RANGE
        if (d + ell) % CELL_STRIDE == 0
    ]
    tasks.append(Task("table", partial(_late, classify, "table", D_RANGE.stop - 1, ELL_RANGE.stop - 1),
                      ref.golden_labels, _compare_table))
    random.Random(seed).shuffle(tasks)
    return tasks


# -- engine_bulk ---------------------------------------------------------------
#
# A few large ideals (up to thousands of generators), in a fixed order so
# that peak RSS does not depend on which large result is still held when the
# next task runs.  No call takes much over a quarter of a second, so that a
# run repeats each one often enough to catch it at the machine's fast speed.
# The seed permutes the variables of the two ROADMAP item-2 ideals, whose true
# multiplicities (125 and 50, confirmed by a late-window finite difference at
# n = 4, 8, 12) the finite-difference method misses today.

ITEM2_IDEALS = (
    ("multiplicity (x^5,y^5,z^5,x^2yz^3)", [(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 3)], 125, 124),
    ("multiplicity (x^5,y^5,z^2,x^2y^3)", [(5, 0, 0), (0, 5, 0), (0, 0, 2), (2, 3, 0)], 50, 48),
)


def _certificate(ell: int, n_max: int):
    cert = certificates.build_certificate_2dim(ell)
    return cert, certificates.verify_claim_containment(cert, n_max)


def _compare_certificate(out, want) -> str | None:
    cert, containment = out
    return _same("certificate (A, B, containment, J)",
                 (cert.identity_a, cert.identity_b, containment, gens_of(cert.J)), want)


def _veronese_expected(r: int) -> dict:
    # the claims of the paper; the display-form variant holds only at r = 2
    keys = ("minimal_multiplicity", "claim", "precondition_proof_form", "identity_one",
            "identity_two", "x_outside_mK", "h_inside_m_ell_K")
    return {**dict.fromkeys(keys, True), "precondition_display_form": r == 2}


def _compare_veronese(out, want) -> str | None:
    return _same("veronese checks", {k: out[k] for k in want}, want)


def _compare_good(report, want) -> str | None:
    got = {"stable": report.stable, "colon_closed": report.colon_closed, "good": report.good,
           "colon": gens_of(report.colon_result)}
    return _same("good_report", got, want)


def _compare_gens(out, want) -> str | None:
    return _same("generators", gens_of(out), want)


def engine_bulk(seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(seed)
    m2_d5, m4_d5, m12_d5, m20_d5 = (monomials.maximal_power(5, k) for k in (2, 4, 12, 20))
    m5_d4 = monomials.maximal_power(4, 5)
    pure5_d4 = [tuple(5 if i == k else 0 for i in range(4)) for k in range(4)]
    q5_d4 = ideal(pure5_d4)
    same = partial(_same, "value")
    tasks = [
        Task("multiplicity m^2 d=5", partial(_late, m2_d5, "multiplicity"), _const(2**5), same),
        Task("product m^12 * m^4 d=5", partial(_late, m12_d5, "__mul__", m4_d5),
             lambda: sorted(ref.of_degree(5, 16)), _compare_gens),
        Task("colength m^20 d=5", partial(_late, m20_d5, "colength"), partial(ref.count_below, 5, 20), same),
        Task("good_report m^5 d=4 vs pure 5th powers", partial(_late, goodideals, "good_report", m5_d4, q5_d4),
             lambda: ref.good(ref.of_degree(4, 5), pure5_d4), _compare_good),
        Task("certificate ell=16 through degree 12", partial(_certificate, 16, 12),
             lambda: (True, True, True, sorted(ref.of_degree(2, 15))), _compare_certificate),
        Task("veronese_report r=120 ell=1", partial(_late, veronese, "veronese_report", 120, 1),
             partial(_veronese_expected, 120), _compare_veronese),
    ]
    for name, gens, true_value, returned_today in ITEM2_IDEALS:
        order = rng.sample(range(3), 3)
        permuted = ideal([tuple(g[i] for i in order) for g in gens])
        tasks.append(Task(name, partial(_late, permuted, "multiplicity"), _const(true_value), same,
                          known=same(returned_today, true_value)))
    return tasks


# -- engine_small --------------------------------------------------------------
#
# Thousands of tiny random ideals (dim 1-4, 1 to 6 generators of degree 1 to
# 6), so per-call overhead dominates: Monomial construction, antichain set-up
# and the numpy box of tiny colengths.  The ideals are one fixed random family;
# the seed permutes the variables of each task and orders the tasks.  A task
# costs about the same under any permutation of its variables, so every seed
# asks for the same work.  A new family per seed moved the p90 latency between
# seeds by more than the machine's own noise: the slowest tenth of 2 736 tiny
# tasks is a sparse tail.

SMALL_MIX = (("colon", 720), ("product", 576), ("intersection", 576), ("colength", 576), ("good_report", 288))
SMALL_FAMILY_SEED = 1607


def _random_gens(rng: random.Random, dim: int, count: int, max_degree: int = 6):
    gens = []
    for _ in range(count):
        exps = [0] * dim
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(dim)] += 1
        gens.append(tuple(exps))
    return gens


def _pure_powers(rng: random.Random, dim: int, max_degree: int = 6):
    return [tuple(rng.randint(1, max_degree) if i == k else 0 for i in range(dim)) for k in range(dim)]


def _small_task(kind: str, index: int, family: random.Random, rng: random.Random) -> Task:
    # dimension and generator count cycle through every combination
    dim, count = 1 + index % 4, 1 + index // 4 % 6
    order = rng.sample(range(dim), dim)

    def draw(gens):
        return [tuple(g[i] for i in order) for g in gens]

    a = draw(_random_gens(family, dim, count))
    name = f"{kind}#{index} dim={dim}"
    if kind == "colength":
        a = a + draw(_pure_powers(family, dim))
        return Task(name, partial(_late, ideal(a), "colength"), partial(ref.colength, a), partial(_same, "colength"))
    if kind == "good_report":
        q = draw(_pure_powers(family, dim))
        a = a + q
        return Task(name, partial(_late, goodideals, "good_report", ideal(a), ideal(q)), partial(ref.good, a, q),
                    _compare_good)
    b = draw(_random_gens(family, dim, 1 + index // 24 % 6))
    method, oracle = {
        "colon": ("colon", ref.colon),
        "product": ("__mul__", ref.product),
        "intersection": ("intersection", ref.intersection),
    }[kind]
    return Task(name, partial(_late, ideal(a), method, ideal(b)), partial(oracle, a, b), _compare_gens)


def engine_small(seed: int, workdir: Path) -> list[Task]:
    family, rng = random.Random(SMALL_FAMILY_SEED), random.Random(seed)
    tasks = [_small_task(kind, i, family, rng) for kind, count in SMALL_MIX for i in range(count)]
    rng.shuffle(tasks)
    return tasks


# -- cli -----------------------------------------------------------------------
#
# One CLI child at a time, every verb once per batch, on small inputs.  The
# seed picks the classify pair, the ideal files and the selfcheck seed.

def cli_env() -> dict[str, str]:
    src = str(Path(reesag.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def invoke(argv: list[str], env: dict, cwd: Path, importtime: bool = False) -> Outcome:
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, "-m", "reesag.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return Outcome(proc.returncode, proc.stdout, proc.stderr)


_IMPORT_ROW = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of each top-level package in -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORT_ROW.match(line)
        if match and match.group(3) in ("reesag", "numpy"):
            out[match.group(3)] = int(match.group(2)) / 1000
    return out


def _write_ideal(path: Path, gens) -> str:
    path.write_text("".join(" ".join(map(str, g)) + "\n" for g in gens), encoding="utf-8")
    return str(path)


def _validator(schema_name: str):
    import jsonschema

    return jsonschema.Draft202012Validator(ref.schema(schema_name))


def _compare_cli(out: Outcome, reference, what: str, extract: Callable) -> str | None:
    """Exit 0, then schema-valid JSON on stdout if the verb has a schema, then the value."""
    validator, want = reference
    if out.code != 0:
        return f"exit {out.code} != 0"
    if validator is None:
        return _same(what, extract(out.stdout), want)
    try:
        payload = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        return f"{what}: stdout is not JSON: {exc}"
    errors = sorted(validator.iter_errors(payload), key=str)
    if errors:
        return f"{what}: schema: {errors[0].message}"
    return _same(what, extract(payload), want)


def _ascii_table_labels(text: str) -> dict:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    ells = [int(e) for e in rows[0][1:]]
    return {(int(row[0]), ell): symbol for row in rows[1:] for ell, symbol in zip(ells, row[1:])}


def _classify_entry(d: int, ell: int):
    return (["classify", str(d), str(ell)], "classify", _const((d, ell, ref.label(d, ell), (d - 2) // ell)),
            lambda p: (p["d"], p["ell"], p["label"], p["evidence"]["b"]))


def _certificate_entry(ell: int):
    h = "y" if ell == 2 else f"y^{ell - 1}"
    want = ("x", f"x^{ell}", h, sorted(ref.of_degree(2, ell - 1)), {"A": True, "B": True}, True)
    return (["certificate", "--ell", str(ell)], "certificate", _const(want),
            lambda p: (p["f"], p["g"], p["h"], sorted(map(tuple, p["J"])), p["identities"], p["containment"]))


LEMMA_LINE = "checked 252 cells (d <= 30, ell <= 10): gap >= 0 everywhere and gap = 0 exactly when ell divides d-1\n"
VERONESE_KEYS = tuple(_veronese_expected(3))

# the mismatch each known defect produces today: 15001 is valid input, but its
# 4300-digit evidence trips Python's int-to-str limit and the CLI exits 2
KNOWN_CLI = {("classify", "15001", "2"): "exit 2 != 0"}


def cli_entries(seed: int, workdir: Path) -> list[tuple]:
    """The batch of CLI invocations: (argv, schema name or None, expected, extract)."""
    rng = random.Random(seed)
    d, ell = rng.randint(3, 60), rng.randint(2, 20)
    dim = rng.randint(2, 3)
    q = _pure_powers(rng, dim, 4)
    i_gens = _random_gens(rng, dim, rng.randint(1, 4), 4) + q
    dim = rng.randint(2, 3)
    lhs, rhs = (_random_gens(rng, dim, rng.randint(1, 4), 4) for _ in range(2))
    paths = {name: _write_ideal(workdir / f"{name}.txt", gens)
             for name, gens in (("good_I", i_gens), ("good_Q", q), ("colon_L", lhs), ("colon_R", rhs))}
    selfcheck_seed = rng.randint(0, 10**6)
    entries = [
        (["table", "10", "9", "--format", "ascii"], None, ref.golden_labels, _ascii_table_labels),
        (["table", "10", "9", "--format", "json"], "table", ref.golden_labels,
         lambda p: {(c["d"], c["ell"]): c["label"] for c in p}),
        (["table", "10", "9", "--format", "csv"], None, ref.golden_csv, str),
        _classify_entry(d, ell),
        (["lemma-ineq"], None, _const(LEMMA_LINE), str),
        (["good-check", "--ideal", paths["good_I"], "--reduction", paths["good_Q"]], "good_report",
         partial(ref.good, i_gens, q),
         lambda p: {k: p[k] for k in ("stable", "colon_closed", "good")} | {"colon": sorted(map(tuple, p["colon"]))}),
        (["colon", paths["colon_L"], paths["colon_R"], "--format", "json"], "colon", partial(ref.colon, lhs, rhs),
         lambda p: sorted(map(tuple, p["gens"]))),
        *(_certificate_entry(e) for e in range(2, 6)),
        (["veronese", "--r", "3"], "veronese", partial(_veronese_expected, 3),
         lambda p: {k: p[k] for k in VERONESE_KEYS}),
        (["selfcheck", "--seed", str(selfcheck_seed), "--trials", "20", "--format", "json"], "selfcheck",
         _const(True), lambda p: p["ok"]),
        _classify_entry(15001, 2),
    ]
    rng.shuffle(entries)
    return entries


def cli(seed: int, workdir: Path, importtime: bool = False) -> list[Task]:
    env = cli_env()
    tasks = []
    for argv, schema_name, expected, extract in cli_entries(seed, workdir):
        what = "reesag " + " ".join(Path(a).name for a in argv)

        def reference(schema_name=schema_name, expected=expected):
            return (_validator(schema_name) if schema_name else None), expected()

        tasks.append(Task(what, partial(invoke, argv, env, workdir, importtime), reference,
                          partial(_compare_cli, what=what, extract=extract), known=KNOWN_CLI.get(tuple(argv))))
    return tasks


# -- the process layer ---------------------------------------------------------

def interp_ms(env: dict, cwd: Path, repeats: int = 5) -> float:
    """Median wall time of a bare interpreter start, `python -c pass`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return median(times) * 1000


def main_ms(argvs: list[list[str]]) -> float:
    """Median in-process time of reesag.cli.main over the batch's argvs (second pass)."""
    from reesag.cli import main

    times = []
    for _ in range(2):
        times.clear()
        for argv in argvs:
            sink = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(sink), redirect_stderr(sink):
                main(list(argv))
            times.append(time.perf_counter() - start)
    return median(times) * 1000


BUILDERS = {
    "closed_form": closed_form,
    "engine_bulk": engine_bulk,
    "engine_small": engine_small,
    "cli": cli,
}
