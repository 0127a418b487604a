"""Command-line front end.

Verbs: table, lemma-ineq, classify, good-check, certificate, veronese,
colon, selfcheck.  Exit codes: 0 success, 1 mathematical counterexample
(reserved; none is expected to exist), 2 usage or input error, 3 internal
invariant breach (raised as InvariantBreach, so it also holds under
`python -O`).  Verdicts like good=false or label X are data and exit 0;
only malformed input and violated preconditions are errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .binomials import _cell, _check_grid_bits, _mu_rows, ineq_gap_telescoped
from .certificates import build_certificate_2dim, verify_claim_containment
from .classify import ClassLabel, _check_json_digits, classify, render_ascii, render_csv, render_json, table
from .errors import InvariantBreach, check_int
from .goodideals import good_report
from .monomials import (
    brute_colon,
    format_ideal,
    load_ideal,
    random_ideal,
    sufficient_colon_bound,
)
from .veronese import veronese_report

_LABEL_PHRASES = {
    ClassLabel.GORENSTEIN_GRADED: "Gorenstein graded",
    ClassLabel.ALMOST_GORENSTEIN_GRADED: "almost Gorenstein graded",
    ClassLabel.ALMOST_GORENSTEIN_LOCAL_ONLY: "almost Gorenstein local, not graded",
    ClassLabel.NONE: "neither Gorenstein nor almost Gorenstein",
}


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload) -> None:
    _emit(json.dumps(payload, indent=2))


def cmd_table(args: argparse.Namespace) -> int:
    if args.format == "json":
        _check_json_digits(args.dmax, args.lmax)
    grid = table(args.dmax, args.lmax)
    if args.format == "ascii":
        _emit(render_ascii(grid))
    elif args.format == "json":
        _emit(render_json(grid))
    else:
        _emit(render_csv(grid))
    return 0


def cmd_lemma_ineq(args: argparse.Namespace) -> int:
    check_int("--dmax", args.dmax, 3)
    check_int("--lmax", args.lmax, 2)
    _check_grid_bits(args.dmax, args.lmax)
    cells = 0
    gaps = []
    counterexample = None
    # the direct sides of each d come off its row of counts from _mu_rows; the
    # telescoped walk, from binom, checks every one of them independently
    for d, row in _mu_rows(3, args.dmax, 2 * args.lmax - 1):
        for ell in range(2, args.lmax + 1):
            _, _, _, lhs, rhs, gap, _ = _cell(d, ell, row)
            telescoped = ineq_gap_telescoped(d, ell)
            if telescoped != gap:
                raise InvariantBreach(f"telescoped sum {telescoped} != direct gap {gap} at d={d}, ell={ell}")
            cells += 1
            divides = (d - 1) % ell == 0
            if args.report_gaps:
                gaps.append({"d": d, "ell": ell, "gap": gap, "divides": divides})
            if gap < 0 or (gap == 0) != divides:
                counterexample = {"d": d, "ell": ell, "lhs": lhs, "rhs": rhs, "gap": gap, "divides": divides}
                break
        if counterexample:
            break
    ok = counterexample is None
    if args.format == "json":
        payload = {
            "d_max": args.dmax,
            "ell_max": args.lmax,
            "cells": cells,
            "ok": ok,
            "counterexample": counterexample,
        }
        if args.report_gaps:
            payload["gaps"] = gaps
        _emit_json(payload)
    else:
        if args.report_gaps:
            for row in gaps:
                _emit(
                    f"d={row['d']} ell={row['ell']} gap={row['gap']} "
                    f"divides={'yes' if row['divides'] else 'no'}"
                )
        if ok:
            _emit(
                f"checked {cells} cells (d <= {args.dmax}, ell <= {args.lmax}): "
                "gap >= 0 everywhere and gap = 0 exactly when ell divides d-1"
            )
        else:
            _emit(f"counterexample: {json.dumps(counterexample)}")
    return 0 if ok else 1


def cmd_classify(args: argparse.Namespace) -> int:
    d, ell = args.d, args.ell
    label, evidence = classify(d, ell)
    if args.format == "json":
        _emit_json(
            {"d": d, "ell": ell, "label": label.symbol, "evidence": evidence.as_dict()}
        )
    else:
        lines = [
            f"R(m^{ell}) in dimension {d}: {_LABEL_PHRASES[label]} [{label.symbol}]",
            f"  rule: {evidence.rule}",
            f"  b = {evidence.b}, mu_K = {evidence.mu_K}",
        ]
        if evidence.gap is not None:
            lines.append(f"  inequality gap = {evidence.gap}")
        obstruction = evidence.obstruction
        if obstruction is not None:
            lines.append(
                f"  graded obstruction: mu(C) <= {obstruction.mu_bound} but e(C) >= {obstruction.e_bound}"
            )
        _emit("\n".join(lines))
    return 0


def cmd_good_check(args: argparse.Namespace) -> int:
    ideal = load_ideal(args.ideal, dim=args.dim)
    reduction = load_ideal(args.reduction, dim=ideal.dim)
    report = good_report(ideal, reduction)
    if args.format == "json":
        payload = {"dim": ideal.dim, **report.as_dict()}
        _emit_json(payload)
    else:
        lines = [
            f"dim: {ideal.dim}",
            f"stable (I^2 = QI): {str(report.stable).lower()}",
            f"colon closed (Q:I = I): {str(report.colon_closed).lower()}",
            f"good: {str(report.good).lower()}",
            "colon result Q:I generators:",
        ]
        lines.extend(f"  {' '.join(str(e) for e in g.exponents)}" for g in report.colon_result.gens)
        if report.witness is not None:
            lines.append(f"witness: {report.witness} ({' '.join(str(e) for e in report.witness.exponents)})")
        _emit("\n".join(lines))
    return 0


def cmd_certificate(args: argparse.Namespace) -> int:
    cert = build_certificate_2dim(args.ell)
    containment = verify_claim_containment(cert, args.nmax)
    payload = cert.as_dict()
    payload["degrees_checked"] = args.nmax
    payload["containment"] = containment
    if args.format == "json":
        _emit_json(payload)
    else:
        _emit(
            "\n".join(
                [
                    f"ell = {cert.ell}: f = {cert.f}, g = {cert.g}, h = {cert.h}",
                    f"J = ({', '.join(str(m) for m in cert.J.gens)})",
                    f"identity A (mJ = fJ + mh): {str(cert.identity_a).lower()}",
                    f"identity B (IJ = gJ + Ih): {str(cert.identity_b).lower()}",
                    f"containment through degree {args.nmax}: {str(containment).lower()}",
                ]
            )
        )
    return 0 if cert.valid and containment else 1


def cmd_veronese(args: argparse.Namespace) -> int:
    report = veronese_report(args.r, args.ell)
    if args.format == "json":
        _emit_json(report)
    else:
        _emit(
            "\n".join(
                [
                    f"Veronese degree r = {report['r']}, ell = {report['ell']}",
                    f"x = {tuple(report['x'])}, y = {tuple(report['y'])}, z = {tuple(report['z'])}",
                    f"minimal multiplicity (m^2 = ym + zm): {str(report['minimal_multiplicity']).lower()}",
                    f"precondition mK = yK + xm: {str(report['precondition_proof_form']).lower()}",
                    f"variant mK = y(mK) + xm: {str(report['precondition_display_form']).lower()}",
                    f"identity one (m^(l+1)K = y m^l K + mh): {str(report['identity_one']).lower()}",
                    f"identity two (m^(2l)K = y^l m^l K + m^l h): {str(report['identity_two']).lower()}",
                    f"x outside mK: {str(report['x_outside_mK']).lower()}",
                ]
            )
        )
    required = (
        report["claim"] and report["minimal_multiplicity"] and report["x_outside_mK"]
    )
    return 0 if required else 1


def cmd_colon(args: argparse.Namespace) -> int:
    lhs = load_ideal(args.lhs)
    rhs = load_ideal(args.rhs, dim=lhs.dim)
    result = lhs.colon(rhs)
    if args.format == "json":
        _emit_json({"dim": result.dim, "gens": [g.as_list() for g in result.gens]})
    else:
        _emit(format_ideal(result, header=f"{args.lhs} : {args.rhs}"))
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    check_int("--trials", args.trials, 1)
    rng = Random(args.seed)
    counterexample = None
    for _ in range(args.trials):
        dim = rng.randint(1, 3)
        ideal = random_ideal(rng, dim)
        divisor = random_ideal(rng, dim)
        fast = ideal.colon(divisor)
        slow = brute_colon(ideal, divisor, sufficient_colon_bound(ideal))
        if fast != slow:
            counterexample = {
                "dim": dim,
                "ideal": [g.as_list() for g in ideal.gens],
                "divisor": [g.as_list() for g in divisor.gens],
                "colon": [g.as_list() for g in fast.gens],
                "brute": [g.as_list() for g in slow.gens],
            }
            break
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "ok": counterexample is None,
        "counterexample": counterexample,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        if counterexample is None:
            _emit(f"colon agrees with brute force on {args.trials} seeded trials (seed {args.seed})")
        else:
            _emit(f"counterexample: {json.dumps(counterexample)}")
    return 0 if counterexample is None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reesag",
        description="Exact Gorenstein / almost Gorenstein tests for Rees algebras of powers of the maximal ideal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="classification table over a (d, ell) grid")
    p.add_argument("dmax", nargs="?", type=int, default=10, metavar="DMAX", help="largest dimension (>= 2)")
    p.add_argument("lmax", nargs="?", type=int, default=9, metavar="LMAX", help="largest power (>= 1)")
    p.add_argument("--format", choices=["ascii", "json", "csv"], default="ascii")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("lemma-ineq", help="sweep the binomial inequality; exit 1 on a counterexample")
    p.add_argument("--dmax", type=int, default=30)
    p.add_argument("--lmax", type=int, default=10)
    p.add_argument("--report-gaps", action="store_true")
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p.set_defaults(func=cmd_lemma_ineq)

    p = sub.add_parser("classify", help="label one (d, ell) pair with evidence")
    p.add_argument("d", type=int, metavar="D")
    p.add_argument("ell", type=int, metavar="ELL")
    p.add_argument("--format", choices=["ascii", "json"], default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("good-check", help="stability and goodness report for I against Q")
    p.add_argument("--ideal", required=True, help="path to I in the ideal file format")
    p.add_argument("--reduction", required=True, help="path to Q in the ideal file format")
    p.add_argument("--dim", type=int, default=None, help="enforce this dimension")
    p.add_argument("--format", choices=["ascii", "json"], default="json")
    p.set_defaults(func=cmd_good_check)

    p = sub.add_parser("certificate", help="the (f, g, h) certificate for m^ell at d = 2")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--nmax", type=int, default=5, help="containment degree bound")
    p.add_argument("--format", choices=["ascii", "json"], default="json")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("veronese", help="minimal-multiplicity and claim checks on the Veronese instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--format", choices=["ascii", "json"], default="json")
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("colon", help="colon of two ideal files (LHS : RHS)")
    p.add_argument("lhs", metavar="LHS")
    p.add_argument("rhs", metavar="RHS")
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p.set_defaults(func=cmd_colon)

    p = sub.add_parser("selfcheck", help="seeded random colon vs brute-force equivalence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
