"""Command-line interface: analyze, pencil, construct, family.

Exit codes: 0 for NonSmoothableCertified (and for successful pencil,
construct, and family runs), 2 for SmoothableBoundary, 3 for Degenerate
inputs and other mathematical degeneracies, 64 for usage errors, 1 for
internal consistency failures (cross-prime disagreement).

All output is deterministic for a fixed seed except the ``timings_ms``
block of the JSON reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import constructions, hilbert
from .apolarity import family_length_profile
from .poly import Poly, format_poly, parse_family_template, parse_poly

_N_VARS = 6  # cubics in x0..x5

_EXIT_BY_VERDICT = {
    hilbert.VERDICT_NONSMOOTHABLE: 0,
    hilbert.VERDICT_BOUNDARY: 2,
    hilbert.VERDICT_DEGENERATE: 3,
}


class UsageError(Exception):
    """Bad flag combinations caught after argparse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


def _check_json_path(path: str | None) -> None:
    """Reject an unwritable report path before any computation runs."""
    if not path or path == "-":
        return
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)
            or (os.path.exists(path) and not os.access(path, os.W_OK))):
        raise UsageError("cannot write the JSON report to %s" % path)


def _write_json(path: str | None, payload: dict) -> None:
    if not path:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


def _add_field(sub, default):
    sub.add_argument("--field", choices=["fp", "q"], default=default,
                     help="prime-field pipeline with cross-checks, or exact "
                          "rationals (default %(default)s)")


def _add_primes(sub):
    sub.add_argument("--primes", type=_positive_int, default=3, metavar="N",
                     help="number of random working primes (default 3)")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for primes and sampling (default 0)")
    sub.add_argument("--json", metavar="PATH",
                     help="write a JSON report to PATH ('-' for stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="apolar",
                     description="Apolarity calculus for cubics in six "
                                 "variables: Hilbert functions, tangent "
                                 "spaces, and the divisor of non-smoothable "
                                 "points.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze",
                           help="tangent-space report for one cubic")
    p_an.add_argument("cubic", help="cubic form, e.g. 'x0*x1*x3 - x0^2*x4'")
    _add_field(p_an, "fp")
    _add_primes(p_an)
    _add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_pen = subs.add_parser("pencil",
                            help="divisor equation along a pencil of cubics")
    p_pen.add_argument("--f1", required=True, help="moving endpoint cubic")
    p_pen.add_argument("--f2", required=True, help="base endpoint cubic "
                       "(the fiber at parameter 0)")
    p_pen.add_argument("--chart", help="chart cubic monomial, e.g. 'x5^3' "
                       "(default: first usable chart)")
    _add_primes(p_pen)
    _add_common(p_pen)
    p_pen.set_defaults(func=_cmd_pencil)

    p_con = subs.add_parser("construct",
                            help="generate cubics from the stock families")
    p_con.add_argument("kind", choices=["gr26", "waring", "dvap", "sum-cubes"])
    p_con.add_argument("--points", type=_positive_int, default=9, metavar="K",
                       help="number of dp-cubes for 'waring' (default 9)")
    p_con.add_argument("--input", metavar="SEXTIC",
                       help="ternary sextic in x0,x1,x2 for 'dvap' "
                            "(default: random from the seed)")
    _add_field(p_con, "q")
    _add_common(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_fam = subs.add_parser("family",
                            help="apolar length profile of a t-family")
    p_fam.add_argument("template",
                       help="polynomial in x0..x5 and the parameter t, "
                            "e.g. 't*x1^2 + x1*x2'")
    p_fam.add_argument("--samples", default="0,1,2,3,4", metavar="T0,T1,...",
                       help="comma-separated integer parameter values "
                            "(default %(default)s)")
    _add_field(p_fam, "q")
    _add_common(p_fam)
    p_fam.set_defaults(func=_cmd_family)
    return parser


def _cmd_analyze(args) -> int:
    F = parse_poly(args.cubic, "P", _N_VARS)
    t0 = time.monotonic()
    report = hilbert.analyze(
        F, n_primes=args.primes, seed=args.seed, field_kind=args.field)
    elapsed = int((time.monotonic() - t0) * 1000)
    print("input: %s" % format_poly(F))
    print("hilbert function: %s" % (report.hf,))
    print("dim I2: %d" % report.dim_I2)
    if report.perp_dims:
        print("perp dims: %s" % ", ".join(
            "%d -> %d" % (d, v) for d, v in sorted(report.perp_dims.items())))
        print("tangent dimension: %d" % report.tangent_dim)
        print("on divisor E: %s" % ("yes" if report.on_E else "no"))
    print("verdict: %s" % report.verdict)
    if report.primes_used:
        print("primes: %s" % ", ".join(map(str, report.primes_used)))
    payload = report.to_json_dict()
    payload["input"] = format_poly(F)
    payload["timings_ms"] = {"total": elapsed}
    _write_json(args.json, payload)
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_pencil(args) -> int:
    f1 = parse_poly(args.f1, "P", _N_VARS)
    f2 = parse_poly(args.f2, "P", _N_VARS)
    chart = parse_poly(args.chart, "P", _N_VARS) if args.chart else None
    t0 = time.monotonic()
    report = hilbert.pencil_report(f1, f2, chart, n_primes=args.primes,
                                   seed=args.seed)
    elapsed = int((time.monotonic() - t0) * 1000)
    print("pencil: u * (%s) + (%s)" % (format_poly(f1), format_poly(f2)))
    print("chart: %s" % format_poly(
        Poly.monomial("P", _N_VARS, tuple(report["chart"]))))
    print("total degree: %d" % report["total_degree"])
    print("multiplicity at u = 0: %d" % report["multiplicity_at_zero"])
    for p, roots in sorted(report["roots_by_prime"].items()):
        shown = ", ".join("%d^%d" % (r, m) for r, m in sorted(roots.items()))
        print("roots mod %d: %s" % (p, shown or "(none rational)"))
    print("primes: %s" % ", ".join(map(str, report["primes"])))
    payload = {
        "schema": "apolar-pencil/1",
        "f1": format_poly(f1),
        "f2": format_poly(f2),
        "chart": report["chart"],
        "total_degree": report["total_degree"],
        "multiplicity_at_zero": report["multiplicity_at_zero"],
        "roots_by_prime": {
            str(p): {str(r): m for r, m in roots.items()}
            for p, roots in report["roots_by_prime"].items()
        },
        "determinant_by_prime": {
            str(prof.p): list(prof.determinant)
            for prof in report["profiles"]
        },
        "primes_used": report["primes"],
        "timings_ms": {"total": elapsed},
    }
    _write_json(args.json, payload)
    return 0


def _cmd_construct(args) -> int:
    p = None
    if args.field == "fp":
        p = hilbert.draw_primes(1, args.seed)[0]
    payload: dict = {"schema": "apolar-construct/1", "kind": args.kind,
                     "seed": args.seed, "field": args.field}
    if args.kind == "gr26":
        sample = constructions.gr26_section_cubic(args.seed, p)
        cubic = sample.cubic
        payload["matrix"] = sample.matrix
        payload["quadrics"] = [format_poly(q) for q in sample.quadrics]
    elif args.kind == "waring":
        cubic, points = constructions.waring_sum(args.points, args.seed, p)
        payload["points"] = [list(pt) for pt in points]
    elif args.kind == "dvap":
        if args.input:
            sextic = parse_poly(args.input, "P", 3)
        else:
            sextic = constructions.random_ternary_sextic(args.seed, p)
        cubic = constructions.dvap_cubic(sextic)
        payload["sextic"] = format_poly(sextic)
        payload["identification"] = [list(q) for q in
                                     constructions.dvap_identification()]
    else:
        cubic = constructions.sum_of_cubes()
    payload["cubic"] = format_poly(cubic)
    if p is not None:
        payload["prime"] = p
    print("cubic: %s" % format_poly(cubic))
    if args.kind == "dvap":
        print("cubic variable -> ternary quadric exponent: %s" % ", ".join(
            "x%d=%s" % (k, q)
            for k, q in enumerate(constructions.dvap_identification())))
    _write_json(args.json, payload)
    return 0


def _cmd_family(args) -> int:
    template = parse_family_template(args.template, _N_VARS)
    try:
        samples = [int(tok) for tok in args.samples.split(",") if tok.strip()]
    except ValueError:
        raise UsageError("--samples must be a comma-separated integer list")
    if not samples:
        raise UsageError("--samples must name at least one parameter value")
    p = None
    if args.field == "fp":
        p = hilbert.draw_primes(1, args.seed, template)[0]
    profile = family_length_profile(template, samples, p)
    for t in samples:
        print("t = %d: length %d" % (t, profile.lengths[t]))
    print("profile: %s" % profile.flag)
    payload = {
        "schema": "apolar-family/1",
        "template": args.template,
        "field": args.field,
        "samples": samples,
        "lengths": {str(t): profile.lengths[t] for t in samples},
        "flag": profile.flag,
    }
    if p is not None:
        payload["prime"] = p
    _write_json(args.json, payload)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse takes a list that starts with "-" for a flag
        if argv[i - 1] == "--samples" and re.fullmatch(r"-\d[\d,-]*", argv[i]):
            argv[i - 1:i + 1] = ["--samples=" + argv[i]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 64
    try:
        _check_json_path(args.json)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 64
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
