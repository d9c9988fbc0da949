"""The benchmark's workloads: seeded inputs, the op schedule, output checks.

An op is one ``apolar.cli.main([...])`` call that writes its JSON report to
standard output.  A workload is a fixed cyclic schedule of ops (a "pass")
built from the workload seed; the runner repeats whole passes.

Inputs are drawn from the seed only.  Cubic ``k`` of a seed is
``random_cubic(1000 * seed + k)`` in every workload, so ``analyze-fp`` and
``exact-q`` analyse the same random cubics for the same seed and the two
fields must give the same answer for them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from apolar import constructions, hilbert
from apolar.poly import (Poly, contract, format_poly, monomials, parse_poly,
                         waring_cube)

FSTAR = "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"
FLAT_TEMPLATE = "t*x1^2 + x1*x2"
JUMP_TEMPLATE = "t*x1"

# perp dimensions in degrees 4..7 by input class; one table for both fields
PERPS = {
    "random": {"4": 6, "5": 0, "6": 0, "7": 0},
    "waring10": {"4": 6, "5": 0, "6": 0, "7": 0},
    "waring9": {"4": 15, "5": 0, "6": 0, "7": 0},
    "cubes": {"4": 36, "5": 6, "6": 0, "7": 0},
}

# certificate checks for gr26 outputs run modulo the first of these primes
# that divides no coefficient denominator
_CHECK_PRIMES = (67108859, 67108837, 67108819)


@dataclass(frozen=True)
class Op:
    """One CLI call and the class of answer it must give."""

    key: str            # stable name within the pass, e.g. "rc3"
    argv: tuple
    kind: str           # "analyze", "pencil", "construct" or "family"
    expect: dict = field(default_factory=dict, hash=False, compare=False)


def _cubic(seed: int, k: int) -> str:
    return format_poly(constructions.random_cubic(1000 * seed + k))


def _small_waring9(seed: int) -> str:
    """Sum of dp-cubes of 9 points with coordinates in {-1, 0, 1}, any 6
    of them independent: on E like ``waring_sum(9, .)``, and it runs the
    same 225 x 126 exact kernel, but with small entries it takes seconds
    where ``waring_sum(9, .)`` takes about 40 s."""
    rng = random.Random("%d:waring9" % seed)
    while True:
        pts = [tuple(rng.choice((-1, 0, 1)) for _ in range(6))
               for _ in range(9)]
        # entries are small integers, so a rounded float det is exact
        if all(round(abs(np.linalg.det(np.array(six, dtype=float)))) > 0
               for six in itertools.combinations(pts, 6)):
            break
    F = Poly.zero("P", 6)
    for c in pts:
        F = F + waring_cube(c)
    return format_poly(F)


def _analyze(key, cubic, field_kind, seed, cls):
    argv = ["analyze", cubic, "--field", field_kind, "--json", "-"]
    if field_kind == "fp":
        argv += ["--primes", "3", "--seed", str(seed)]
    return Op(key, tuple(argv), "analyze",
              {"class": cls, "field": field_kind, "input": cubic})


def _analyze_fp(seed: int) -> list[Op]:
    rc = [_analyze("rc%d" % k, _cubic(seed, k), "fp", seed, "random")
          for k in range(6)]
    w9 = format_poly(constructions.waring_sum(9, seed)[0])
    w10 = format_poly(constructions.waring_sum(10, seed)[0])
    cubes = format_poly(constructions.sum_of_cubes())
    return [rc[0], rc[1], _analyze("w9", w9, "fp", seed, "waring9"),
            rc[2], rc[3], _analyze("w10", w10, "fp", seed, "waring10"),
            rc[4], rc[5], _analyze("cubes", cubes, "fp", seed, "cubes")]


def _family(key, template, samples, flag):
    argv = ("family", template, "--samples", ",".join(map(str, samples)),
            "--json", "-")
    return Op(key, argv, "family", {"flag": flag, "samples": samples})


def _exact_q(seed: int) -> list[Op]:
    rq = [_analyze("rq%d" % k, _cubic(seed, k), "q", seed, "random")
          for k in range(16)]
    w9 = _small_waring9(seed)
    cubes = format_poly(constructions.sum_of_cubes())
    rng = random.Random("%d:family" % seed)
    samples = [0] + rng.sample(range(1, 10), 3)
    flat = _family("flat", FLAT_TEMPLATE, samples, "CONSTANT")
    jump = _family("jump", JUMP_TEMPLATE, samples, "JUMP")
    gr26 = Op("gr26", ("construct", "gr26", "--field", "q", "--seed",
                       str(seed), "--json", "-"), "construct", {"seed": seed})
    # sixteen small analyses, so that op_p50_s and op_tail_s fall well
    # inside their latencies; the three long ops sit between them
    return (rq[0:4] + [flat, gr26, jump] + rq[4:8]
            + [_analyze("cubes_q", cubes, "q", seed, "cubes")] + rq[8:12]
            + [flat, _analyze("w9_q", w9, "q", seed, "waring9"), jump]
            + rq[12:16])


def _pencil(key, f1, f2, seed, chart=None, total=90, at_zero=None):
    argv = ["pencil", "--f1", f1, "--f2", f2, "--primes", "3",
            "--seed", str(seed), "--json", "-"]
    if chart is not None:
        argv += ["--chart", chart]
    return Op(key, tuple(argv), "pencil",
              {"total_degree": total, "at_zero": at_zero, "chart": chart})


def _pencil_mix(seed: int) -> list[Op]:
    rng = random.Random("%d:chart" % seed)
    chart = format_poly(Poly.monomial("P", 6, rng.choice(monomials(6, 3))))
    generic = _pencil("generic", _cubic(seed, 100), _cubic(seed, 101), seed)
    charted = _pencil("chart", _cubic(seed, 102), _cubic(seed, 103), seed,
                      chart=chart)
    worked = _pencil("worked", FSTAR, "x5^3", seed, total=10, at_zero=10)
    # three of four ops are the worked pair, so that op_p50_s and
    # op_tail_s both fall inside its latencies, not between two kinds
    return [generic] + [worked] * 3 + [charted] + [worked] * 3


WORKLOADS = {
    "analyze-fp": _analyze_fp,
    "exact-q": _exact_q,
    "pencil": _pencil_mix,
}

# the op the set-up phase runs once, untimed, before the timed passes
_WARMUP_KEY = {"analyze-fp": "rc0", "exact-q": "rq0", "pencil": "worked"}


def make_pass(workload: str, seed: int) -> list[Op]:
    """The workload's op schedule for one pass, generated from the seed."""
    return WORKLOADS[workload](seed)


def warmup_op(workload: str, schedule: list[Op]) -> Op:
    """The op of ``schedule`` that set-up runs once, untimed."""
    return next(op for op in schedule if op.key == _WARMUP_KEY[workload])


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def deterministic_json(stdout: str) -> tuple[dict, str]:
    """The op's JSON report and its canonical text without ``timings_ms``.

    The CLI prints its human-readable lines first and the JSON report
    last; only the report contains braces.
    """
    payload = json.loads(stdout[stdout.index("{"):])
    payload.pop("timings_ms", None)
    return payload, json.dumps(payload, indent=2, sort_keys=True)


def _check_analyze(op: Op, code: int, doc: dict) -> list[str]:
    exp = op.expect
    perps = PERPS[exp["class"]]
    on_e = perps["4"] > 6
    tangent = 70 + sum(perps.values())
    want = {
        "hf": [1, 6, 6, 1], "dim_I2": 15, "perp_dims": perps,
        "tangent_dim": tangent, "on_E": on_e,
        "verdict": (hilbert.VERDICT_BOUNDARY if on_e
                    else hilbert.VERDICT_NONSMOOTHABLE),
        "field": exp["field"], "input": exp["input"],
    }
    errors = ["%s=%r, expected %r" % (k, doc.get(k), v)
              for k, v in want.items() if doc.get(k) != v]
    if doc.get("tangent_dim") != 70 + sum(doc.get("perp_dims", {}).values()):
        errors.append("tangent_dim is not 70 + sum of perp dims")
    n_primes = 3 if exp["field"] == "fp" else 0
    if len(doc.get("primes_used", ())) != n_primes:
        errors.append("primes_used has %d entries, expected %d"
                      % (len(doc.get("primes_used", ())), n_primes))
    if code != (2 if on_e else 0):
        errors.append("exit code %d, expected %d" % (code, 2 if on_e else 0))
    return errors


def _check_pencil(op: Op, code: int, doc: dict) -> list[str]:
    exp = op.expect
    errors = []
    if code != 0:
        errors.append("exit code %d" % code)
    if doc.get("total_degree") != exp["total_degree"]:
        errors.append("total_degree %r, expected %d"
                      % (doc.get("total_degree"), exp["total_degree"]))
    if exp["at_zero"] is not None and \
            doc.get("multiplicity_at_zero") != exp["at_zero"]:
        errors.append("multiplicity_at_zero %r, expected %d"
                      % (doc.get("multiplicity_at_zero"), exp["at_zero"]))
    if exp["chart"] is not None:
        chart = next(iter(parse_poly(exp["chart"], "P", 6).terms))
        if doc.get("chart") != list(chart):
            errors.append("chart %r, expected %r" % (doc.get("chart"), chart))
    dets = doc.get("determinant_by_prime", {})
    if len(dets) != 3 or len(doc.get("primes_used", ())) != 3:
        errors.append("expected results for 3 primes")
    for p, det in dets.items():
        if len(det) != exp["total_degree"] + 1 or det[-1] != 1:
            errors.append("determinant mod %s is not monic of degree %d"
                          % (p, exp["total_degree"]))
        roots = doc.get("roots_by_prime", {}).get(p, {})
        if sum(roots.values()) > exp["total_degree"]:
            errors.append("more roots mod %s than the degree" % p)
    return errors


def _check_gr26(op: Op, code: int, doc: dict) -> list[str]:
    """A gr26 section must be a nondegenerate cubic on the divisor E whose
    15 quadrics annihilate it exactly."""
    errors = []
    if code != 0:
        errors.append("exit code %d" % code)
    if (doc.get("kind"), doc.get("field"), doc.get("seed")) != \
            ("gr26", "q", op.expect["seed"]):
        errors.append("wrong kind, field or seed in the report")
    F = parse_poly(doc["cubic"], "P", 6)
    quadrics = [parse_poly(q, "S", 6) for q in doc.get("quadrics", ())]
    if len(quadrics) != 15:
        errors.append("expected 15 quadrics")
    if any(not contract(q, F).is_zero() for q in quadrics):
        errors.append("a quadric does not annihilate the cubic")
    for p in _CHECK_PRIMES:
        if all(Fraction(c).denominator % p for c in F.terms.values()):
            break
    if hilbert.perp4_dim(F, p) <= 6:
        errors.append("gr26 section is not on the divisor E mod %d" % p)
    return errors


def _check_family(op: Op, code: int, doc: dict) -> list[str]:
    exp = op.expect
    errors = []
    if code != 0:
        errors.append("exit code %d" % code)
    if doc.get("flag") != exp["flag"]:
        errors.append("flag %r, expected %r" % (doc.get("flag"), exp["flag"]))
    lengths = doc.get("lengths", {})
    want = ({str(t): 4 for t in exp["samples"]} if exp["flag"] == "CONSTANT"
            else {str(t): (1 if t == 0 else 2) for t in exp["samples"]})
    if lengths != want:
        errors.append("lengths %r, expected %r" % (lengths, want))
    return errors


_CHECKS = {"analyze": _check_analyze, "pencil": _check_pencil,
           "construct": _check_gr26, "family": _check_family}


def check_op(op: Op, code, stdout: str, error: str | None,
             reference: dict | None) -> tuple[str | None, list[str]]:
    """Check one op's outcome.

    Returns the canonical deterministic JSON (None when there is no
    report) and the list of problems found; an empty list means correct.
    ``reference`` maps op keys to the recorded canonical JSON for this
    seed, or is None when no reference exists for the seed.
    """
    if error is not None:
        return None, ["raised %s" % error]
    try:
        doc, text = deterministic_json(stdout)
    except ValueError:
        return None, ["exit code %r without a JSON report" % (code,)]
    try:
        errors = _CHECKS[op.kind](op, code, doc)
    except (KeyError, TypeError, ValueError) as exc:
        errors = ["report does not pass its checks: %r" % exc]
    if reference is not None and reference.get(op.key) != text:
        errors.append("deterministic JSON differs from the reference")
    return text, errors
