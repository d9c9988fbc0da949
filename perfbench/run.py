"""Benchmark for the apolar calculator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-fp --seed 0 --seconds 15 --trace 0

Each workload is a closed loop with one client, in this process and this
thread: an op is one in-process ``apolar.cli.main([...])`` call, the next
op starts when the previous one returns, and the workload's op schedule
(a "pass", see ``workloads.py``) repeats until ``--seconds`` have passed,
every op of it has run and at least ``MIN_OPS`` ops have run.  Every op's
output is checked after the timed phase.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
of whole passes twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine facts,
per-op latencies, failures) and, for traced runs, every span go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference" / "seed0.json"

REFERENCE_SEED = 0     # the seed whose outputs are compared byte for byte
TAIL_BEYOND = 10       # op_tail_s has at least this many ops beyond it
MIN_OPS = TAIL_BEYOND + 1
SETUP_REPEATS = 5      # setup_s is the median of this many set-ups


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="analyze-fp, exact-q or pencil")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_apolar():
    """Import the package from this checkout's ``src`` and time it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    try:
        apolar = importlib.import_module("apolar")
        cli = importlib.import_module("apolar.cli")
    except ModuleNotFoundError as exc:
        raise SystemExit("cannot import apolar from %s: %s" % (src, exc))
    import_s = time.perf_counter() - t
    if src not in Path(apolar.__file__).resolve().parents:
        raise SystemExit("apolar was imported from %s, not from %s"
                         % (apolar.__file__, src))
    return cli, import_s


class Runner:
    """Runs ops of one workload and keeps every outcome for checking."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []   # (phase, op, latency_s, exit code, stdout, error)

    def run_op(self, phase: str, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(op.argv))
            error = None
        except Exception as exc:  # a raising op is a failed op; keep going
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t
        self.records.append((phase, op, latency, code, out.getvalue(), error))
        return latency

    def cycle(self, phase: str, schedule, seconds: float,
              min_ops: int) -> tuple[list[float], float]:
        """Ops in schedule order, starting over at the end, until
        ``seconds`` have passed, every op of the schedule has run and
        ``min_ops`` ops have run.  Returns the latencies and the elapsed
        time; the run may end part way through a pass.
        """
        latencies: list[float] = []
        t0 = time.perf_counter()
        while True:
            op = schedule[len(latencies) % len(schedule)]
            latencies.append(self.run_op(phase, op))
            elapsed = time.perf_counter() - t0
            if (elapsed >= seconds and len(latencies) >= len(schedule)
                    and len(latencies) >= min_ops):
                return latencies, elapsed

    def check(self, workloads, reference) -> list[dict]:
        """Check every recorded op; returns one entry per failed op."""
        failures = []
        memo: dict = {}
        for phase, op, _lat, code, stdout, error in self.records:
            key = (op.key, code, stdout, error)
            if key not in memo:
                memo[key] = workloads.check_op(op, code, stdout, error,
                                               reference)[1]
            if memo[key]:
                failures.append({"phase": phase, "op": op.key,
                                 "problems": memo[key]})
        return failures


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above
    it: returns (value, percentile)."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND          # 1-based
    if rank < 1:
        raise ValueError("need more than %d samples" % TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def machine_facts(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "apolar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, cli, import_s, workloads) -> tuple[dict, dict]:
    runner = Runner(cli)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        schedule = workloads.make_pass(args.workload, args.seed)
        runner.run_op("setup", workloads.warmup_op(args.workload, schedule))
        setups.append(import_s + time.perf_counter() - t)
    latencies, elapsed = runner.cycle("timed", schedule, args.seconds,
                                      MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = runner.check(workloads,
                            _load_reference(args.workload, args.seed))
    attempted = len(runner.records)
    by_op: dict = {}
    for phase, op, lat, *_ in runner.records:
        if phase == "timed":
            by_op.setdefault(op.key, []).append(lat)
    # a run may stop part way through a pass, so the rate is that of whole
    # passes: each op of the schedule at its median latency in this run
    pass_s = sum(statistics.median(by_op[op.key]) for op in schedule)
    tail, pct = tail_latency(latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(len(schedule) / pass_s, "1/s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "op_tail_s": _metric(tail, "s"),
        "ok_ratio": _metric((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    record = {
        "setups_s": setups,
        "import_s": import_s,
        "timed_s": elapsed,
        "pass_s": pass_s,
        "passes": len(latencies) / len(schedule),
        "ops": len(latencies),
        "op_tail_percentile": pct,
        "op_tail_beyond": TAIL_BEYOND,
        "fail_ratio": len(failures) / attempted,
        "latency_s_by_op": by_op,
        "failures": failures,
        "attempted": attempted,
    }
    return metrics, record


def run_traced(args, cli, workloads, tracer_mod) -> tuple[dict, dict, dict]:
    runner = Runner(cli)
    inputs_tracer = tracer_mod.Tracer()
    inputs_tracer.install()
    inputs_tracer.op_id = "inputs"
    try:
        schedule = workloads.make_pass(args.workload, args.seed)
    finally:
        inputs_tracer.uninstall()
    runner.run_op("setup", workloads.warmup_op(args.workload, schedule))
    # each op runs untraced and then traced, back to back, so that the
    # overhead compares the two under the same machine load
    tracer = tracer_mod.Tracer()
    untraced_s = traced_s = 0.0
    n_passes = 0
    t0 = time.perf_counter()
    while n_passes == 0 or time.perf_counter() - t0 < args.seconds:
        for op in schedule:
            untraced_s += runner.run_op("untraced", op)
            tracer.install()
            tracer.op_id = len(runner.records)
            try:
                traced_s += runner.run_op("traced", op)
            finally:
                tracer.uninstall()
        n_passes += 1
    failures = runner.check(workloads,
                            _load_reference(args.workload, args.seed))
    overhead = traced_s / untraced_s - 1.0

    # one input generation plus the mean traced pass
    metrics = {}
    pass_stats = tracer.layer_stats()
    input_stats = inputs_tracer.layer_stats()
    for name in tracer_mod.span_names():
        for field, unit in (("calls", "count"), ("self_s", "s"),
                            ("total_s", "s")):
            value = (input_stats[name][field]
                     + pass_stats[name][field] / n_passes)
            metrics["%s.%s" % (name, field)] = _metric(value, unit)
    for name in tracer_mod.OP_COUNTERS:
        value = (inputs_tracer.ops_count[name]
                 + tracer.ops_count[name] / n_passes)
        metrics[name + ".ops"] = _metric(value, "count")
    metrics["hilbert.square_perp_basis.cert_prime.calls"] = _metric(
        inputs_tracer.cert_prime_calls + tracer.cert_prime_calls / n_passes,
        "count")
    primes = sum(3 for op in schedule if op.kind == "pencil")
    profiles = pass_stats["linalg.interpolate"]["calls"] / n_passes / 2
    metrics["hilbert.pencil.useful_profile_ratio"] = _metric(
        primes / profiles if profiles else 0.0, "ratio")
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    record = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_passes": n_passes,
        "trace_overhead": overhead,
        "failures": failures,
        "attempted": len(runner.records),
        # span op ids are indices into this run's op list
        "op_keys": [op.key for _phase, op, *_ in runner.records],
    }
    spans = {"inputs": inputs_tracer.dump(), "passes": tracer.dump()}
    return metrics, record, spans


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli, import_s = _import_apolar()
    sys.path.insert(0, str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r; choose from %s"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    spans = None
    if args.trace:
        tracer_mod = importlib.import_module("tracer")
        metrics, record, spans = run_traced(args, cli, workloads, tracer_mod)
    else:
        metrics, record = run_untraced(args, cli, import_s, workloads)
    failures, attempted = record["failures"], record["attempted"]
    record.update(workload=args.workload, seconds=args.seconds,
                  trace=args.trace, facts=machine_facts(args.seed),
                  metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT_DIR / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT_DIR / (stem + "-spans.json")).write_text(
            json.dumps(spans, separators=(",", ":")))

    for fail in failures:
        print("FAILED %s (%s): %s" % (fail["op"], fail["phase"],
                                      "; ".join(fail["problems"])),
              file=sys.stderr)
    print("workload %s, seed %d, trace %d, facts %s"
          % (args.workload, args.seed, args.trace,
             json.dumps(record["facts"], sort_keys=True)))
    if not args.trace:
        print("timed phase: %d ops (%.2f passes) in %.3f s; one pass at "
              "the median op latencies takes %.3f s"
              % (record["ops"], record["passes"], record["timed_s"],
                 record["pass_s"]))
        print("op_tail_s is the p%.1f latency of %d ops (%d ops beyond it)"
              % (record["op_tail_percentile"], record["ops"], TAIL_BEYOND))
        print("%-52s %14.6g %s (%d of %d ops; ok_ratio = 1 - fail_ratio)"
              % ("fail_ratio", record["fail_ratio"], "ratio", len(failures),
                 attempted))
    else:
        print("tracing overhead: %+.2f%% (%d passes, %.3f s traced against "
              "%.3f s untraced)" % (100 * record["trace_overhead"],
                                    record["traced_passes"],
                                    record["traced_s"], record["untraced_s"]))
    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
