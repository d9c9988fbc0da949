"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload pencil --seeds 0-9
    python3 perfbench/spread.py --workload pencil --seeds 0-9 --out FILE

Runs ``BENCHMARK.json``'s command once per seed, one run at a time, with
its ``run_seconds``.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` also writes every run's result, with the
machine facts from its record, and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else \
        [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="'A-B' or 'A,B,C'")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the runs and the summary here")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        record = ROOT / ".perfbench_out" / ("%s-seed%d-trace%d.json" % (
            args.workload, seed, args.trace))
        result["facts"] = json.loads(record.read_text())["facts"]
        runs.append(result)
        print("seed %d: correct=%s failed=%d %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.5g" % (k, v["value"])
                     for k, v in result["metrics"].items()
                     if k in bounds or args.trace == 0)), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = summarize(values)
        summary[name]["bound"] = bounds.get(name)
        if args.trace == 0:
            s = summary[name]
            print("%-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  "
                  "bound %s" % (name, s["median"], s["q1"], s["q3"],
                                s["spread"], s["bound"]))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "run_seconds": bench["run_seconds"], "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
