"""Record the outputs the benchmark compares byte for byte at seed 0.

    python3 perfbench/record_reference.py

Runs every distinct op of each workload's seed-0 pass once, requires it to
pass the invariant checks, and writes the canonical JSON of its report
(every field but ``timings_ms``) to ``reference/seed0.json``.  Record only
at a commit whose outputs are known to be right: from then on the
benchmark counts any seed-0 op whose report differs as failed.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cli, _ = run._import_apolar()
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads

    reference: dict = {}
    for name in workloads.WORKLOADS:
        runner = run.Runner(cli)
        ops = {op.key: op for op in workloads.make_pass(name, run.REFERENCE_SEED)}
        reference[name] = {}
        for op in ops.values():
            runner.run_op("reference", op)
            _phase, _op, _lat, code, stdout, error = runner.records[-1]
            text, problems = workloads.check_op(op, code, stdout, error, None)
            if problems:
                print("%s/%s: %s" % (name, op.key, "; ".join(problems)),
                      file=sys.stderr)
                return 1
            reference[name][op.key] = text
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
