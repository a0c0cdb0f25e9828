#!/usr/bin/env python3
"""Fail if a traced perfbench count rose above its committed baseline.

    python3 ci/check_counts.py [--baseline ci/perfbench_counts.json] [--write]

For every workload in the baseline this runs

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 2 --trace 1

and compares the counts it reports (daemon requests, launches and bytes,
wire messages and stream bytes per command, coherence bytes per dirty
byte) with the baseline.  These counts are exact for a given seed: they
are taken over a fixed window of rounds, not over wall-clock time, so any
rise is a change in what the program does, not noise.  A count that fell
is reported but passes; commit the new figure to keep the gate tight.
`--write` stores the counts of this run as the new baseline: commit it with
a change that lowers a count, and quote the diff in CHANGES.md.  It writes
nothing when a count rose (or went missing) or a run was not correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Relative slack for the ratios, which are printed as floats.
TOLERANCE = 1e-9


def traced_counts(workload, seed):
    """Run one traced workload; return its metrics, or exit on failure."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", "1",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: perfbench run failed (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if report["correct"] is not True or report["failed"] != 0:
        sys.exit(f"{workload}: run not correct ({report['failed']} failed operations)")
    return {name: m["value"] for name, m in report["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join(ROOT, "ci", "perfbench_counts.json"))
    parser.add_argument("--write", action="store_true", help="store this run's counts as the baseline")
    args = parser.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    seed = baseline["seed"]
    risen = []
    counts = {}
    for workload, expected in baseline["workloads"].items():
        got = traced_counts(workload, seed)
        counts[workload] = {name: got[name] for name in expected if name in got}
        for name, limit in expected.items():
            if name not in got:
                risen.append(f"{workload} {name}: missing from the report")
                continue
            value = got[name]
            verdict = "ok"
            if value > limit + TOLERANCE * max(abs(limit), 1.0):
                verdict = "ROSE"
                risen.append(f"{workload} {name}: {limit} -> {value}")
            elif value < limit - TOLERANCE * max(abs(limit), 1.0):
                verdict = "fell (--write updates the baseline)"
            print(f"[{workload}] {name} = {value} (baseline {limit}) {verdict}")
    if risen:
        print("counts rose:\n  " + "\n  ".join(risen), file=sys.stderr)
        if args.write:
            print(f"not writing {args.baseline}", file=sys.stderr)
        return 1
    if args.write:
        with open(args.baseline, "w") as f:
            json.dump({"seed": seed, "workloads": counts}, f, indent=2)
            f.write("\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
