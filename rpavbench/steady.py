#!/usr/bin/env python3
"""Check that the benchmark is steady at the default and the held-out seed.

    python3 rpavbench/steady.py [--runs 5] [--seconds 30] [workload ...]

Run from the repository root. For each workload (default: all three),
runs the benchmark `--runs` times at the default seed and `--runs` times
at the held-out seed, untraced, and prints for every end-to-end metric
the median and the run-to-run spread (interquartile range over median,
as `statistics.quantiles(values, n=4)` gives the quartiles) at each seed.
A spread is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json (`setup_s` is not flagged: its drift, not its spread, is
bounded). Exits non-zero if any run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for wl in workloads:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            results = [run_once(wl, seed, seconds) for _ in range(a.runs)]
            ok &= all(r["correct"] and r["failed"] == 0 for r in results)
            print(f"{wl} seed {seed}: {a.runs} runs of {seconds} s")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                flag = "" if name == "setup_s" or spread <= bound / 3 else "  UNSTEADY"
                print(f"  {name:30s} median {med:14.6g}  spread {spread:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
