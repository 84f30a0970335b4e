#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each end-to-end metric's
median and spread (interquartile range over median), next to its bound.

    python3 perfbench/spread.py <workload> [runs] [first_seed]

Run from the repository root. A benchmark is steady when every spread but
setup_s's stays well below its bound (a third of it is the target).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in range(first, first + runs):
        out = subprocess.run(
            bench["command"]
            + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED\n{out.stdout}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        print(f"{workload} {m['name']:<12} median {med:<14.6g} spread {spread:.4f}  bound {m['bound']}  (target < {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
