#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs `perfbench/run.py --trace 0` once per seed (first-seed, first-seed+1,
...) on each workload (default: all of BENCHMARK.json's), then prints per
end-to-end metric the median and the spread: the distance between the
first and third quartile of statistics.quantiles(values, n=4), as a share
of the median. A spread under a third of the metric's bound is steady;
setup_s is held only to its median. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            print(f"{workload:24} {metric['name']:14} median {median:<12.6g} "
                  f"spread {spread:.4f} (bound {metric['bound']}) "
                  f"{'' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
