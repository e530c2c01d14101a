#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload dysim-yelp-1t --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds the
imdpp library and the perfbench binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The binary runs the
workload as a closed loop of plan calls and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; this script checks the names and units against that
file before passing the line on. Build logs and the human-readable metric
table go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """{name: unit} for this mode from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, expected):
    """Why `result` breaks the output contract, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, wrong units {wrong}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        return fail(f"no imdpp sources under {ROOT}/src; run from a "
                    "checkout of the repository")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        return fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail(f"no result (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail(f"last line is not JSON: {lines[-1][:200]}")
    problem = check_result(result, expected_metrics(args.trace))
    if problem is not None:
        return fail(problem)
    print(lines[-1])
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
