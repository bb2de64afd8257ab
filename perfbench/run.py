#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload sor-access --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every metric, every workload

The program prints a table of metrics (name, value, unit, clock) and then,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; this script checks that before
passing the line on. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sor-access", "water-locks", "lu-tree"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args):
    """Runs one workload; echoes the table and returns the parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: benchmark did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: benchmark exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in got if n in want and got[n] != want[n]]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if args.workload != "all":
        print(json.dumps(run_workload(binary, args.workload, args)))
        return
    # Every workload in turn; the last line merges them as "<workload>/<metric>".
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
