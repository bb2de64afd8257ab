#!/usr/bin/env python3
"""Flag-validation sweep for the cvm command-line tools.

Runs the given binaries with a battery of malformed flag values and asserts
each one exits nonzero *with a mention of the offending flag* on stderr —
no silent clamping, no crash deep inside the run. A couple of known-good
invocations guard against the opposite failure (validation so strict the
tool rejects legal input). Registered as a ctest; stdlib only.

Usage: tools/check_cli_validation.py CVM_RUN_BINARY [CVM_SERVE_BINARY]
"""

import subprocess
import sys

TIMEOUT_S = 120

# (argv, substring that stderr/stdout must mention). Every case must exit
# nonzero. Cases use a tiny app config so even a bug that lets the run start
# finishes quickly instead of hanging the sweep.
BAD_RUN_CASES = [
    (["--app=sor", "--size=16", "--nodes=0"], "nodes"),
    (["--app=sor", "--size=16", "--nodes=-3"], "nodes"),
    (["--app=sor", "--size=16", "--nodes=2", "--page-size=1000"], "page-size"),
    (["--app=sor", "--size=16", "--nodes=2", "--page-size=32"], "page-size"),
    (["--app=sor", "--size=16", "--nodes=2", "--metrics-interval=0",
      "--metrics-out=/dev/null"], "metrics-interval"),
    (["--app=sor", "--size=16", "--nodes=2", "--pipeline=bogus"], "pipeline"),
    (["--app=sor", "--size=16", "--nodes=2", "--protocol=bogus"], "protocol"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=bogus"], "fault profile"),
    # The unknown-profile error must list the valid names (stress stands in
    # for "the list is actually there").
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=bogus"], "stress"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-max-attempts=0"],
     "fault-max-attempts"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-max-attempts=-1"],
     "fault-max-attempts"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=crash",
      "--fault-crash-node=99"], "fault-crash-node"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=crash",
      "--fault-crash-node=-1"], "fault-crash-node"),
    # crash-node without an armed crash is a no-op waiting to be mistaken for
    # coverage; reject it.
    (["--app=sor", "--size=16", "--nodes=2", "--fault-crash-node=1"],
     "fault-crash-node"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-crash-epoch=-2"],
     "fault-crash-epoch"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=lossy",
      "--fault-drop=1.5"], "fault-drop"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=lossy",
      "--fault-drop=-0.1"], "fault-drop"),
    (["--app=sor", "--size=16", "--nodes=2", "--fault-profile=lossy",
      "--fault-drop=0.1x"], "fault-drop"),
    (["--app=sor", "--size=16", "--nodes=2", "--trace-sample=0",
      "--trace-json=/dev/null"], "trace-sample"),
    (["--app=nosuchapp"], "app"),
    (["--app=sor", "--size=16", "--nodes=2", "--frobnicate"], "frobnicate"),
    # Removed detection modes and knobs are rejected, not silently ignored.
    (["--app=sor", "--size=16", "--nodes=2", "--intern-bitmaps"], "intern-bitmaps"),
    (["--app=sor", "--size=16", "--nodes=2", "--pipeline=sharded"], "pipeline"),
    (["--app=sor", "--size=16", "--nodes=2", "--detect-shards=2"], "detect-shards"),
    # Hierarchical-barrier / batched-detection flags: the fanout is bounded
    # by the cluster size; a batch of zero epochs is meaningless.
    (["--app=sor", "--size=16", "--nodes=2", "--detect-batch=0"], "detect-batch"),
    (["--app=sor", "--size=16", "--nodes=2", "--detect-batch=-4"], "detect-batch"),
    (["--app=sor", "--size=16", "--nodes=2", "--barrier-tree",
      "--barrier-fanout=0"], "barrier-fanout"),
    (["--app=sor", "--size=16", "--nodes=2", "--barrier-tree",
      "--barrier-fanout=9"], "barrier-fanout"),
]

GOOD_RUN_CASES = [
    ["--app=sor", "--size=16", "--nodes=2"],
    # A seeded crash run must complete and exit 0 — recovery, not abort.
    ["--app=sor", "--size=16", "--nodes=2", "--fault-profile=crash", "--seed=3"],
    ["--app=sor", "--size=16", "--nodes=2", "--fault-profile=crash",
     "--fault-crash-node=1", "--fault-crash-epoch=1", "--fault-crash-reboot"],
    # The kept tree shape (tree + batch + distributed + compressed) on a
    # legal fanout; the default fanout (4) must also pass at 2 nodes
    # (degenerates to a star).
    ["--app=sor", "--size=16", "--nodes=2", "--barrier-tree", "--barrier-fanout=2",
     "--detect-batch=2", "--pipeline=distributed", "--compress-bitmaps"],
    ["--app=sor", "--size=16", "--nodes=2", "--barrier-tree"],
    # Water above 448 molecules needs more than the default 64 locks; the
    # tool sizes the lock table from the app.
    ["--app=water", "--size=456", "--nodes=2"],
]

BAD_SERVE_CASES = [
    (["--script=/dev/null", "--workers=0"], "workers"),
    (["--script=/dev/null", "--policy=round-robin"], "policy"),
    (["--script=/dev/null", "--pipeline=bogus"], "pipeline"),
    (["--script=/dev/null", "--protocol=bogus"], "protocol"),
    (["--script=/dev/null", "--retry-budget=-1"], "retry-budget"),
    (["--script=/dev/null", "--retry-budget=1000"], "retry-budget"),
    (["--script=/dev/null", "--frobnicate"], "frobnicate"),
    (["--script=/dev/null", "--intern-bitmaps"], "intern-bitmaps"),
    (["--script=/dev/null", "--pipeline=sharded"], "pipeline"),
    (["--script=/dev/null", "--nodes=2", "--detect-shards=2"], "detect-shards"),
    (["--script=/dev/null", "--nodes=2", "--detect-batch=0"], "detect-batch"),
    (["--script=/dev/null", "--nodes=2", "--barrier-tree", "--barrier-fanout=0"],
     "barrier-fanout"),
    (["--script=/dev/null", "--nodes=2", "--barrier-tree", "--barrier-fanout=9"],
     "barrier-fanout"),
]

GOOD_SERVE_CASES = [
    ["--script=/dev/null", "--workers=1", "--nodes=2"],
    # cvm_serve has no compression flag; this is its form of the kept shape.
    ["--script=/dev/null", "--workers=1", "--nodes=2", "--barrier-tree",
     "--barrier-fanout=2", "--detect-batch=2", "--pipeline=distributed"],
]


def run(binary, argv):
    return subprocess.run(
        [binary] + argv,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=False,
    )


def sweep(binary, bad_cases, good_cases):
    failures = 0
    for argv, mention in bad_cases:
        proc = run(binary, argv)
        output = proc.stdout + proc.stderr
        if proc.returncode == 0:
            print(f"FAIL: {' '.join(argv)}: accepted (exit 0)", file=sys.stderr)
            failures += 1
        elif mention not in output:
            print(
                f"FAIL: {' '.join(argv)}: error does not mention '{mention}':\n"
                f"{output.strip()}",
                file=sys.stderr,
            )
            failures += 1
    for argv in good_cases:
        proc = run(binary, argv)
        if proc.returncode != 0:
            print(
                f"FAIL: {' '.join(argv)}: legal invocation rejected "
                f"(exit {proc.returncode}):\n{(proc.stdout + proc.stderr).strip()}",
                file=sys.stderr,
            )
            failures += 1
    return failures


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = sweep(sys.argv[1], BAD_RUN_CASES, GOOD_RUN_CASES)
    checked = len(BAD_RUN_CASES) + len(GOOD_RUN_CASES)
    if len(sys.argv) > 2:
        failures += sweep(sys.argv[2], BAD_SERVE_CASES, GOOD_SERVE_CASES)
        checked += len(BAD_SERVE_CASES) + len(GOOD_SERVE_CASES)
    if failures:
        print(f"{failures} of {checked} CLI validation case(s) failed", file=sys.stderr)
        return 1
    print(f"OK: {checked} CLI validation cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
