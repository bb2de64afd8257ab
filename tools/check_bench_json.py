#!/usr/bin/env python3
"""Validates the schema of the BENCH_*.json files the benches emit.

Used by the CI bench-smoke steps: after running a bench, this asserts its
JSON parses, every cell carries the full column set with sane types/values,
and the modes' relative claims hold (compressed-distributed wire bytes <=
raw bytes; reports match serial where required; flow tracing no more than
2x plain tracing). Stdlib only.

The schema is picked from the file's basename via the SCHEMAS registry;
unknown BENCH_*.json names fail loudly so a new bench cannot ship without
registering (and thereby documenting) its output format here.

Usage: tools/check_bench_json.py BENCH_detector.json
       tools/check_bench_json.py BENCH_fig4.json
       tools/check_bench_json.py BENCH_hotpath.json
       tools/check_bench_json.py BENCH_obs.json
       tools/check_bench_json.py BENCH_recovery.json
       tools/check_bench_json.py BENCH_scaling.json
       tools/check_bench_json.py BENCH_service.json
       tools/check_bench_json.py --fig4 FILE   (legacy: force fig4 schema)
"""

import json
import math
import os
import sys

DETECTOR_FIELDS = {
    "app": str,
    "mode": str,
    "procs": int,
    "compress": bool,
    "detect_epochs": int,
    "detect_ns_per_epoch": (int, float),
    "bitmap_bytes_raw_per_epoch": (int, float),
    "bitmap_bytes_wire_per_epoch": (int, float),
    "shards": int,
    "remote_pairs_compared": int,
    "remote_reports": int,
    "races": int,
    "reports_exact_match": bool,
    "reports_structural_match": bool,
}

FIG4_FIELDS = {
    "app": str,
    "protocol": str,
    "procs": int,
    "slowdown": (int, float),
    "sim_ms_detect": (int, float),
    "sim_ms_base": (int, float),
    "wall_s_detect": (int, float),
    "wall_s_base": (int, float),
}

OBS_FIELDS = {
    "app": str,
    "procs": int,
    "mode": str,
    "wall_s": (int, float),
    "sim_ms": (int, float),
    "trace_events": int,
    "flow_events": int,
    "overhead_vs_off": (int, float),
    "overhead_vs_trace": (int, float),
}

RECOVERY_FIELDS = {
    "mode": str,
    "workers": int,
    "nodes": int,
    "requests": int,
    "completed": int,
    "retried": int,
    "failed": int,
    "fabric_rebuilds": int,
    "workloads_per_sec": (int, float),
    "total_wall_s": (int, float),
    "p50_latency_s": (int, float),
    "mean_latency_s": (int, float),
}

SERVICE_FIELDS = {
    "mode": str,
    "workers": int,
    "nodes": int,
    "requests": int,
    "completed": int,
    "rejected": int,
    "warm_reuses": int,
    "workloads_per_sec": (int, float),
    "total_wall_s": (int, float),
    "p50_latency_s": (int, float),
    "p99_latency_s": (int, float),
    "mean_latency_s": (int, float),
}

HOTPATH_FIELDS = {
    "kernel": str,
    "target": str,
    "bytes_per_op": int,
    "scalar_ns": (int, float),
    "active_ns": (int, float),
    "speedup": (int, float),
    "identical_output": bool,
}

SCALING_FIELDS = {
    "nodes": int,
    "races": int,
    "reports_match": bool,
    "flat_detect_ns_per_epoch": (int, float),
    "tree_detect_ns_per_epoch": (int, float),
    "batch_detect_ns_per_epoch": (int, float),
    "flat_wire_bytes_per_epoch": (int, float),
    "tree_wire_bytes_per_epoch": (int, float),
    "batch_wire_bytes_per_epoch": (int, float),
}

MODES = {"serial", "distributed"}
OBS_MODES = {"off", "trace", "trace+flows"}
SERVICE_MODES = {"cold", "warm"}
RECOVERY_MODES = {"clean", "crash_reboot"}

# Headroom over the nominal "flow tracing <= 2x plain tracing" claim: wall
# times on shared CI runners are noisy and the bench already takes the best
# of its repetitions, so only flag clear regressions.
OBS_FLOW_OVERHEAD_LIMIT = 2.0


def fail(msg):
    print(f"SCHEMA ERROR: {msg}", file=sys.stderr)
    return 1


def check_fields(cell, index, fields):
    for name, kind in fields.items():
        if name not in cell:
            return f"cell {index}: missing field '{name}'"
        value = cell[name]
        # bool is an int subclass; keep int fields strictly non-bool.
        if fields[name] is int and isinstance(value, bool):
            return f"cell {index}: field '{name}' is bool, expected int"
        if not isinstance(value, kind):
            return f"cell {index}: field '{name}' has type {type(value).__name__}"
    return None


def check_detector(cells):
    if not cells:
        return fail("no cells")
    by_app = {}
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, DETECTOR_FIELDS)
        if err:
            return fail(err)
        if cell["mode"] not in MODES:
            return fail(f"cell {i}: unknown mode '{cell['mode']}'")
        if cell["procs"] <= 0:
            return fail(f"cell {i}: procs must be positive")
        if cell["bitmap_bytes_wire_per_epoch"] > cell["bitmap_bytes_raw_per_epoch"]:
            return fail(f"cell {i}: wire bytes exceed raw bytes")
        if cell["detect_ns_per_epoch"] < 0 or cell["detect_epochs"] < 0:
            return fail(f"cell {i}: negative time/epoch count")
        by_app.setdefault(cell["app"], {})[cell["mode"]] = cell
    for app, modes in by_app.items():
        missing = MODES - set(modes)
        if missing:
            return fail(f"app {app}: missing mode(s) {sorted(missing)}")
        serial = modes["serial"]
        if not serial["reports_exact_match"]:
            return fail(f"app {app}: serial cell must self-match")
        cell = modes["distributed"]
        # Deterministic apps must reproduce the serial report stream
        # byte-for-byte; TSP's schedule-dependent search only structurally.
        required = (
            cell["reports_structural_match"] if app == "TSP" else cell["reports_exact_match"]
        )
        if not required:
            return fail(f"app {app}/distributed: reports diverge from serial")
        if modes["distributed"]["compress"]:
            if (
                serial["bitmap_bytes_raw_per_epoch"] > 0
                and modes["distributed"]["bitmap_bytes_wire_per_epoch"]
                >= serial["bitmap_bytes_wire_per_epoch"]
            ):
                return fail(f"app {app}: compressed-distributed wire bytes not below serial")
    print(f"OK: {len(cells)} detector cells, {len(by_app)} app(s), all checks pass")
    return 0


def check_fig4(cells):
    if not cells:
        return fail("no cells")
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, FIG4_FIELDS)
        if err:
            return fail(err)
        if cell["slowdown"] < 0:
            return fail(f"cell {i}: negative slowdown")
    print(f"OK: {len(cells)} fig4 cells")
    return 0


def check_obs(cells):
    if not cells:
        return fail("no cells")
    by_mode = {}
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, OBS_FIELDS)
        if err:
            return fail(err)
        if cell["mode"] not in OBS_MODES:
            return fail(f"cell {i}: unknown mode '{cell['mode']}'")
        if cell["wall_s"] <= 0 or cell["sim_ms"] <= 0:
            return fail(f"cell {i}: non-positive wall/sim time")
        by_mode[cell["mode"]] = cell
    missing = OBS_MODES - set(by_mode)
    if missing:
        return fail(f"missing mode(s) {sorted(missing)}")
    off, trace, flows = by_mode["off"], by_mode["trace"], by_mode["trace+flows"]
    if off["trace_events"] != 0 or off["flow_events"] != 0:
        return fail("'off' mode recorded trace events")
    if trace["trace_events"] <= 0:
        return fail("'trace' mode recorded no events")
    if trace["flow_events"] != 0:
        return fail("'trace' mode recorded flow events with flows disabled")
    if flows["flow_events"] <= 0:
        return fail("'trace+flows' mode recorded no flow events")
    if flows["trace_events"] < trace["trace_events"]:
        return fail("flow mode recorded fewer events than plain tracing")
    if flows["wall_s"] > OBS_FLOW_OVERHEAD_LIMIT * trace["wall_s"]:
        return fail(
            f"flow tracing overhead {flows['wall_s'] / trace['wall_s']:.2f}x "
            f"exceeds the {OBS_FLOW_OVERHEAD_LIMIT}x budget over plain tracing"
        )
    print(
        f"OK: {len(cells)} obs cells, flow overhead "
        f"{flows['wall_s'] / trace['wall_s']:.2f}x over plain tracing"
    )
    return 0


def check_service(cells):
    if not cells:
        return fail("no cells")
    by_mode = {}
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, SERVICE_FIELDS)
        if err:
            return fail(err)
        if cell["mode"] not in SERVICE_MODES:
            return fail(f"cell {i}: unknown mode '{cell['mode']}'")
        if cell["completed"] != cell["requests"]:
            return fail(
                f"cell {i}: completed {cell['completed']} != requests {cell['requests']}"
            )
        if cell["rejected"] != 0:
            return fail(f"cell {i}: bench run shed {cell['rejected']} request(s)")
        if cell["workloads_per_sec"] <= 0 or cell["total_wall_s"] <= 0:
            return fail(f"cell {i}: non-positive throughput/wall time")
        if not 0 < cell["p50_latency_s"] <= cell["p99_latency_s"]:
            return fail(f"cell {i}: latency percentiles out of order or non-positive")
        by_mode[cell["mode"]] = cell
    missing = SERVICE_MODES - set(by_mode)
    if missing:
        return fail(f"missing mode(s) {sorted(missing)}")
    cold, warm = by_mode["cold"], by_mode["warm"]
    if cold["warm_reuses"] != 0:
        return fail("cold mode reused a fabric")
    if warm["warm_reuses"] <= 0:
        return fail("warm mode never reused a fabric")
    # No latency ordering is asserted: building a fabric costs only the pages
    # a workload touches, so warm and cold p50 are within noise of each other
    # (docs/SERVICE.md). Reuse happening and every request completing
    # (checked per cell above) are what hold.
    print(
        f"OK: {len(cells)} service cells, warm p50 is "
        f"{warm['p50_latency_s'] / cold['p50_latency_s']:.2f}x cold p50"
    )
    return 0


def check_recovery(cells):
    if not cells:
        return fail("no cells")
    by_mode = {}
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, RECOVERY_FIELDS)
        if err:
            return fail(err)
        if cell["mode"] not in RECOVERY_MODES:
            return fail(f"cell {i}: unknown mode '{cell['mode']}'")
        # Recovery never loses work: every request completes, none fail.
        if cell["completed"] != cell["requests"]:
            return fail(
                f"cell {i}: completed {cell['completed']} != requests {cell['requests']}"
            )
        if cell["failed"] != 0:
            return fail(f"cell {i}: {cell['failed']} workload(s) exhausted the retry budget")
        if cell["workloads_per_sec"] <= 0 or cell["total_wall_s"] <= 0:
            return fail(f"cell {i}: non-positive throughput/wall time")
        if cell["p50_latency_s"] <= 0:
            return fail(f"cell {i}: non-positive p50 latency")
        by_mode[cell["mode"]] = cell
    missing = RECOVERY_MODES - set(by_mode)
    if missing:
        return fail(f"missing mode(s) {sorted(missing)}")
    clean, crash = by_mode["clean"], by_mode["crash_reboot"]
    if clean["retried"] != 0 or clean["fabric_rebuilds"] != 0:
        return fail("clean mode retried or rebuilt a fabric")
    # Every crash-mode workload crashes once and reboots: one retry each,
    # each crashed attempt quarantining (and so rebuilding) its fabric.
    if crash["retried"] < crash["requests"]:
        return fail(
            f"crash mode retried only {crash['retried']} of {crash['requests']} workloads"
        )
    if crash["fabric_rebuilds"] <= 0:
        return fail("crash mode never rebuilt a quarantined fabric")
    # Recovery is work (a torn attempt + rebuild + backoff per workload), so
    # it must cost strictly more wall time than the undisturbed run.
    if crash["total_wall_s"] <= clean["total_wall_s"]:
        return fail(
            f"crash-mode wall time {crash['total_wall_s']:.4f}s not above "
            f"clean {clean['total_wall_s']:.4f}s"
        )
    print(
        f"OK: {len(cells)} recovery cells, {crash['retried']} retries, "
        f"crash mode costs {crash['total_wall_s'] / clean['total_wall_s']:.2f}x clean"
    )
    return 0


HOTPATH_TARGETS = {"sse2", "neon", "word"}
HOTPATH_KERNELS = {"compare", "intersect_bits", "set_bits", "diff_make"}
# Kernels that must beat the scalar reference outright: the full-scan
# compare and the twin-vs-page diff, where the word/SIMD win is structural.
# The extraction kernels (intersect_bits/set_bits) are ctz-bound on sparse
# inputs — on the word target both faces run near-identical loops, so they
# only have to not regress beyond codegen/timer noise.
HOTPATH_MUST_WIN = {"compare", "diff_make"}
HOTPATH_NOISE_HEADROOM = 1.25


def check_hotpath(cells):
    if not cells:
        return fail("no cells")
    seen = set()
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, HOTPATH_FIELDS)
        if err:
            return fail(err)
        if cell["kernel"] not in HOTPATH_KERNELS:
            return fail(f"cell {i}: unknown kernel '{cell['kernel']}'")
        if cell["target"] not in HOTPATH_TARGETS:
            return fail(f"cell {i}: unknown target '{cell['target']}'")
        if cell["scalar_ns"] <= 0 or cell["active_ns"] <= 0:
            return fail(f"cell {i}: non-positive kernel time")
        if cell["bytes_per_op"] <= 0:
            return fail(f"cell {i}: non-positive bytes_per_op")
        if not cell["identical_output"]:
            return fail(
                f"kernel {cell['kernel']}: active and scalar faces diverged "
                "(bit-exactness is the contract the parity suites rely on)"
            )
        if cell["kernel"] in HOTPATH_MUST_WIN and cell["active_ns"] > cell["scalar_ns"]:
            return fail(
                f"kernel {cell['kernel']} ({cell['target']}): active "
                f"{cell['active_ns']:.1f}ns is slower than scalar "
                f"{cell['scalar_ns']:.1f}ns"
            )
        if cell["active_ns"] > HOTPATH_NOISE_HEADROOM * cell["scalar_ns"]:
            return fail(
                f"kernel {cell['kernel']}: active face regresses "
                f"{cell['active_ns'] / cell['scalar_ns']:.2f}x over scalar"
            )
        seen.add(cell["kernel"])
    missing = HOTPATH_KERNELS - seen
    if missing:
        return fail(f"missing kernel cell(s) {sorted(missing)}")
    wins = {c["kernel"]: c["speedup"] for c in cells if c["kernel"] in HOTPATH_MUST_WIN}
    print(
        f"OK: {len(cells)} hotpath cells on target "
        f"'{cells[0]['target']}', compare {wins['compare']:.2f}x, "
        f"diff_make {wins['diff_make']:.2f}x over scalar"
    )
    return 0


# The tentpole acceptance bar for the combine-tree barrier: sub-quadratic
# growth. Log-log slope between consecutive swept sizes must stay below 2
# on the tree curves (flat is O(n^2) by construction and is not held to it).
SCALING_EXPONENT_LIMIT = 2.0


def check_scaling(cells):
    if len(cells) < 2:
        return fail("need at least two swept sizes")
    for i, cell in enumerate(cells):
        err = check_fields(cell, i, SCALING_FIELDS)
        if err:
            return fail(err)
        if cell["nodes"] <= 0:
            return fail(f"cell {i}: non-positive node count")
        if not cell["reports_match"]:
            return fail(
                f"cell {i} ({cell['nodes']} nodes): race reports diverge "
                "between flat and tree/batched pipelines"
            )
        if cell["races"] <= 0:
            return fail(f"cell {i}: workload reported no races")
        for name in ("tree_detect_ns_per_epoch", "tree_wire_bytes_per_epoch"):
            if cell[name] <= 0:
                return fail(f"cell {i}: non-positive {name}")
    if [c["nodes"] for c in cells] != sorted(c["nodes"] for c in cells):
        return fail("cells not sorted by node count")
    worst = 0.0
    for prev, cur in zip(cells, cells[1:]):
        ratio = math.log(cur["nodes"] / prev["nodes"])
        for name in ("tree_detect_ns_per_epoch", "tree_wire_bytes_per_epoch"):
            exponent = math.log(cur[name] / prev[name]) / ratio
            worst = max(worst, exponent)
            if exponent >= SCALING_EXPONENT_LIMIT:
                return fail(
                    f"{name} grows with exponent {exponent:.2f} from "
                    f"{prev['nodes']} to {cur['nodes']} nodes (bar: < "
                    f"{SCALING_EXPONENT_LIMIT})"
                )
    print(
        f"OK: {len(cells)} scaling cells "
        f"({cells[0]['nodes']}..{cells[-1]['nodes']} nodes), reports "
        f"identical everywhere, worst tree exponent {worst:.2f}"
    )
    return 0


# Basename -> validator. Every BENCH_*.json a bench writes must appear here.
SCHEMAS = {
    "BENCH_detector.json": check_detector,
    "BENCH_fig4.json": check_fig4,
    "BENCH_hotpath.json": check_hotpath,
    "BENCH_obs.json": check_obs,
    "BENCH_recovery.json": check_recovery,
    "BENCH_scaling.json": check_scaling,
    "BENCH_service.json": check_service,
}


def main():
    args = sys.argv[1:]
    fig4 = "--fig4" in args
    paths = [a for a in args if not a.startswith("--")]
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = paths[0]
    base = os.path.basename(path)
    if fig4:
        checker = check_fig4
    elif base in SCHEMAS:
        checker = SCHEMAS[base]
    elif base.startswith("BENCH_") and base.endswith(".json"):
        return fail(
            f"unknown bench output '{base}': register its schema in "
            "tools/check_bench_json.py SCHEMAS"
        )
    else:
        # Preserve the historical default for odd names (temp files in tests).
        checker = check_detector
    try:
        with open(path, encoding="utf-8") as f:
            cells = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(cells, list):
        return fail("top level must be a JSON array")
    return checker(cells)


if __name__ == "__main__":
    sys.exit(main())
