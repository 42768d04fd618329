#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver and the itspq library are
built with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs only
re-check the build. The driver's human-readable report goes to stderr;
the last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are checked against BENCHMARK.json (end_to_end with
--trace 0, per_layer with --trace 1). Exit status: 0 when every answer
and ledger check held; non-zero, with no result line, when the build or
the driver fails; non-zero after printing the result when an answer or
ledger check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The driver is killed past this, so a wedged run still ends within
# three minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures once, then builds the driver; output goes to stderr."""
    if not (out_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", str(out_dir), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    binary = out_dir / "perfbench"
    if not binary.exists():
        fail(f"no driver binary at {binary}")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    trace = args.trace == "1"

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work_dir)]
    if trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")

    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"driver printed no result (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON (exit {run.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit changes {sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}")
    print(json.dumps(result))
    if run.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
