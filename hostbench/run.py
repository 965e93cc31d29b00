#!/usr/bin/env python3
"""Host-cost benchmark entry point.

    python3 hostbench/run.py --workload train_2d --seed 1 --seconds 24 --trace 0

Builds the benchmark program (host_bench) from this checkout's sources into
.bench_build/ (incremental after the first run), runs one workload, checks
the shape of its result against BENCHMARK.json, and prints host_bench's
lines with the result JSON object as the last line. Exits non-zero, printing no result, when
the sources are missing, the build fails, the run fails or its result does
not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to hostbench/: run from a full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer" if trace else "end_to_end"]
    return spec, {m["name"]: m["unit"] for m in table}


def check_result(result, spec, want, workload):
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    if workload not in {w["name"] for w in spec["workloads"]}:
        return f"workload {workload} is not in BENCHMARK.json"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} units {units}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, want = expected_metrics(args.trace)
    binary = os.path.join(build(["host_bench"]), "host_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"host_bench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("host_bench printed no result line")
    error = check_result(result, spec, want, args.workload)
    if error:
        fail(error)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
