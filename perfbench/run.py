#!/usr/bin/env python3
"""LingXi benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from ../src) as a Release
CMake project under .bench_build/ at the repository root, then runs one
workload. With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics. Lines before it are comments (provenance, unit counts). Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative paths
    # are taken from the repository root).
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", "lingxi_perfbench"])
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                               timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as err:
                fail(f"build step failed: {' '.join(cmd)}: {err}")
    return os.path.join(out, "lingxi_perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace == "1")
    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"run failed: {err}")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
