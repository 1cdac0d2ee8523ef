#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed) and prints, per metric, the
median and the inter-quartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    flagged = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed checks")
                flagged = True
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(args.seeds.split(','))} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                mark = "  <-- above bound/3"
                flagged = True
            print(f"  {name:40s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{mark}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
