#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--trace 0] [WORKLOAD ...]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) for each
workload, from the repository root, and prints per metric the median and
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  Raw results are appended to .perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(".perfbench", exist_ok=True)
    for w in workloads:
        values = {}
        for k in range(args.runs):
            seed = args.seed0 + k
            t = time.monotonic()
            r = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
            elapsed = time.monotonic() - t
            with open(os.path.join(".perfbench", "spread.jsonl"), "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "elapsed_s": elapsed,
                                    "result": res}) + "\n")
            print("%s seed %d: %.1f s, correct=%s" % (w, seed, elapsed, res["correct"]),
                  file=sys.stderr, flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds from %d)" % (w, args.runs, args.seed0))
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = "%.3f" % ((q[2] - q[0]) / abs(med))
            else:
                spread = "-"
            bound = bounds.get(name)
            print("%-40s median %-14.6g spread %-7s bound %s" % (name, med, spread, bound))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
