#!/usr/bin/env python3
"""Self-check of the benchmark: a shortened run of every workload.

    python3 perfbench/selfcheck.py

Run from the repository root.  For each workload in BENCHMARK.json it
runs perfbench/run.py --quick untraced and traced, and fails (exit 1)
unless each run's last stdout line is the result object with exactly the
keys correct/attempted/failed/metrics, passes its output check (which
includes the same digest for the untraced, traced and earlier runs of
the seed), and reports every metric BENCHMARK.json names for that mode,
with its unit, as a finite number -- non-zero for end-to-end metrics.
"""

import json
import math
import subprocess
import sys


def run(workload, trace):
    r = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    if r.returncode != 0:
        return None, "exit %d: %s" % (r.returncode, r.stderr.decode(errors="replace")[-1000:])
    return json.loads(r.stdout.decode().strip().splitlines()[-1]), None


def problems(result, expected, nonzero):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append("result keys %s" % sorted(result))
        return out
    if result["correct"] is not True:
        out.append("output check failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        out.append("attempted = %r" % result["attempted"])
    if result["failed"] != 0:
        out.append("failed = %r" % result["failed"])
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        out.append("missing %s, unexpected %s"
                   % (sorted(names - set(metrics)), sorted(set(metrics) - names)))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        v = got.get("value")
        if got.get("unit") != m["unit"]:
            out.append("%s unit %r != %r" % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append("%s value %r" % (m["name"], v))
        elif nonzero and v == 0:
            out.append("%s is 0" % m["name"])
    return out


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, err = run(w["name"], trace)
            found = [err] if err else problems(result, expected, nonzero=trace == 0)
            print("%-16s trace=%d: %s" % (w["name"], trace, "; ".join(found) or "ok"))
            bad += bool(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
