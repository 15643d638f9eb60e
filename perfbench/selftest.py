#!/usr/bin/env python3
"""Selftest for the benchmark: a tiny-size pass of every workload.

    python3 perfbench/selftest.py

Runs run.py on every workload of BENCHMARK.json with --size tiny (k=4
fabrics, small flows), untraced and traced, and asserts that each run
passes its output checks and prints every end-to-end (untraced) or
per-layer (traced) metric of BENCHMARK.json, by name, with its unit and a
finite value. Takes about ten seconds after the first build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def problems(workload, trace, spec):
    rc, result = run(workload, trace)
    if result is None:
        return [f"exit {rc}, no result line"]
    found = []
    if rc != 0 or not result["correct"]:
        found.append(f"exit {rc}, correct={result['correct']}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        found.append(f"attempted {result['attempted']}, "
                     f"failed {result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        found.append(f"unlisted metrics {sorted(extra)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            found.append(f"{m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            found.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{m['name']} value {value!r}")
        elif not trace and value <= 0:
            found.append(f"{m['name']} end-to-end value {value} is not > 0")
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = problems(w["name"], trace, spec)
            status = "ok" if not found else "FAIL"
            print(f"{w['name']:<18} trace={trace}  {status}")
            for p in found:
                print(f"    {p}")
            failed = failed or bool(found)
    print("selftest " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
