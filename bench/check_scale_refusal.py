"""Checks that bench_sec9_scalability refuses a radix it cannot build
instead of aborting.

k=64 outgrows the 10.0.x.y address plan. The sharded sweep must report
that cell as failed with its reason, still print the k=4 cell, write the
JSON with scenario_ok 1 for k=4 and 0 for k=64, and exit 1.

Usage: check_scale_refusal.py <bench_sec9_scalability binary> <json path>
"""

import json
import os
import subprocess
import sys


def main():
    bench, json_path = sys.argv[1], sys.argv[2]
    if os.path.exists(json_path):
        os.remove(json_path)  # a stale report must not pass for this run
    proc = subprocess.run(
        [bench, "--simulate", "--k", "4", "--threads", "1",
         "--kpar", "4,64", "--json", json_path],
        capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)

    problems = []
    if proc.returncode != 1:
        problems.append(f"exit status {proc.returncode}, expected 1")
    if "k=64, threads=1" not in proc.stderr or \
            "caps at 64000" not in proc.stderr:
        problems.append("no failure line giving the k=64 cell's reason")
    sharded = proc.stdout.partition("sharded-engine sweep")[2]
    if not any(line.split()[:2] == ["4", "16"]
               for line in sharded.splitlines()):
        problems.append("the k=4 sharded cell was not printed")
    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as f:
            doc = json.load(f)
        ok = {m["component"]: m["value"] for m in doc["metrics"]
              if m["name"] == "scenario_ok"}
        if ok.get("scale.k4.t1") != 1.0:
            problems.append(f"scale.k4.t1 scenario_ok {ok.get('scale.k4.t1')}")
        if ok.get("scale.k64.t1") != 0.0:
            problems.append(
                f"scale.k64.t1 scenario_ok {ok.get('scale.k64.t1')}")
    else:
        problems.append("no JSON report was written")

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
