#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny]

Builds the harness (perfbench/planck_perf.cpp, linked against ../src) into
.bench_build/, then runs the workload for about --seconds seconds, one
fresh process per repetition, and prints a summary followed by one JSON
line:

    {"correct": true, "attempted": <flows>, "failed": <flows>,
     "metrics": {"<name>": {"value": <v>, "unit": "<u>"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (timings from
the fastest repetition, memory as the median); --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics. Output checks run on every repetition; a
failed check prints "correct": false and exits 1. A build failure exits 2
without printing a result. README.md in this directory explains the
workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "planck_perf")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("control_loop_k4", "fabric_build_k10", "bulk_static_k8",
             "sharded_k8_t2")
MIN_REPS = 3          # untraced repetitions, even past --seconds
MIN_PAIRS = 2         # untraced+traced pairs in a traced run
REP_TIMEOUT_S = 150   # one repetition; a hung process is killed
# Results that must repeat exactly across repetitions of one seed, traced
# or not: the simulated answers.
DETERMINISTIC = ("digest", "events", "flows_completed", "fct_p50_ms",
                 "fct_p90_ms", "detect_ms", "detect_to_reroute_ms")


def build():
    """Configures and builds the harness (a no-op when up to date);
    False on any failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j4", "--target", "planck_perf"]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write(f"perfbench: {' '.join(cmd)}: {e}\n")
            return False
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            return False
    return True


def run_rep(args, trace_path=None):
    """One repetition in a fresh process. Returns its result dict, with
    the process's failures folded into "failures"."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    lines = r.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(r.stderr)
        return {"failures": [f"harness exited {r.returncode} without a result"]}
    if r.returncode != 0 and not rep["failures"]:
        rep["failures"].append(f"harness exited {r.returncode}")
    return rep


def repeat(args):
    """Runs repetitions for about args.seconds. Untraced: at least
    MIN_REPS. Traced: untraced/traced pairs, at least MIN_PAIRS."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_rep(args))
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            path = os.path.join(
                TRACE_DIR, f"{args.workload}-seed{args.seed}-{len(traced)}.json")
            traced.append(run_rep(args, path))
        done = len(plain)
        elapsed = time.monotonic() - start
        enough = done >= (MIN_PAIRS if args.trace else MIN_REPS)
        if enough and elapsed + elapsed / done > args.seconds:
            return plain, traced


def check(reps):
    """Output checks across repetitions: each repetition's own checks,
    then that every repetition (traced or not) computed the same
    simulated answers."""
    failures = []
    for i, rep in enumerate(reps):
        failures += [f"repetition {i}: {f}" for f in rep.get("failures", [])]
    complete = [r for r in reps if "digest" in r]
    for key in DETERMINISTIC:
        values = {json.dumps(r[key]) for r in complete}
        if len(values) > 1:
            failures.append(f"{key} differs across repetitions: "
                            f"{sorted(values)}")
    return failures


def fastest(reps, key):
    return min(r[key] for r in reps)


def quartile_spread(values):
    """(Q3 - Q1) / median, 0 for fewer than two values."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(plain):
    """Timings: the fastest repetition (interference on a shared host only
    ever slows a repetition down). Memory: the median. Simulated answers:
    identical in every repetition."""
    return {
        "setup_s": fastest(plain, "setup_s"),
        "run_s": fastest(plain, "run_s"),
        "wall_s": fastest(plain, "wall_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "fct_p50_ms": plain[0]["fct_p50_ms"],
        "fct_p90_ms": plain[0]["fct_p90_ms"],
    }


def per_layer(plain, traced):
    """Layer timings: the fastest traced repetition; layer counts are
    identical in every repetition."""
    first = traced[0]
    values = {name: min(r["layers"][name] for r in traced)
              for name in first["layers"]}
    # Each traced repetition runs right after an untraced one, so a pair
    # shares the host's state; the median pair ratio cancels slow periods.
    values["obs.trace_overhead_frac"] = statistics.median(
        t["run_s"] / p["run_s"] for p, t in zip(plain, traced)) - 1.0
    values["detect_ms"] = first["detect_ms"]
    values["detect_to_reroute_ms"] = first["detect_to_reroute_ms"]
    values["fct_samples"] = first["fct_samples"]
    values["flow_fail_frac"] = (
        1.0 - first["flows_completed"] / first["flows_started"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small fabrics and flows, for the selftest")
    args = parser.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"perfbench: cannot read {SPEC}: {e}\n")
        return 2
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2

    plain, traced = repeat(args)
    reps = plain + traced
    failures = check(reps)
    complete = [r for r in reps if "digest" in r]
    correct = not failures and len(complete) == len(reps)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if correct:
        values = per_layer(plain, traced) if args.trace else end_to_end(plain)
        for m in wanted:
            if m["name"] not in values:
                failures.append(f"metric {m['name']} not produced")
                correct = False
                continue
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    attempted = sum(r.get("flows_started", 0) for r in reps)
    failed = sum(r.get("flows_started", 0) - r.get("flows_completed", 0)
                 for r in reps)
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed {args.seed} ({mode}): "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    if complete:
        print(f"  flows {attempted} started, {failed} unfinished "
              f"(flow_fail_frac {failed / max(attempted, 1):.6g}); "
              f"fct samples per repetition {complete[0]['fct_samples']}; "
              f"digest {complete[0]['digest']}")
    for key in ("setup_s", "run_s", "wall_s", "peak_rss_mb"):
        values = [r[key] for r in plain if key in r]
        if values:
            print(f"  {key:<12} median {statistics.median(values):.6g}  "
                  f"min {min(values):.6g}  "
                  f"quartile spread {quartile_spread(values):.3f}  "
                  f"(n={len(values)})")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
