#!/usr/bin/env python3
"""End-to-end benchmark runner (stdlib only).

One workload, the form the BENCHMARK.json command is run with:

    python3 e2ebench/run.py --workload NAME --seed S --seconds T --trace 0|1

builds bench_e2e from source on first use (into .bench_build/e2ebench at the
repository root), runs the workload in its own process, prints bench_e2e's
full result (medians, quartiles, rep counts, errors) and then, as the last
line, {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).

Every workload, one process each:

    python3 e2ebench/run.py --seed 1[,2,3...] [--trace 0|1]
                            [--out FILE] [--against OTHER.json]

prints one `workload metric value unit` line per metric (the median over
seeds when several are given, with the quartile spread as a share of it),
writes the raw per-seed values to FILE, and with --against reports per
metric and workload whether the two result sets' medians agree within the
bound BENCHMARK.json fixes.  Exit status: 0 all good, 1 a run failed or the
sets disagree, 2 bad arguments.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}", 1)


def parse_seed(text):
    if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) >= 2**64:
        die(f"malformed seed '{text}' (expected a decimal integer in [0, 2^64))")
    return int(text)


def build():
    """Configures and builds bench_e2e; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no library sources at {os.path.join(ROOT, 'src')}", 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}", 1)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}", 1)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        trace_file = os.path.join(BUILD_DIR, f"trace-{workload}-{seed}.json")
        cmd += ["--trace", trace_file]
        print(f"run.py: spans -> {trace_file}", file=sys.stderr)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{workload} seed {seed}: bench_e2e exited {done.returncode} "
            f"without a result", 1)
    return done.returncode, result


def summary_line(result):
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(spec, ours, theirs):
    """Prints per workload and metric whether `ours` is within the bound of
    `theirs`; returns True when every pair agrees."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in sorted(ours):
        for name, record in sorted(ours[workload].items()):
            if name not in metrics or name not in theirs.get(workload, {}):
                continue
            mine = statistics.median(record["values"])
            base = statistics.median(theirs[workload][name]["values"])
            worse = (mine - base) if metrics[name]["better"] == "lower" \
                else (base - mine)
            share = worse / abs(base) if base else 0.0
            agree = share <= metrics[name]["bound"]
            ok = ok and agree
            print(f"{workload} {name} {mine:.6g} vs {base:.6g} "
                  f"worse {share:+.2%} bound {metrics[name]['bound']:.0%} "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", required=True,
                        help="a seed, or comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", help="write the per-seed values")
    parser.add_argument("--against", help="a result set written by --out")
    args = parser.parse_args()

    if args.workload is not None and args.workload not in workloads:
        die(f"unknown workload '{args.workload}' "
            f"(known: {', '.join(workloads)})")
    if not 0 < args.seconds <= 3600:
        die(f"--seconds must be in (0, 3600], got {args.seconds}")
    seeds = [parse_seed(s) for s in args.seed.split(",")]
    theirs = None
    if args.against is not None:
        try:
            with open(args.against) as f:
                theirs = json.load(f)
        except (OSError, ValueError) as e:
            die(f"cannot read {args.against}: {e}")
    trace = args.trace == "1"

    build()

    if args.workload is not None and len(seeds) == 1:
        code, result = run_workload(args.workload, seeds[0], args.seconds,
                                    trace)
        print(json.dumps(result))
        print(summary_line(result))
        return code

    chosen = [args.workload] if args.workload else workloads
    values = {w: {} for w in chosen}
    status = 0
    for seed in seeds:
        for workload in chosen:
            code, result = run_workload(workload, seed, args.seconds, trace)
            if code != 0 or not result["correct"]:
                status = 1
                print(f"run.py: {workload} seed {seed} failed: "
                      f"{result['errors']}", file=sys.stderr)
            print(f"run.py: {workload} seed {seed} done, "
                  f"{result['reps']} reps, hardware_threads "
                  f"{result['hardware_threads']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                record = values[workload].setdefault(
                    name, {"unit": m["unit"], "values": []})
                record["values"].append(m["value"])
    for workload in chosen:
        for name, record in values[workload].items():
            line = (f"{workload} {name} "
                    f"{statistics.median(record['values']):.6g} "
                    f"{record['unit']}")
            if len(seeds) > 1:
                line += f" spread {spread(record['values']):.2%}"
            print(line)
    if args.out is not None:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    if theirs is not None and not compare(spec, values, theirs):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
