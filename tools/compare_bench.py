#!/usr/bin/env python3
"""Compare a BENCH_*.json run against a committed baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
                        [--strict] [--fail-over PCT]

Matches results by name and warns when `updates_per_sec` dropped by more than
the threshold (default 10%).  Rows present on only one side (a bench adding
or retiring a measurement) are WARNINGS, never failures -- a renamed or new
row should not block the PR that introduces it; only a measured regression
on a row both sides share can fail.  Exit code is 0 unless:
  * --strict is given and ANY regression beyond --threshold was found, or
  * --fail-over PCT is given and some shared measurement regressed by more
    than PCT percent.

--normalize-by NAME divides every measurement by measurement NAME on BOTH
sides before comparing, turning the absolute updates/sec compare into a
machine-relative one.  CI uses `--normalize-by calibration --fail-over 25`
for every micro-bench: `calibration` (bench/harness.h) is a fixed
multiply-mod chain that calls no library code, so no change to the library
can move it and it calibrates out runner-speed differences; only a >25%
drop RELATIVE to the machine's own speed fails the job.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    return data, {r["name"]: r for r in data.get("results", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative drop that counts as a regression")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regression instead of warning")
    parser.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                        help="exit 1 if any shared measurement regressed by "
                             "more than PCT percent (a row missing on one "
                             "side only warns)")
    parser.add_argument("--normalize-by", default=None, metavar="NAME",
                        help="divide both sides by measurement NAME first "
                             "(cancels out machine-speed differences)")
    args = parser.parse_args()

    base_meta, baseline = load(args.baseline)
    cur_meta, current = load(args.current)

    base_hw = base_meta.get("hardware_threads")
    cur_hw = cur_meta.get("hardware_threads")
    if base_hw is not None and cur_hw is not None and base_hw != cur_hw:
        # Worker-sweep rows (ingest_w*/decode_w*) scale with the lane budget,
        # so cross-machine compares of those rows measure the hardware, not
        # the code.  Warn-only: the normalized compare still calibrates the
        # single-lane rows.
        print(f"WARNING: baseline was recorded with hardware_threads="
              f"{base_hw} but this machine has {cur_hw}; threaded worker-"
              "sweep rows are not comparable across different lane budgets")

    norm_base = norm_cur = 1.0
    if args.normalize_by is not None:
        anchor_b = baseline.get(args.normalize_by)
        anchor_c = current.get(args.normalize_by)
        if anchor_b is None or anchor_c is None:
            print(f"ERROR: --normalize-by {args.normalize_by} missing from "
                  "baseline or current run")
            return 1
        norm_base = anchor_b["updates_per_sec"]
        norm_cur = anchor_c["updates_per_sec"]
        if norm_base <= 0 or norm_cur <= 0:
            print(f"ERROR: --normalize-by {args.normalize_by} is non-positive")
            return 1
        print(f"normalizing by {args.normalize_by}: baseline "
              f"{norm_base:,.0f}, current {norm_cur:,.0f} updates/sec")
        if norm_cur < norm_base * (1.0 - args.threshold):
            # The anchor's own ratio is 1.0 by construction, so a shared-
            # path regression that slows the anchor too would otherwise be
            # invisible; surface its absolute drift (warn-only: absolute
            # numbers still vary with runner hardware).
            print(f"WARNING: anchor {args.normalize_by} absolute throughput "
                  f"dropped {(1.0 - norm_cur / norm_base) * 100:.1f}% vs "
                  "baseline (runner speed or a shared-path regression; the "
                  "normalized compare cannot tell them apart)")

    regressions = []
    failures = []
    fail_ratio = (1.0 - args.fail_over / 100.0
                  if args.fail_over is not None else None)
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"WARNING  {name}: present in baseline, absent in current "
                  "run (retired or renamed row; not a failure)")
            continue
        b, c = base["updates_per_sec"] / norm_base, cur["updates_per_sec"] / norm_cur
        ratio = c / b if b else float("inf")
        tag = "ok"
        if ratio < 1.0 - args.threshold:
            tag = "REGRESSION"
            regressions.append(name)
        elif ratio > 1.0 + args.threshold:
            tag = "improved"
        if fail_ratio is not None and ratio < fail_ratio:
            tag = "FAIL"
            failures.append(name)
        unit = "x anchor" if args.normalize_by is not None else "updates/sec"
        fmt = ".4g" if args.normalize_by is not None else ",.0f"
        print(f"{tag:>10}  {name}: {b:{fmt}} -> {c:{fmt}} {unit} "
              f"({(ratio - 1.0) * 100:+.1f}%)")

    for name in sorted(set(current) - set(baseline)):
        print(f"   WARNING  {name}: "
              f"{current[name]['updates_per_sec']:,.0f} updates/sec is new "
              "(no baseline row; commit a re-baselined JSON to track it)")

    if regressions:
        print(f"\nWARNING: {len(regressions)} measurement(s) regressed more "
              f"than {args.threshold:.0%} vs {args.baseline}")
    else:
        print("\nAll measurements within threshold of the baseline.")
    if args.fail_over is not None and failures:
        print(f"FAIL: {len(failures)} measurement(s) regressed more than "
              f"{args.fail_over:.0f}%: {', '.join(failures)}")
        return 1
    if args.strict and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
