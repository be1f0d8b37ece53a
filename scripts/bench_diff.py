#!/usr/bin/env python3
"""Compare two google-benchmark JSON snapshots benchmark by benchmark.

    scripts/bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]

Prints one line per benchmark present in both files with the real_time
delta (negative = faster), plus benchmarks that appear on only one side.
With --threshold, exits 1 if any shared benchmark regressed (got slower)
by more than PCT percent, or if a baseline row is missing from the
current run (a gated row that was not measured is not a pass). Rows only
in the current run pass. This is the form CI wants:

    scripts/check.sh --bench-smoke /tmp/current.json
    scripts/bench_diff.py BENCH_results.json /tmp/current.json --threshold 75

Both snapshots should come from `scripts/check.sh --bench-smoke` (Release
builds, fixed DFS_THREADS); comparing a debug snapshot to a release one
measures the compiler, not the change.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: (real_time, time_unit)} for one snapshot."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    benchmarks = {}
    for entry in report.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions); the raw
        # iterations row carries run_type "iteration" (or no run_type in
        # older library versions).
        if entry.get("run_type", "iteration") != "iteration":
            continue
        benchmarks[entry["name"]] = (
            float(entry["real_time"]),
            entry.get("time_unit", "ns"),
        )
    return benchmarks


def main():
    parser = argparse.ArgumentParser(
        description="Per-benchmark real_time delta between two snapshots")
    parser.add_argument("baseline", help="baseline snapshot (JSON)")
    parser.add_argument("current", help="current snapshot (JSON)")
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="exit 1 if any benchmark is more than PCT%% slower "
             "than the baseline or missing from the current run")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("bench_diff: no benchmarks in common", file=sys.stderr)
        return 1

    width = max(len(name) for name in shared)
    regressions = []
    for name in shared:
        base_time, base_unit = baseline[name]
        cur_time, cur_unit = current[name]
        if base_unit != cur_unit:
            print(f"bench_diff: {name}: unit mismatch "
                  f"({base_unit} vs {cur_unit})", file=sys.stderr)
            return 1
        delta_pct = (cur_time - base_time) / base_time * 100.0
        speedup = base_time / cur_time if cur_time > 0 else float("inf")
        print(f"{name:<{width}}  {base_time:>12.1f} -> {cur_time:>12.1f} "
              f"{cur_unit}  {delta_pct:+7.1f}%  ({speedup:.2f}x)")
        if args.threshold is not None and delta_pct > args.threshold:
            regressions.append((name, delta_pct))

    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"{name:<{width}}  only in baseline")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  only in current")

    if args.threshold is None:
        return 0
    for name, delta_pct in regressions:
        print(f"bench_diff: REGRESSION {name}: {delta_pct:+.1f}% "
              f"(threshold {args.threshold:+.1f}%)", file=sys.stderr)
    for name in missing:
        print(f"bench_diff: MISSING {name}: in the baseline but not "
              f"measured in the current run", file=sys.stderr)
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main())
