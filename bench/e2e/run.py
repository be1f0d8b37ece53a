#!/usr/bin/env python3
"""End-to-end benchmark runner (bench/e2e/README.md).

One run, as BENCHMARK.json's "command" is invoked (from the repo root):

  python3 bench/e2e/run.py --workload study --seed 1 --seconds 30 --trace 0

builds bench/e2e into .bench_build/e2e on first use, runs dfs_bench once,
checks its outputs (and, at a workload's default seed, its committed digest)
and prints one JSON object as the last stdout line:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (a traced run; the trace lands in
.bench_build/e2e/runs/ for breakdown.py).

Other modes:
  run.py --runs N --out R.json [--held-out]
         [--parent-binary P --parent-out A.json]
      N runs per workload, each in its own process, each with its own seed;
      prints per (workload, metric) median, quartiles, n, unit and bound,
      and per workload the error rate (failed / attempted). With
      --parent-binary, runs alternate with the parent's binary.
  run.py --compare A.json B.json
      A = parent, B = change: within bound / regressed / improved /
      unresolved per (workload, metric), and the error rates.
  run.py --smoke [--binary PATH]
      Correctness smoke at reduced scale (the bench.e2e.smoke ctest of
      this package; nothing runs it automatically).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUNS = os.path.join(BUILD, "runs")
BINARY = os.path.join(BUILD, "dfs_bench")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import breakdown  # noqa: E402  (sibling module)


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def workload_spec():
    return load_json(os.path.join(HERE, "workloads.json"))


def ensure_built():
    """Configures (once) and builds the Release benchmark package; build
    output goes to stderr so stdout keeps only the result line."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return BINARY


def run_bench(binary, workload, seed, seconds, trace, smoke=False,
              directory=RUNS):
    """Runs dfs_bench once; returns its result object (plus trace path).
    The result (and trace) are kept in `directory` for breakdown.py."""
    os.makedirs(directory, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds),
               "--spill-path", os.path.join(directory, stem + ".spill")]
    if smoke:
        command.append("--smoke")
    trace_path = None
    if trace:
        trace_path = os.path.join(directory, stem + ".trace.jsonl")
        command += ["--trace-out", trace_path]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"dfs_bench exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["trace_path"] = trace_path
    result["seconds"] = seconds
    result["traced"] = bool(trace)
    with open(os.path.join(directory, f"{stem}-trace{int(bool(trace))}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def check_digest(result, seconds):
    """At a workload's default seed and the benchmark's run length the
    outputs must reproduce the committed digest exactly."""
    spec = workload_spec()[result["workload"]]
    if result["smoke"] or result["seed"] != spec["seed"]:
        return
    if seconds != benchmark_spec()["run_seconds"]:
        return
    if result["outputs_digest"] != spec["digest"]:
        result["correct"] = False
        result["problems"].append(
            f"outputs_digest {result['outputs_digest']} != committed "
            f"{spec['digest']}")


def layer_values(result):
    """Per-layer values: dfs_bench's registry and replay rows plus the
    per-job serve layers folded from the trace."""
    values = dict(result["layers"])
    if result.get("trace_path"):
        values.update(breakdown.serve_layers(
            breakdown.load_spans(result["trace_path"])))
    return values


def result_line(result, trace):
    spec = benchmark_spec()
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer_values(result) if trace else result["metrics"]
    metrics = {}
    for entry in entries:
        value = source.get(entry["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def one_run(args):
    binary = args.binary or ensure_built()
    result = run_bench(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    check_digest(result, args.seconds)
    for problem in result["problems"]:
        log("problem: " + problem)
    log(f"{args.workload} seed {args.seed}: digest "
        f"{result['outputs_digest']}, correct {result['correct']}")
    print(json.dumps(result_line(result, args.trace)))


# --- statistics -----------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_context():
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {"nproc": os.cpu_count(), "loadavg_1m": load1,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S")}


def summarize(results, spec, seconds, context):
    report = {"context": dict(context), "run_seconds": seconds, "runs": {},
              "summary": {}}
    for name, runs in results.items():
        report["runs"][name] = runs
        summary = {}
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]] for r in runs]
            q1, q3 = quartiles(values)
            summary[entry["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values), "unit": entry["unit"],
                "better": entry["better"], "bound": entry["bound"],
                "values": values}
        summary["correct"] = all(r["correct"] for r in runs)
        summary["failed"] = sum(r["failed"] for r in runs)
        summary["attempted"] = sum(r["attempted"] for r in runs)
        summary["error_rate"] = summary["failed"] / summary["attempted"]
        summary["seeds"] = [r["seed"] for r in runs]
        summary["digests"] = sorted({r["outputs_digest"] for r in runs})
        report["summary"][name] = summary
        report["context"]["dfs_build_type"] = runs[0]["build_type"]
    return report


def stats_mode(args):
    """N runs per workload, each with its own seed. With --parent-binary
    every run is paired with a run of the parent's binary on the same seed,
    alternating which side goes first, so host drift between minutes falls
    on both sides alike. Both reports then carry one session id, which
    tells --compare to compare run i of one side with run i of the other."""
    binary = args.binary or ensure_built()
    context = host_context()
    context["session"] = f"{context['started']}-{os.getpid()}"
    spec = benchmark_spec()
    seeds = workload_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = [("change", binary, args.out)]
    if args.parent_binary:
        sides.append(("parent", args.parent_binary, args.parent_out))
    results = {side: {name: [] for name in names} for side, _, _ in sides}
    for name in names:
        base = seeds[name]["held_out_seed" if args.held_out else "seed"]
        for i in range(args.runs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side, side_binary, _ in order:
                result = run_bench(side_binary, name, base + i, seconds,
                                   trace=False)
                check_digest(result, seconds)
                result_line(result, trace=False)  # every metric measured
                log(f"{name} {side} run {i + 1}/{args.runs}: "
                    + " ".join(f"{k}={v:.4g}"
                               for k, v in result["metrics"].items()))
                results[side][name].append(result)
    for side, _, out in sides:
        report = summarize(results[side], spec, seconds, context)
        report["context"]["loadavg_1m_end"] = os.getloadavg()[0]
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"-- {side}: {out}")
        print_summary(report)


def print_summary(report):
    ctx = report["context"]
    print(f"host: nproc={ctx['nproc']} load1={ctx['loadavg_1m']} "
          f"build={ctx['dfs_build_type']} run_seconds={report['run_seconds']}")
    for name, summary in report["summary"].items():
        print(f"{name}: correct={summary['correct']} "
              f"failed={summary['failed']}/{summary['attempted']} "
              f"error_rate={summary['error_rate']:.3g}")
        for metric, s in summary.items():
            if not isinstance(s, dict):
                continue
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0
            print(f"  {metric:16s} median {s['median']:12.4f} {s['unit']:6s} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} n {s['n']:2d} "
                  f"spread {spread:6.1%} bound {s['bound']:.0%}")


def spread_of(s):
    return (s["q3"] - s["q1"]) / (s["median"] or 1e-12)


def compare_mode(args):
    """Verdict per workload, A = parent, B = change.

    The error rate comes first: a side with a run whose outputs were wrong
    is invalid, and B failing a larger share of requests than A is a
    regression; either way no metric counts as improved. Then per metric:
    improved when B wins at least nine tenths of the pairs (run i against
    run i when both reports come from one --parent-binary session, which
    ran them on the same seeds, else every A run against every B run) and
    the medians differ by more than A's own spread; otherwise unresolved
    when either side's spread exceeds the bound, regressed when B's median
    is worse by more than the bound, and within bound else. Exits 1 if
    anything regressed or a side is invalid."""
    a, b = load_json(args.compare[0]), load_json(args.compare[1])
    paired = (a["context"].get("session") is not None
              and a["context"].get("session") == b["context"].get("session"))
    worst = 0
    for name in a["summary"]:
        if name not in b["summary"]:
            continue
        wa, wb = a["summary"][name], b["summary"][name]
        if not (wa["correct"] and wb["correct"]):
            verdict = "invalid (wrong outputs on the " + \
                ("parent" if not wa["correct"] else "change") + " side)"
        elif wb["error_rate"] > wa["error_rate"]:
            verdict = "regressed"
        else:
            verdict = "within bound"
        no_gain = verdict != "within bound"
        worst = max(worst, int(no_gain))
        print(f"{name:13s} {'error_rate':16s} {wa['error_rate']:12.4g} -> "
              f"{wb['error_rate']:12.4g} ({wa['failed']}/{wa['attempted']} "
              f"-> {wb['failed']}/{wb['attempted']}): {verdict}")
        for metric, sa in wa.items():
            sb = wb.get(metric)
            if not isinstance(sa, dict) or not isinstance(sb, dict):
                continue
            sign = 1.0 if sa["better"] == "lower" else -1.0
            base = sa["median"] or 1e-12
            worse = sign * (sb["median"] - sa["median"]) / base
            spread = max(spread_of(sa), spread_of(sb))
            if paired:
                pairs = [sign * (vb - va)
                         for va, vb in zip(sa["values"], sb["values"])]
            else:
                pairs = [sign * (vb - va) for vb in sb["values"]
                         for va in sa["values"]]
            wins = sum(1 for d in pairs if d < 0) / len(pairs)
            if wins >= 0.9 and -worse > spread_of(sa) and not no_gain:
                verdict = "improved"
            elif spread > sa["bound"]:
                verdict = "unresolved"
            elif worse > sa["bound"]:
                verdict, worst = "regressed", 1
            else:
                verdict = "within bound"
            print(f"{name:13s} {metric:16s} {sa['median']:12.4f} -> "
                  f"{sb['median']:12.4f} {sa['unit']:6s} "
                  f"{-worse:+7.1%} better (spread A {spread_of(sa):5.1%} "
                  f"B {spread_of(sb):5.1%}, bound {sa['bound']:.0%}, "
                  f"B wins {wins:4.0%} of {len(pairs)} "
                  f"{'paired' if paired else 'cross'} pairs): {verdict}")
    return worst


# --- smoke ------------------------------------------------------------------

def smoke_mode(args):
    """All three workloads at reduced scale, twice (the second traced):
    every BENCHMARK.json metric present, equal digests, zero errors."""
    binary = args.binary or ensure_built()
    spec = benchmark_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_bench(binary, workload, 1, 1, trace, smoke=True,
                          directory=os.path.join(RUNS, "smoke"))
                for trace in (False, True)]
        for trace, result in zip((False, True), runs):
            try:
                result_line(result, trace)
            except RuntimeError as error:
                problems.append(f"{workload}: {error}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: correct={result['correct']} "
                                f"failed={result['failed']} "
                                f"{result['problems']}")
        if runs[0]["outputs_digest"] != runs[1]["outputs_digest"]:
            problems.append(f"{workload}: digests differ between runs")
        log(f"smoke {workload}: digest {runs[0]['outputs_digest']}")
    for problem in problems:
        log("FAIL " + problem)
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--out")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt dfs_bench (skips the build)")
    parser.add_argument("--parent-binary",
                        help="the parent's dfs_bench, run in alternating "
                             "pairs with this one (--runs)")
    parser.add_argument("--parent-out", help="statistics of the parent side")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare_mode(args)
        if args.smoke:
            return smoke_mode(args)
        if args.runs:
            if not args.out:
                parser.error("--runs needs --out")
            if args.parent_binary and not args.parent_out:
                parser.error("--parent-binary needs --parent-out")
            stats_mode(args)
            return 0
        if not args.workload or args.seed is None or args.seconds is None:
            parser.error("one run needs --workload, --seed and --seconds")
        if args.seconds == int(args.seconds):
            args.seconds = int(args.seconds)
        one_run(args)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
