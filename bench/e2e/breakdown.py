#!/usr/bin/env python3
"""Layer breakdown of traced benchmark runs (bench/e2e/README.md).

  python3 bench/e2e/breakdown.py [DIR]

DIR (default .bench_build/e2e/runs) holds what run.py leaves there:
<workload>-seed<N>.trace.jsonl span traces and <workload>-seed<N>-trace<T>
.json results. For each workload with a trace this prints

  * the span table: count, total and self time per span name (self = a
    span's duration minus its direct children's on the same thread);
  * served workloads: one row per layer of a job's submit-to-DONE time,
    joined across threads by job id (see job_layers) — generator
    lateness, submit ack, queue wait, run (the worker's serve.job span)
    and the unexplained remainder no layer covers;
  * sched.util (for the study, the pool threads' utilization) and the
    evaluation replay's unexplained share, from the traced run's result;
  * tracing overhead: the traced run's end-to-end metrics against the
    untraced run of the same seed and length, when DIR holds one.

Exits 1 when a served workload's layers cover less than MIN_COVERAGE of
its jobs' total submit-to-DONE time. The gap is always printed.
"""

import argparse
import glob
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_DIR = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           ".bench_build", "e2e", "runs")
DETAIL_RE = re.compile(r"(\w+)=(\S+)")
MIN_COVERAGE = 0.9


def load_spans(path):
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                span = json.loads(line)
                span["fields"] = dict(DETAIL_RE.findall(span.get("detail", "")))
                spans.append(span)
    return spans


def quantile(values, q):
    """Linear interpolation between order statistics, as dfs_bench does."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def job_layers(spans):
    """Per nominal-phase job, the layers tiling its submit-to-DONE time on
    the bench clock, from measured events joined by job id: scheduled (I),
    sent (S) and ack received (A) on the sender, the worker's serve.job span
    (Js, Je), and the waiter's wake-up (W). late = S-I, ack = A-S, queue =
    Js-A (negative when the worker started before the ack reached the
    client), run = Je-Js, unexplained = W-Je: the terminal transition,
    its bookkeeping and the waiter's wake-up, which no layer covers. A job
    whose spans do not join counts wholly as unexplained past its ack.

    Bench spans join on (phase, seq). Every round boots a fresh server whose
    job ids restart at 1, so a serve.job span joins on the job id and must
    start between the job's send and its DONE."""
    submits = {(s["fields"].get("phase"), s["fields"].get("seq")): s
               for s in spans if s["span"] == "bench.submit"}
    runs_by_id = {}
    for s in spans:
        if s["span"] == "serve.job":
            runs_by_id.setdefault(s["fields"].get("id"), []).append(s)
    jobs = []
    for span in spans:
        fields = span["fields"]
        if span["span"] != "bench.job" or fields.get("phase") != "nominal":
            continue
        submit = submits.get(("nominal", fields.get("seq")))
        if submit is None:
            continue
        start, end = span["start_us"], span["start_us"] + span["dur_us"]
        acked = submit["start_us"] + submit["dur_us"]
        run = next((r for r in runs_by_id.get(fields.get("job"), [])
                    if submit["start_us"] <= r["start_us"] <= end), None)
        run_start = run["start_us"] if run else acked
        run_end = run["start_us"] + run["dur_us"] if run else acked
        jobs.append({
            "done": (end - start) * 1e-6,
            "late": (submit["start_us"] - start) * 1e-6,
            "ack": submit["dur_us"] * 1e-6,
            "queue": (run_start - acked) * 1e-6,
            "run": (run_end - run_start) * 1e-6,
            "unexplained": (end - run_end) * 1e-6,
            "server_queue": int(fields.get("queue_us", 0)) * 1e-6,
        })
    return jobs


def serve_layers(spans):
    """The per-job serve layer rows run.py reports for a traced run (all
    zero for the study, which has no served jobs). Queue wait is the
    server's own per-job queue time."""
    jobs = job_layers(spans)
    column = {key: [job[key] * 1e3 for job in jobs]
              for key in ("ack", "server_queue", "run", "unexplained")}
    done = sum(job["done"] for job in jobs)
    unexplained = sum(job["unexplained"] for job in jobs)
    return {
        "serve.ack_p50_ms": quantile(column["ack"], 0.5),
        "serve.ack_p99_ms": quantile(column["ack"], 0.99),
        "serve.queue_wait_p50_ms": quantile(column["server_queue"], 0.5),
        "serve.queue_wait_p95_ms": quantile(column["server_queue"], 0.95),
        "serve.run_p50_ms": quantile(column["run"], 0.5),
        "serve.run_p95_ms": quantile(column["run"], 0.95),
        "serve.unexplained_p50_ms": quantile(column["unexplained"], 0.5),
        "serve.coverage": 1.0 - unexplained / done if done > 0 else 0.0,
    }


def span_table(spans):
    """(name -> [count, total_us, self_us]) with self time computed from
    same-thread nesting (depth d+1 spans inside a depth d span)."""
    table = {}

    def close(entry):
        span, child_us = entry
        row = table.setdefault(span["span"], [0, 0, 0])
        row[0] += 1
        row[1] += span["dur_us"]
        row[2] += max(0, span["dur_us"] - child_us)

    by_thread = {}
    for span in spans:
        by_thread.setdefault(span["thread"], []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s["start_us"], s["depth"]))
        open_spans = []  # stack of [span, child_us]
        for span in thread_spans:
            while open_spans and (
                    open_spans[-1][0]["start_us"] + open_spans[-1][0]["dur_us"]
                    <= span["start_us"]
                    or open_spans[-1][0]["depth"] >= span["depth"]):
                close(open_spans.pop())
            if open_spans:
                open_spans[-1][1] += span["dur_us"]
            open_spans.append([span, 0])
        while open_spans:
            close(open_spans.pop())
    return table


def load_result(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def report_workload(workload, trace_path):
    ok = True
    spans = load_spans(trace_path)
    print(f"== {workload} ({os.path.basename(trace_path)}, "
          f"{len(spans)} spans)")
    print(f"  {'span':28s} {'count':>7s} {'total ms':>11s} {'self ms':>11s}")
    for name, (count, total, self_us) in sorted(
            span_table(spans).items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:28s} {count:7d} {total / 1e3:11.1f} "
              f"{self_us / 1e3:11.1f}")

    jobs = job_layers(spans)
    if jobs:
        done = sum(job["done"] for job in jobs)
        print(f"  submit-to-DONE layers over {len(jobs)} nominal jobs "
              f"(share of total time, p50 and p95 per job):")
        for key in ("late", "ack", "queue", "run", "unexplained"):
            values = [job[key] * 1e3 for job in jobs]
            print(f"    {key:12s} {sum(values) / 1e3 / done:7.1%} "
                  f"p50 {quantile(values, 0.5):9.3f} ms "
                  f"p95 {quantile(values, 0.95):9.3f} ms")
        coverage = serve_layers(spans)["serve.coverage"]
        below = sum(1 for job in jobs
                    if job["done"] > 0
                    and job["unexplained"] / job["done"] > 1 - MIN_COVERAGE)
        print(f"  coverage {coverage:.1%} of submit-to-DONE time; "
              f"{below}/{len(jobs)} jobs below {MIN_COVERAGE:.0%}")
        if coverage < MIN_COVERAGE:
            print(f"  FAIL: layers cover less than {MIN_COVERAGE:.0%}")
            ok = False

    traced = load_result(trace_path.replace(".trace.jsonl", "-trace1.json"))
    if traced is not None:
        for key in ("sched.util", "experiment.critical_path_share",
                    "eval.unexplained_share"):
            print(f"  {key:32s} {traced['layers'][key]:.3f}")
    untraced = load_result(trace_path.replace(".trace.jsonl", "-trace0.json"))
    if (traced is not None and untraced is not None
            and traced["seconds"] == untraced["seconds"]):
        print("  tracing overhead (traced run vs the untraced run of the "
              "same seed and length):")
        for metric, base in untraced["metrics"].items():
            with_trace = traced["metrics"][metric]
            delta = (with_trace - base) / base if base else 0.0
            print(f"    {metric:16s} {base:12.4f} -> {with_trace:12.4f} "
                  f"({delta:+.1%})")
    else:
        print("  tracing overhead: no untraced run of the same seed and "
              "length in this directory")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=DEFAULT_DIR)
    args = parser.parse_args()
    traces = sorted(glob.glob(os.path.join(args.directory, "*.trace.jsonl")))
    if not traces:
        print(f"no traces in {args.directory}", file=sys.stderr)
        return 1
    latest = {}
    for path in traces:
        workload = os.path.basename(path).split("-seed")[0]
        if (workload not in latest
                or os.path.getmtime(path) > os.path.getmtime(latest[workload])):
            latest[workload] = path
    ok = True
    for workload, path in sorted(latest.items()):
        ok = report_workload(workload, path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
