#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Builds the shipped `ninec` binary and the measurement program from the
sources of this checkout (into .bench_build/), runs one workload, checks
every output, prints a human-readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 they are its per-layer metrics:
the benchmark times, from its own files, the calls each layer makes on the
same generated inputs, records spans around them, and this script writes
the spans as Chrome trace-event JSON to .bench_build/traces/.

--smoke runs every workload (or the one named) for a fraction of a second
in both modes and checks that each produces every metric; the benchmark's
own tests use it. The exit status is 0 only when every output was correct.
"""

import argparse
import json
import math
import os
import sys

import report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli_bulk", "serve_miss", "serve_warm", "tune_iscas")


def run_one(paths, spec, workload, seed, seconds, trace, smoke):
    doc = report.run_measure(paths, workload, seed, seconds, trace, smoke)
    problems = report.checks(doc)
    if doc["attempted"] < 1:
        problems.append("no operation was attempted")
    if trace:
        report.write_chrome_trace(doc, os.path.join(
            report.BUILD_DIR, "traces", "%s-seed%d.json" % (workload, seed)))
    report.print_report(doc, report.fingerprint(doc), spec, problems)
    return report.result_line(doc, spec, problems)


def smoke(paths, spec, workloads):
    passed, failed = 0, 0
    for w in workloads:
        for trace in (False, True):
            try:
                res = run_one(paths, spec, w, 1, 0.3, trace, True)
                ok = res["correct"] and res["attempted"] >= 1
            except (report.BenchError, KeyError, ValueError,
                    ZeroDivisionError) as e:
                report.log("smoke %s trace %d: %s" % (w, trace, e))
                ok = False
            print("smoke %-10s trace %d: %s" %
                  (w, trace, "ok" if ok else "FAILED"))
            passed, failed = passed + ok, failed + (not ok)
    print(json.dumps({"smoke": True, "passed": passed, "failed": failed}))
    return failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        paths = report.build()
        if args.smoke:
            names = [args.workload] if args.workload else list(WORKLOADS)
            return 0 if smoke(paths, spec, names) else 1
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds or spec["run_seconds"]
        res = run_one(paths, spec, args.workload, args.seed, seconds,
                      bool(args.trace), False)
    except (report.BenchError, OSError, KeyError, ValueError) as e:
        report.log("perfbench: %s" % e)
        return 1
    if not all(math.isfinite(m["value"]) for m in res["metrics"].values()):
        report.log("perfbench: a metric is not finite")
        return 1
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
