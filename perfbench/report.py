"""Build, measurement runs and metric derivation for perfbench/run.py.

The C++ measurement program (perfbench/measure/) measures and checks;
it writes raw samples, counters, Stats replies, probe samples and spans
as JSON. This module turns that document into the metrics BENCHMARK.json
names, the human-readable report, the per-layer ledger and a Chrome trace
file.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"

# tail_ms is p75 on every workload: the highest percentile that keeps ten
# samples beyond it at the run length BENCHMARK.json sets (a few dozen CLI
# rounds or tune runs). Serve runs resolve tens of thousands of requests,
# but on a shared host their p90 and p99 moved by 15-60% between runs when
# neighbours were busy; they are printed in the report, not gated.
TAIL_PCT = {"cli_bulk": 75, "serve_miss": 75, "serve_warm": 75,
            "tune_iscas": 75}

# A run must end within 180 s. Only the first run in a checkout builds
# (up to minutes); later builds are no-ops, so the bound covers only
# perfbench_measure.
MEASURE_TIMEOUT_S = 170

# Per-layer ledger: metric, the end-to-end metric it should move (under the
# per-workload name the report prints, then as reported in
# BENCHMARK.json), and the workload that exercises it. Later changes cite
# these rows by metric name.
LEDGER = [
    ("bits.load_test_set_ms", "compress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("bits.flatten_ms", "compress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("bits.save_trits_ms", "compress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("bits.load_trits_ms", "decompress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("bits.unflatten_ms", "decompress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("bits.save_test_set_ms", "decompress_mbit_s", "mbit_s,p50_ms",
     "cli_bulk"),
    ("codec.encode_ms", "compress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("codec.decode_ms", "decompress_mbit_s", "mbit_s,p50_ms", "cli_bulk"),
    ("codec.encode_us", "serve_p50_ms", "p50_ms", "serve_miss"),
    ("codec.decode_us", "serve_p50_ms", "p50_ms", "serve_miss"),
    ("codec.encode_small_us", "tune_evals_s", "mbit_s", "tune_iscas"),
    ("serve.payload_parse_us", "serve_p50_ms", "p50_ms", "serve_miss"),
    ("serve.payload_build_us", "serve_p50_ms", "p50_ms", "serve_miss"),
    ("serve.frame_roundtrip_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("serve.server_mean_us", "serve_p50_ms", "p50_ms",
     "serve_miss,serve_warm"),
    ("serve.batch_mean_us", "serve_p50_ms", "p50_ms",
     "serve_miss,serve_warm"),
    ("serve.wire_us", "serve_p50_ms", "p50_ms", "serve_miss,serve_warm"),
    ("serve.mean_batch_size", "serve_rps", "mbit_s",
     "serve_miss,serve_warm"),
    ("serve.l1_hit_rate", "serve_rps", "mbit_s", "serve_miss,serve_warm"),
    ("serve.l2_hit_rate", "serve_rps", "mbit_s", "serve_miss,serve_warm"),
    ("serve.compute_rate", "serve_rps", "mbit_s", "serve_miss,serve_warm"),
    ("serve.rejections", "serve_rps", "mbit_s", "serve_miss,serve_warm"),
    ("serve.retransmits", "serve_rps", "mbit_s", "serve_miss,serve_warm"),
    ("cache.get_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("cache.put_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("core.fnv128_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("store.get_us", "serve_p50_ms,serve_p99_ms", "p50_ms,tail_ms",
     "serve_warm"),
    ("store.put_us", "serve_p99_ms", "tail_ms", "serve_miss"),
    ("store.write_amp", "serve_p99_ms", "tail_ms", "serve_miss"),
    ("store.open_ms", "setup_s", "setup_s", "serve_warm"),
    ("core.crc32_frame_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("core.crc32_record_us", "serve_p50_ms", "p50_ms", "serve_warm"),
    ("tune.evaluate_us", "tune_evals_s", "mbit_s", "tune_iscas"),
    ("synth.fsm_ms", "tune_evals_s", "mbit_s", "tune_iscas"),
    ("trace.overhead_pct", "(all)", "(all)", "(all)"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The run could not produce a result."""


# ------------------------------------------------------------- statistics

def quantile(values, q):
    """Linear-interpolated quantile of `values`, q in [0, 1]."""
    if not values:
        raise ValueError("quantile of no samples")
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def mean(values):
    return sum(values) / len(values)


def interval_union(intervals):
    """Total length covered by [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_table(spans, names):
    """Per layer (span-name prefix before '.'): span count, busy time (the
    union of its spans on the wall clock) and self time (span time not
    covered by child spans), from [name, start, end, parent, req, tid]."""
    closed = [(i, sp) for i, sp in enumerate(spans) if sp[2] >= sp[1]]
    children = {}
    for _, sp in closed:
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    layers = {}
    for i, sp in closed:
        start, end = sp[1], sp[2]
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(i, []) if min(e, end) > max(s, start)]
        row = layers.setdefault(names[sp[0]].split(".")[0],
                                {"count": 0, "self_ns": 0, "intervals": []})
        row["count"] += 1
        row["self_ns"] += (end - start) - interval_union(kids)
        row["intervals"].append((start, end))
    return {layer: {"count": r["count"], "self_ms": r["self_ns"] / 1e6,
                    "busy_ms": interval_union(r["intervals"]) / 1e6}
            for layer, r in layers.items()}


# ------------------------------------------------------------ build, run

def build():
    """Configures (once) and builds ninec and perfbench_measure; returns
    their paths."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            raise BenchError("not a ninec source checkout: %s is missing"
                             % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
           "--target", "ninec", "perfbench_measure"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return (os.path.join(BUILD_DIR, "tools", "ninec"),
            os.path.join(BUILD_DIR, "perfbench_measure"))


def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the paths and bytes of every source the build reads;
    identifies the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(doc):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "git_commit": commit or "none (not a git checkout)",
        "source_digest": source_digest(),
        "build_type": doc["build"]["type"],
        "compiler": "%s (%s)" % (cmake_cache_value("CMAKE_CXX_COMPILER"),
                                 doc["build"]["compiler"]),
        "nproc": os.cpu_count(),
    }


def run_measure(paths, workload, seed, seconds, trace, smoke):
    ninec, measure = paths
    work = os.path.join(BUILD_DIR, "run", "%s-%d" % (workload, os.getpid()))
    out = work + ".json"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [measure, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--ninec", ninec, "--work", work, "--out", out]
    if smoke:
        cmd.append("--smoke")
    # On a timeout perfbench_measure is killed; the kernel then kills the ninec
    # processes it started (they run with a parent-death signal).
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_measure did not finish within %d s"
                         % MEASURE_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_measure exited with status %d"
                         % proc.returncode)
    with open(out) as f:
        doc = json.load(f)
    os.remove(out)
    return doc


# ----------------------------------------------------------------- metrics

def stats_delta(serve):
    """Counter differences between the Stats replies that bracket the
    measured window, and the window means of the two latency histograms."""
    before = json.loads(serve["stats_before"])
    after = json.loads(serve["stats_after"])

    def d(key):
        return after[key] - before[key]

    def window_mean(hist):
        b, a = before[hist], after[hist]
        n = a["count"] - b["count"]
        total = a["count"] * a["mean_us"] - b["count"] * b["mean_us"]
        return total / n if n > 0 else 0.0

    return {
        "requests": d("requests_completed"),
        "lookups": d("l1_hits") + d("l2_hits") + d("misses"),
        "l1": d("l1_hits"), "l2": d("l2_hits"), "misses": d("misses"),
        "batches": d("batches"), "batched": d("batched_requests"),
        "rejections": d("rejected_queue_full") + d("rejected_inflight_cap"),
        "server_mean_us": window_mean("request_latency"),
        "batch_mean_us": window_mean("batch_latency"),
    }


# What one sample of op_ms is. CLI and tune samples are process CPU times
# from wait4 (single-threaded processes: their wall time on an idle host);
# serve samples are client-observed wall latencies.
OP_NAMES = {"cli_bulk": "compress+decompress round (process CPU time)",
            "serve_miss": "request (client wall latency)",
            "serve_warm": "request (client wall latency)",
            "tune_iscas": "tune run (process CPU time)"}


def e2e_metrics(doc):
    """End-to-end metrics by name: (value, samples, note)."""
    w = doc["workload"]
    ops = doc["samples"]["op_ms"]
    pct = TAIL_PCT[w]
    tail = quantile(ops, pct / 100.0)
    if w == "tune_iscas":
        cr = json.loads(doc["tune_json"])["winner_fitness"]["cr_percent"]
    else:
        td, te = doc["cr"]["td_bits"], doc["cr"]["te_trits"]
        cr = 100.0 * (td - te) / td
    if "segments" in doc:
        # Closed-loop throughput, median over segments of about a second.
        rates = [bits / secs for bits, secs, _ in doc["segments"]]
        mbit = (median(rates) / 1e6, len(rates),
                "TD Mbit resolved per second, median of segments")
    else:
        mbit = (doc["op_bits"] / (median(ops) / 1e3) / 1e6, len(ops),
                "TD Mbit per second at the median " + OP_NAMES[w])
    return {
        "mbit_s": mbit,
        "p50_ms": (median(ops), len(ops), "median " + OP_NAMES[w]),
        "tail_ms": (tail, len(ops), "p%d %s, %d samples beyond" %
                    (pct, OP_NAMES[w], sum(1 for x in ops if x > tail))),
        "cr_pct": (cr, 1, "compression ratio of the produced stream"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, 1,
                        "peak RSS of the ninec process, from wait4"),
        "setup_s": (median(doc["setup_s"]), len(doc["setup_s"]),
                    "median of repeated set-ups"),
    }


def named_rows(doc):
    """This workload's end-to-end numbers under their per-workload names:
    (name, value, unit, samples)."""
    w = doc["workload"]
    ops = doc["samples"]["op_ms"]
    rows = []
    if w == "cli_bulk":
        td_mbit = doc["facts"]["td_bits"] / 1e6
        for name in ("compress", "decompress"):
            s = doc["samples"][name + "_ms"]
            rows.append((name + "_mbit_s", td_mbit / (mean(s) / 1e3),
                         "Mbit/s", len(s)))
            rows.append((name + "_p50_ms", median(s), "ms", len(s)))
        wall = doc["samples"]["op_wall_ms"]
        rows.append(("round_wall_p50_ms", median(wall), "ms", len(wall)))
    elif w.startswith("serve"):
        resolved = doc["attempted"] - doc["failed"]
        rows.append(("serve_rps", resolved / doc["busy_s"], "1/s", resolved))
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            rows.append(("serve_%s_ms" % name, quantile(ops, q), "ms",
                         len(ops)))
    else:
        runs = len(ops) + len(doc["samples"]["op_traced_ms"])
        evals = doc["evaluations_per_run"] * runs
        rows.append(("tune_evals_s", evals / doc["busy_s"], "1/s", evals))
        wall = doc["samples"]["op_wall_ms"]
        rows.append(("run_wall_p50_ms", median(wall), "ms", len(wall)))
    e2e = e2e_metrics(doc)
    rows.append(("cr_pct", e2e["cr_pct"][0], "%", 1))
    rows.append(("error_rate", doc["failed"] / max(doc["attempted"], 1),
                 "ratio", doc["attempted"]))
    rows.append(("setup_s", e2e["setup_s"][0], "s", e2e["setup_s"][1]))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", 1))
    return rows


def per_layer_metrics(doc):
    """Per-layer metrics by name: (value, samples, source)."""
    out = {name: (median(s), len(s), "probe")
           for name, s in doc["probes"].items()}
    serve = doc["serve"]
    delta = stats_delta(serve)
    src = serve["source"]
    lookups = max(delta["lookups"], 1)
    client = serve.get("client_lat_ms",
                       doc["samples"]["op_ms"] + doc["samples"]["op_traced_ms"])
    rows = (
        ("serve.server_mean_us", delta["server_mean_us"], delta["requests"]),
        ("serve.batch_mean_us", delta["batch_mean_us"], delta["batches"]),
        ("serve.wire_us", mean(client) * 1e3 - delta["server_mean_us"],
         len(client)),
        ("serve.mean_batch_size", delta["batched"] / max(delta["batches"], 1),
         delta["batches"]),
        ("serve.l1_hit_rate", delta["l1"] / lookups, delta["lookups"]),
        ("serve.l2_hit_rate", delta["l2"] / lookups, delta["lookups"]),
        ("serve.compute_rate", delta["misses"] / lookups, delta["lookups"]),
        ("serve.rejections", delta["rejections"], delta["requests"]),
        ("serve.retransmits", serve["retransmits"], delta["requests"]))
    for key, value, n in rows:
        out[key] = (value, n, src)
    untraced = doc["samples"]["op_ms"]
    traced = doc["samples"]["op_traced_ms"]
    overhead = ((median(traced) / median(untraced) - 1.0) * 100.0
                if untraced and traced else 0.0)
    out["trace.overhead_pct"] = (overhead, len(traced),
                                 "traced vs untraced ops of this run")
    return out


def checks(doc):
    """Problems beyond the per-operation failures perfbench_measure counted: the
    serve workloads' design (every request computes on serve_miss, none on
    serve_warm) and the tuner's baseline dominance."""
    problems = list(doc["failures"])
    w = doc["workload"]
    if w.startswith("serve") and not doc["smoke"]:
        delta = stats_delta(doc["serve"])
        rate = delta["misses"] / max(delta["lookups"], 1)
        want = 1.0 if w == "serve_miss" else 0.0
        if rate != want:
            problems.append("compute_rate %.4f, by design %.0f" % (rate, want))
    if w == "tune_iscas":
        t = json.loads(doc["tune_json"])
        for base in ("standard_fitness", "freq_directed_fitness"):
            if t["winner_fitness"]["score"] < t[base]["score"]:
                problems.append("tune winner scores below the %s baseline"
                                % base[:-len("_fitness")])
    return problems


def write_chrome_trace(doc, path):
    """Spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    names = doc["trace_spans"]["names"]
    spans = doc["trace_spans"]["spans"]
    t0 = min((sp[1] for sp in spans), default=0)
    events = []
    for i, (name, start, end, parent, req, tid) in enumerate(spans):
        if end < start:
            continue
        events.append({
            "name": names[name], "cat": names[name].split(".")[0],
            "ph": "X", "pid": 1, "tid": tid,
            "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": i, "parent": parent, "req": req}})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ------------------------------------------------------------------ report

def fmt(v):
    return "%.6g" % v


def print_report(doc, fp, spec, problems):
    print("== perfbench %s  seed %d  %s s  trace %d" %
          (doc["workload"], doc["seed"], fmt(doc["seconds"]),
           int(doc["trace"])))
    print("host/build: " + ", ".join("%s=%s" % kv for kv in fp.items()))
    print("workload: " + ", ".join("%s=%s" % kv for kv in doc["facts"].items()))
    if doc["trace"]:
        print_layer_report(doc, spec)
    else:
        print("%-20s %14s %-7s %8s" % ("metric", "value", "unit", "samples"))
        for name, value, unit, n in named_rows(doc):
            print("%-20s %14s %-7s %8d" % (name, fmt(value), unit, n))
        print("-- reported (BENCHMARK.json end_to_end):")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, (value, n, note) in e2e_metrics(doc).items():
            print("%-20s %14s %-7s %8d  %s" %
                  (name, fmt(value), units[name], n, note))
    for p in problems:
        print("FAILED: " + p)


def print_layer_report(doc, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = per_layer_metrics(doc)
    print("%-25s %11s %-5s %7s  %-25s %-14s %-21s %s" %
          ("layer metric", "value", "unit", "samples", "should move",
           "(reported as)", "on workload", "source"))
    for name, named_e2e, e2e, workloads in LEDGER:
        value, n, source = metrics[name]
        print("%-25s %11s %-5s %7d  %-25s %-14s %-21s %s" %
              (name, fmt(value), units[name], n, named_e2e, e2e, workloads,
               source))
    table = layer_table(doc["trace_spans"]["spans"],
                        doc["trace_spans"]["names"])
    print("%-8s %8s %12s %12s" % ("layer", "spans", "self_ms", "busy_ms"))
    for layer in sorted(table):
        r = table[layer]
        print("%-8s %8d %12.3f %12.3f" %
              (layer, r["count"], r["self_ms"], r["busy_ms"]))
    value, n, _ = metrics["trace.overhead_pct"]
    print("tracing overhead: %s%% (median of %d traced vs %d untraced ops; "
          "end-to-end numbers come from --trace 0 runs)" %
          (fmt(value), n, len(doc["samples"]["op_ms"])))


def result_line(doc, spec, problems):
    if doc["trace"]:
        computed, wanted = per_layer_metrics(doc), spec["per_layer"]
    else:
        computed, wanted = e2e_metrics(doc), spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    return {"correct": not problems, "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}
