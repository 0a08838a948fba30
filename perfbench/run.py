#!/usr/bin/env python3
"""perfbench: ember's seeded end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_trial (and the libraries it
links) from source under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload as separate trial processes,
checks their outputs, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs several timed trial processes (four for engine_zipf_read,
three for router_scan_write) that share --seconds of serving between them.
Each sets its fleet up from cold, the engine's three times over (its set-up
takes well under a second), and runs the bulk ER pipeline phase: every
engine trial once on D2, the last router trial once on D9. Latency
percentiles and the closed-loop rate are taken over the samples of all
trials pooled, leaving out those taken while the host stole CPU from the
trial; setup_s is the median of every set-up, records_per_s the rate over
every bulk run.
The metrics are the end-to-end ones. --trace 1 runs one traced probe trial
and reports the per-layer metrics. perfbench/README.md defines every metric.
A trial killed by a signal is recorded with its signal; its unanswered
operations count as failed and it is never re-run. A trial the host starved
of CPU (steal time) is run once more; see "Host CPU steal" in README.md. The
full record (fingerprint, trials, crashes) is written under results/ in the
build directory; perfbench/compare.py compares two records.
--smoke runs a single trial, with one bulk run, for the benchmark's own
tests.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_zipf_read", "router_scan_write")
# Per --trace 0 run: fleet set-ups per trial, and bulk pipeline runs per
# trial (one entry per trial process). The engine's set-up and its D2 bulk
# run take about a second each, the router's D9 ones about ten. Some figures
# shift from one process to the next (the engine's D2 bulk rate is bimodal
# across processes), so the engine spreads them over four processes.
TRIALS = {"engine_zipf_read": {"setups": 3, "bulk": [1, 1, 1, 1]},
          "router_scan_write": {"setups": 1, "bulk": [0, 0, 1]}}
# Every trial of a run must end within this many seconds after the build.
RUN_BUDGET_S = 170
# Host CPU steal (shared VMs): the first trial of a run that lost more than
# this share of the CPU to the host is run once more.
STEAL_LIMIT = 0.05
# Within a trial, a quarter-second interval counts as quiet when the host
# took at most this share of the CPU in it and in the interval before.
QUIET_STEAL = 0.01
# Below this share of quiet samples a metric uses all of its samples.
QUIET_FLOOR = 0.25
K = 10

# name -> (unit, better). BENCHMARK.json lists the same names and units;
# test_perfbench.py keeps the two in step.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "max_qps": ("1/s", "higher"),
    "p50_ms.closed": ("ms", "lower"),
    "p90_ms.closed": ("ms", "lower"),
    "slo_attainment.high": ("share", "higher"),
    "mutation_p50_ms": ("ms", "lower"),
    "availability": ("share", "higher"),
    "recall_at_k": ("share", "higher"),
    "bitexact_share": ("share", "higher"),
    "records_per_s": ("1/s", "higher"),
    "match_f1": ("share", "higher"),
    "cpu_ms_per_query": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "embed.us_per_record.b1": ("us", "lower"),
    "embed.us_per_record.b8": ("us", "lower"),
    "embed.us_per_record.b32": ("us", "lower"),
    "embed.forward_self_us_per_record": ("us", "lower"),
    "embed.unspanned_self_us_per_record": ("us", "lower"),
    "embed.tokens_per_record": ("count", "lower"),
    "embed.repeat_token_share": ("share", "higher"),
    "embed.repeat_text_share": ("share", "higher"),
    "text.tokenize_us_per_record": ("us", "lower"),
    "la.gemm_bt_gflops.encoder": ("GFLOP/s", "higher"),
    "la.gemm_bt_gflops.scan": ("GFLOP/s", "higher"),
    "index.scan_us_per_query.b1": ("us", "lower"),
    "index.scan_us_per_query.b32": ("us", "lower"),
    "index.rows_scanned_per_query": ("count", "lower"),
    "stream.delta_rows.end": ("count", "lower"),
    "stream.tombstones.end": ("count", "lower"),
    "stream.delta_tax": ("ratio", "lower"),
    "stream.upsert_us": ("us", "lower"),
    "stream.delete_us": ("us", "lower"),
    "serve.queue_wait_us.p50": ("us", "lower"),
    "serve.queue_wait_us.p99": ("us", "lower"),
    "serve.batch_size.mean": ("count", "higher"),
    "serve.embed_stage_us.p50": ("us", "lower"),
    "serve.query_stage_us.p50": ("us", "lower"),
    "serve.mutate_stage_us.p50": ("us", "lower"),
    "serve.complete_stage_us.p50": ("us", "lower"),
    "serve.batch_self_us": ("us", "lower"),
    "serve.expired": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.throttled": ("count", "lower"),
    "serve.deadline_misses": ("count", "lower"),
    "router.embed_us.p50": ("us", "lower"),
    "router.fanout_self_us": ("us", "lower"),
    "router.gather_us.p50": ("us", "lower"),
    "router.merge_us.p50": ("us", "lower"),
    "router.shard_roundtrip_us.p99": ("us", "lower"),
    "router.upsert_ms.p50": ("ms", "lower"),
    "router.partial_replies": ("count", "lower"),
    "router.sibling_retries": ("count", "lower"),
    "router.shards_degraded": ("count", "lower"),
    "recover.log_records": ("count", "lower"),
    "recover.converged": ("bool", "higher"),
    "core.vectorize_s": ("s", "lower"),
    "core.blocking_s": ("s", "lower"),
    "core.matching_s": ("s", "lower"),
    "core.candidates": ("count", "lower"),
    "common.pool_threads": ("count", "higher"),
    "common.cpu_util": ("share", "higher"),
    "load.lateness_ms.p99": ("ms", "lower"),
    "obs.tracing_overhead": ("ratio", "lower"),
    "obs.spans_dropped": ("count", "lower"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the trial binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "a") as sink:
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sink, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", out, "--target",
                        "perfbench_trial", "-j", str(os.cpu_count() or 1)],
                       stdout=sink, stderr=subprocess.STDOUT, check=True)
    return os.path.join(out, "perfbench_trial")


def cmake_cache(key):
    path = os.path.join(build_dir(), "CMakeCache.txt")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the sources the trial binary is built from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            if "__pycache__" in name:
                continue
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(pool_threads):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "ember_simd": cmake_cache("EMBER_SIMD") or "ON",
        "pool_threads": pool_threads,
        "commit": commit,
        "source": source_digest(),
    }


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already part of user time
    return steal, sum(fields[:8])


def steal_share(before, after):
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def run_trial(binary, mode, args, seed, seconds, index, bulk, setups,
              timeout):
    """Runs one trial process; returns (record or None, crash or None,
    planned operations per phase)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{index}"
    out = os.path.join(work, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, mode, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", out, "--workdir", work,
           "--bulk", str(bulk), "--setups", str(setups)]
    if mode == "probe":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".trace.json")]
    plan, started = {}, []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("@plan "):
                plan = {k: int(v) for k, v in
                        (kv.split("=") for kv in line.split()[1:])}
            elif line.startswith("@phase "):
                started.append(line.split()[1])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
    timed_out = code == -signal.SIGKILL
    if code == 0 and os.path.exists(out):
        with open(out) as f:
            return json.load(f), None, plan
    # Everything from the phase that was running onwards is lost.
    phase = started[-1] if started else "start"
    names = list(plan)
    lost_from = names.index(phase) if phase in names else 0
    lost = 0 if phase == "done" else sum(plan[n] for n in names[lost_from:])
    crash = {"trial": index, "seed": seed, "phase": phase, "lost": lost,
             "exit": code, "timed_out": timed_out,
             "signal": signal.Signals(-code).name if code < 0 else None}
    log(f"perfbench: trial {index} died in phase {phase} ({crash}); "
        f"{lost} planned operations counted as lost")
    return None, crash, plan


class Quiet:
    """The quiet intervals of one trial, from its host steal readings. A
    sample counts when the interval it started in and the one before are
    quiet: a stall delays the requests queued behind it too. Samples from
    disturbed intervals measured the host's neighbours, not the program, and
    are set aside (see "Host CPU steal" in README.md)."""

    def __init__(self, record):
        t = record.get("host_t_s", [])
        steal, total = record.get("host_steal", []), record.get("host_total", [])
        calm = [steal[i + 1] - steal[i] <=
                QUIET_STEAL * max(1, total[i + 1] - total[i])
                for i in range(len(t) - 1)]
        self.starts, self.ends = t[:-1], t[1:]
        self.quiet = [c and (i == 0 or calm[i - 1])
                      for i, c in enumerate(calm)]

    def at(self, when):
        i = bisect.bisect_right(self.starts, when) - 1
        return 0 <= i < len(self.quiet) and self.quiet[i] and \
            when <= self.ends[i]

    def keep(self, values, times):
        return [v for v, when in zip(values, times) if self.at(when)]

    def seconds(self, start, end):
        """Quiet seconds within [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e, q in zip(self.starts, self.ends, self.quiet) if q)


def pct(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-p * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records, crashes, plans):
    """Reduces the trial records to the end-to-end metrics, and the
    open-loop latencies and sample counts that go with them. Latency
    percentiles and the closed-loop rate are taken over the quiet samples of
    all trials pooled; counts and CPU per query over everything."""
    total = lambda key: sum(r[key] for r in records)
    quiet = [Quiet(r) for r in records]

    def pooled(key, at=None):
        """All samples of `key`, or the quiet ones when `at` names their
        start times and enough of them are quiet; and the share kept."""
        everything = [v for r in records for v in r[key]]
        if at is None:
            return everything, 1.0
        kept = [v for r, q in zip(records, quiet)
                for v in q.keep(r[key], r[at])]
        if len(kept) < QUIET_FLOOR * len(everything):
            return everything, 1.0
        return kept, len(kept) / len(everything)

    attempted = total("attempted")
    failed = sum(r["refused"] + r["failed"] + r["wrong"] for r in records)
    lost = sum(c["lost"] for c in crashes)
    # High-phase queries a crashed trial never answered are SLO misses.
    lost_high = sum(plans[c["trial"]].get("high", 0) for c in crashes
                    if c["phase"] in ("start", "setup", "closed", "low",
                                      "high"))
    high_scheduled = total("high_scheduled") + lost_high
    checked = total("replies_checked")
    closed, closed_kept = pooled("closed_latency_ms", "closed_latency_at_s")
    mutation, mutation_kept = pooled("mutation_ms", "mutation_at_s")
    closed_s = sum(q.seconds(r["closed_start_s"], r["closed_end_s"])
                   for r, q in zip(records, quiet))
    closed_ok = sum(len(q.keep(r["closed_done_at_s"], r["closed_done_at_s"]))
                    for r, q in zip(records, quiet))
    if closed_s < QUIET_FLOOR * total("closed_s"):
        closed_s, closed_ok = total("closed_s"), total("closed_ok")
    metrics = {
        "setup_s": median(pooled("setup_s")[0]),
        "max_qps": closed_ok / max(1e-9, closed_s),
        "p50_ms.closed": pct(closed, 0.50),
        "p90_ms.closed": pct(closed, 0.90),
        "slo_attainment.high": total("high_slo_hits") / max(1, high_scheduled),
        "mutation_p50_ms": pct(mutation, 0.50),
        "availability": 1.0 - (failed + lost) / max(1, attempted + lost),
        "recall_at_k": total("replies_overlap") / max(1, checked * K),
        "bitexact_share": total("replies_bitexact") / max(1, checked),
        "records_per_s": (sum(r["bulk_records"] * len(r["bulk_s"])
                              for r in records) /
                          max(1e-9, sum(sum(r["bulk_s"]) for r in records))),
        "match_f1": median([r["bulk_f1"] for r in records if r["bulk"]]),
        "cpu_ms_per_query": 1e3 * total("high_cpu_s") / max(1, total("high_ok")),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in records], default=0.0),
    }
    extra = {"quiet_share": {"closed_latency": closed_kept,
                             "closed_rate": closed_s / max(1e-9,
                                                           total("closed_s")),
                             "mutation": mutation_kept},
             "samples": {"setups": len(pooled("setup_s")[0]),
                         "bulk_runs": sum(len(r["bulk_s"]) for r in records),
                         "closed_latency": len(closed),
                         "mutations": len(mutation)}}
    # The open-loop phases: reported, not gated (see "Open-loop latency" in
    # README.md).
    for phase in ("low", "high"):
        values, kept = pooled(f"{phase}_latency_ms", f"{phase}_latency_at_s")
        extra[f"open_loop.{phase}"] = {
            "p50_ms": pct(values, 0.50), "p99_ms": pct(values, 0.99),
            "samples": len(values), "quiet_share": kept}
    open_mutation = pooled("open_mutation_ms")[0]
    extra["open_loop.mutation"] = {"p50_ms": pct(open_mutation, 0.50),
                                   "p99_ms": pct(open_mutation, 0.99),
                                   "samples": len(open_mutation)}
    extra["mutation_lag_ms.p99"] = pct(pooled("mutation_lag_ms")[0], 0.99)
    extra["lateness_ms.p99"] = pct(pooled("lateness_ms")[0], 0.99)
    return metrics, attempted + lost, failed + lost, extra


def check_repro(records, fp):
    """The bulk phase's F1, recall and match digest must reproduce across
    runs of the same seed and sources."""
    path = os.path.join(build_dir(), "repro.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    ok = True
    for r in records:
        if not r["bulk"]:
            continue
        key = f'{r["workload"]}:{int(r["seed"])}:{fp["source"]}'
        seen = {k: r[k] for k in ("bulk_digest", "bulk_f1", "bulk_recall")}
        if key in store and store[key] != seen:
            log(f"perfbench: bulk result for {key} did not reproduce: "
                f"{store[key]} then {seen}")
            ok = False
        store.setdefault(key, seen)
    with open(path, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no ember source tree next to perfbench/; nothing to "
            "build")
        return 2
    try:
        binary = build()
    except subprocess.CalledProcessError:
        log(f"perfbench: build failed; see {build_dir()}/build.log")
        return 1

    if args.trace:
        # The probe trial replays the closed phase three times (untraced,
        # traced, untraced) and adds the layer probes, so it plays half the
        # schedule to stay near --seconds of measurement.
        trials = [("probe", args.seconds / 2, 1)]
        setups = 1
    else:
        setups = TRIALS[args.workload]["setups"]
        bulk = [1] if args.smoke else TRIALS[args.workload]["bulk"]
        trials = [("serve", args.seconds / len(bulk), runs) for runs in bulk]
    budget_end = time.monotonic() + RUN_BUDGET_S
    records, crashes, plans, disturbed = [], [], [], []
    for i, (mode, seconds, bulk_runs) in enumerate(trials):
        # Each trial draws its own inputs from the run's seed.
        seed = args.seed * 1000 + i
        while True:
            before, started = cpu_times(), time.monotonic()
            timeout = max(1.0, budget_end - started)
            record, crash, plan = run_trial(binary, mode, args, seed, seconds,
                                            i, bulk=bulk_runs,
                                            setups=setups, timeout=timeout)
            duration = time.monotonic() - started
            stolen = steal_share(before, cpu_times())
            if record is not None:
                record["steal_share"] = stolen
            # A trial the host starved of CPU measured the neighbours, not
            # the program. One such trial per run is set aside (and listed)
            # and run again, if the budget still fits the remaining trials.
            # Crashed trials are never re-run.
            fits = (budget_end - time.monotonic() >
                    duration * (len(trials) - i + 1))
            if (record is None or stolen <= STEAL_LIMIT or not fits or
                    disturbed):
                break
            log(f"perfbench: trial {i} lost {stolen:.0%} of the CPU to the "
                "host; running it again")
            disturbed.append({"trial": i, "seed": seed,
                              "steal_share": stolen})
        plans.append(plan)
        if record is not None:
            records.append(record)
        else:
            crashes.append(crash)

    pool_threads = records[0]["pool_threads"] if records else 0
    fp = fingerprint(pool_threads)
    checks = {f"trial{i}.{name}": bool(ok)
              for i, r in enumerate(records)
              for name, ok in r.get("checks", {}).items()}
    correct = bool(records) and all(checks.values())
    if args.trace:
        layer = records[0]["layer"] if records else {}
        metrics = {name: layer.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        attempted = sum(r["attempted"] for r in records) + sum(
            c["lost"] for c in crashes)
        failed = sum(r["refused"] + r["failed"] + r["wrong"]
                     for r in records) + sum(c["lost"] for c in crashes)
        extra = {"stages": records[0].get("stages") if records else None,
                 "design": records[0].get("design") if records else None}
    else:
        metrics, attempted, failed, extra = end_to_end(records, crashes,
                                                       plans)
        units = END_TO_END
        correct = correct and check_repro(records, fp)
        if not any(r["bulk"] for r in records):
            log("perfbench: the bulk phase produced no result")
    attempted = max(1, int(attempted))

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "correct": correct, "checks": checks,
              "attempted": attempted, "failed": int(failed),
              "crashes": crashes, "disturbed": disturbed,
              "metrics": metrics, "extra": extra,
              "trials": [{k: v for k, v in r.items()
                          if not isinstance(v, list)} for r in records]}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"fingerprint={json.dumps(fp)}")
    for name, value in metrics.items():
        log(f"  {name:38s} {value:14.6g} {units[name][0]}")
    for phase in ("low", "high", "mutation"):
        if f"open_loop.{phase}" in extra:
            log(f"  open loop, {phase} (not gated): "
                f"{json.dumps(extra[f'open_loop.{phase}'])}")
    if crashes:
        log(f"  crashed trials: {json.dumps(crashes)}")
    if disturbed:
        log(f"  re-run after host CPU steal: {json.dumps(disturbed)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
