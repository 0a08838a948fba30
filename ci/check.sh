#!/usr/bin/env bash
# Local CI gate: build Release and Debug+sanitizers, run the full test suite
# in both, run the fault-injection suites (fault + stream + recover
# failpoints) and an $EMBER_FAILPOINTS env smoke under ASan, run the
# concurrency suites under ThreadSanitizer (serve/fault/router/stream/
# recover/embed repeated until-fail:3), prove the -DEMBER_FAILPOINTS_ENABLED=OFF
# build, then smoke-run the micro-benchmarks and the serving/resilience/
# observability/streaming/recovery benches on the Release build
# (stream-dedup holds an incremental-F1 floor; the recovery drill must
# converge, and must fail closed with recover/replay armed), run the
# workload-harness smokes (trace-record byte-identity, trace-replay digest
# identity, fail-closed on an armed load/trace_read, exp29), validate the
# metrics-dump / trace-dump exporter output with a real parser, and hold
# src/obs+src/serve+src/stream+src/recover+src/la+src/load+src/embed+src/nn
# to a >= 85% line-coverage floor (Debug+gcov leg), run the
# la/nn/determinism/embed suites on all three kernel lane paths
# (-march=native, x86-64-v3, EMBER_SIMD=OFF)
# and a full-scale D4 pipeline smoke. New warnings in src/la
# and src/nn fail the build (-Werror on those targets).
# Usage: ci/check.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=2
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

run_config() {
  local dir="$1"; shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> ctest ${dir}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_config build-release -DCMAKE_BUILD_TYPE=Release
run_config build-asan -DCMAKE_BUILD_TYPE=Debug -DEMBER_SANITIZE=ON -DEMBER_FAILPOINTS_ENABLED=ON

# Lane-path leg: src/la picks its lane type at build time from the target
# (AVX+FMA intrinsics, or portable float[8]). GemmBt == Dot, the multi-row
# kernels == their per-row calls, the nn 0-ULP parity suites, the token-memo
# warm == cold suites and the determinism sweeps must hold on every path: the
# host target (build-release above, -march=native), the intrinsics path
# without AVX-512 registers (-march=x86-64-v3, needs an AVX2 host), and the
# portable path (EMBER_SIMD=OFF, baseline x86-64, contraction off).
lane_leg() {
  local dir="$1"; shift
  echo "==> configure ${dir} (EMBER_SIMD=OFF $*)"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DEMBER_SIMD=OFF "$@" >/dev/null
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}" --target la_test nn_test determinism_test embed_test
  (cd "${dir}" && ctest --output-on-failure -R '^(la|nn|determinism|embed)_test$')
}
echo "==> numeric-contract suites on every lane path"
(cd build-release && ctest --output-on-failure -R '^(la|nn|determinism|embed)_test$')
lane_leg build-simd-v3 -DCMAKE_CXX_FLAGS=-march=x86-64-v3
lane_leg build-simd-off

# Fault-injection leg: the fault suite (failpoints, retries, breaker,
# degraded mode, hot reload, the exhaustive corruption sweep) plus the
# stream suite (delta-insert/tombstone/compaction failpoints, compacted-
# snapshot corruption sweep) under ASan so every injected error path is
# also leak/UB-clean, plus an env-spec smoke proving $EMBER_FAILPOINTS
# reaches the engine through the CLI.
echo "==> fault-injection suites under ASan"
(cd build-asan && ctest --output-on-failure -R '^(fault|stream|recover|load)_test$')
echo "==> EMBER_FAILPOINTS env smoke"
# A malformed spec must refuse to start.
EMBER_FAILPOINTS="not a valid spec" \
  ./build-asan/tools/ember_cli models >/dev/null 2>&1 \
  && { echo "malformed EMBER_FAILPOINTS was accepted" >&2; exit 1; }
# An env-armed save fault must fire: the run serves (build-from-scratch
# path) but the snapshot file must NOT be published.
rm -f build-asan/d2_fp_smoke.snap
EMBER_FAILPOINTS="snapshot/save=error:io" \
  ./build-asan/tools/ember_cli serve-bench D2 --scale 0.05 --qps 20 \
  --duration 1 --snapshot build-asan/d2_fp_smoke.snap >/dev/null
[ -e build-asan/d2_fp_smoke.snap ] \
  && { echo "env-armed snapshot/save failpoint did not fire" >&2; exit 1; }
# Clean run: saves, then the second run loads what the first published.
./build-asan/tools/ember_cli serve-bench D2 --scale 0.05 --qps 20 \
  --duration 1 --snapshot build-asan/d2_fp_smoke.snap >/dev/null
./build-asan/tools/ember_cli serve-bench D2 --scale 0.05 --qps 20 \
  --duration 1 --snapshot build-asan/d2_fp_smoke.snap >/dev/null

# ThreadSanitizer leg: only the suites that exercise real concurrency (the
# thread pool, the serving engine's MPMC queue/batcher, the fault/reload
# paths, the live-corpus mutation/compaction machinery, and the thread-
# count-invariance sweeps) — TSan on the full numeric suite is slow without
# adding coverage. serve/fault/stream repeat until-fail:3 to shake out
# schedule-dependent races in the breaker/reload/hot-swap machinery; the
# stream suite includes compaction and reload swaps under live mutation
# traffic. embed repeats too: every pool worker shares a model's token memo.
echo "==> configure build-tsan (EMBER_SANITIZE=tsan)"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DEMBER_SANITIZE=tsan >/dev/null
echo "==> build build-tsan"
cmake --build build-tsan -j "${JOBS}" --target parallel_test serve_test fault_test determinism_test obs_test router_test stream_test recover_test load_test embed_test
echo "==> ctest build-tsan (parallel/determinism once; serve/fault/router/stream/recover/load/embed x3)"
(cd build-tsan && ctest --output-on-failure -R '^(parallel|determinism)_test$')
(cd build-tsan && ctest --output-on-failure --repeat until-fail:3 -R '^(serve|fault|obs|router|stream|recover|load|embed)_test$')

# Coverage leg: Debug + gcov, run the obs/serve/stream/la/embed/nn suites,
# and hold the line on the subsystems this repo treats as infrastructure —
# src/obs, src/serve (including the EMBS0002 mmap loader), src/stream (delta
# tier, tombstones, compaction), src/la (including the quantization
# kernels), src/embed (the token memo) and src/nn (the encoder forward) each
# need >= 85% line coverage, so untested exporter, container, overlay,
# memo or kernel paths fail the gate instead of rotting silently.
echo "==> configure build-cov (EMBER_COVERAGE=ON)"
cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DEMBER_COVERAGE=ON >/dev/null
echo "==> build build-cov"
cmake --build build-cov -j "${JOBS}" --target obs_test serve_test fault_test la_test index_test router_test stream_test recover_test load_test embed_test nn_test
echo "==> ctest build-cov (obs/serve/fault/la/index/router/stream/recover/load/embed/nn) + coverage floor"
(cd build-cov && find . -name '*.gcda' -delete && \
  ctest --output-on-failure -R '^(obs|serve|fault|la|index|router|stream|recover|load|embed|nn)_test$')
python3 - <<'PYEOF'
import glob, re, subprocess, sys
floor = 85.0
failed = False
for d in ["obs", "serve", "stream", "recover", "la", "load", "embed", "nn"]:
    gcda = glob.glob(f"build-cov/src/{d}/CMakeFiles/ember_{d}.dir/*.gcda")
    out = subprocess.run(["gcov", "-n"] + gcda, capture_output=True,
                         text=True).stdout
    total = covered = 0
    for m in re.finditer(r"File '([^']+)'\nLines executed:([\d.]+)% of (\d+)",
                         out):
        path, pct, n = m.group(1), float(m.group(2)), int(m.group(3))
        if f"/src/{d}/" in path:
            total += n
            covered += pct * n / 100.0
    pct = covered / total * 100.0 if total else 0.0
    status = "ok" if pct >= floor else "BELOW FLOOR"
    print(f"coverage src/{d}: {pct:.1f}% of {total} lines ({status})")
    failed |= pct < floor
sys.exit(1 if failed else 0)
PYEOF

# No-failpoint leg: -DEMBER_FAILPOINTS_ENABLED=OFF must still build and pass
# (injection tests skip themselves; the macro compiles to a no-op).
echo "==> configure build-nofp (EMBER_FAILPOINTS_ENABLED=OFF)"
cmake -B build-nofp -S . -DCMAKE_BUILD_TYPE=Release -DEMBER_FAILPOINTS_ENABLED=OFF >/dev/null
echo "==> build build-nofp"
cmake --build build-nofp -j "${JOBS}" --target serve_test fault_test stream_test recover_test load_test exp22_serving ember_cli
echo "==> ctest build-nofp (serve/fault/stream/recover/load)"
(cd build-nofp && ctest --output-on-failure -R '^(serve|fault|stream|recover|load)_test$')

echo "==> bulk pipeline smoke (Release): D4 at full scale must exit 0"
# Full-scale D4 drives the exact-scan GEMM over every row shape; a kernel
# reading past its operands crashes here.
./build-release/tools/ember_cli pipeline D4 --scale 1.0 >/dev/null

echo "==> exp20 micro-kernel smoke (Release)"
./build-release/bench/exp20_micro_kernels --benchmark_min_time=0.01

echo "==> exp22 serving smoke (Release)"
./build-release/bench/exp22_serving --scale 0.05

echo "==> exp23 resilience smoke (Release)"
./build-release/bench/exp23_resilience --scale 0.05

echo "==> exp24 observability smoke (Release)"
./build-release/bench/exp24_observability --scale 0.05

echo "==> exp25 memory smoke (Release)"
./build-release/bench/exp25_memory --scale 0.05

echo "==> exp26 sharded scaling smoke (Release)"
./build-release/bench/exp26_scaling --scale 0.05

echo "==> exp27 streaming smoke (Release)"
# Asserts internally: counter identity per phase and 100% availability
# across the compaction hot-swaps.
./build-release/bench/exp27_streaming --scale 0.05

echo "==> exp28 recovery smoke (Release)"
# Asserts internally: 100% availability across the kill/rejoin cycle,
# convergence of every heal, and anti-entropy detection of fabricated
# divergence.
./build-release/bench/exp28_recovery --scale 0.05

echo "==> exp29 workload smoke (Release)"
# Asserts internally: same-seed byte-identity of the trace artifact, the
# every-byte-flip/truncation fail-closed sweep, and the structural
# admission invariants of the EDF-vs-FIFO SLO table.
./build-release/bench/exp29_workload --scale 0.05

echo "==> trace record/replay round-trip smoke (Release)"
# Same seed twice -> byte-identical trace files; two virtual replays of the
# same trace -> identical admission digest + report signature.
TRACE_FLAGS="--seed 7 --tenants 2 --rows 48 --qps 400 --duration 0.5 \
  --zipf 1.1 --upserts 0.1 --deletes 0.03 --quota 150 --phases poisson,burst"
./build-release/tools/ember_cli trace-record /tmp/ember_a.trace ${TRACE_FLAGS} >/dev/null
./build-release/tools/ember_cli trace-record /tmp/ember_b.trace ${TRACE_FLAGS} >/dev/null
cmp /tmp/ember_a.trace /tmp/ember_b.trace \
  || { echo "same-seed trace-record runs differ" >&2; exit 1; }
./build-release/tools/ember_cli trace-replay /tmp/ember_a.trace > /tmp/ember_replay1.out
./build-release/tools/ember_cli trace-replay /tmp/ember_a.trace > /tmp/ember_replay2.out
grep -q '^identity:' /tmp/ember_replay1.out
diff <(grep '^identity:' /tmp/ember_replay1.out) \
     <(grep '^identity:' /tmp/ember_replay2.out) \
  || { echo "virtual replays of one trace diverged" >&2; exit 1; }
# An armed load/trace_read failpoint must fail the load closed.
EMBER_FAILPOINTS="load/trace_read=error:io" \
  ./build-release/tools/ember_cli trace-replay /tmp/ember_a.trace \
  >/dev/null 2>&1 \
  && { echo "trace-replay served with load/trace_read failing" >&2; exit 1; }
# serve-bench consumes a recorded trace in timed mode with per-tenant SLOs.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 \
  --trace-file /tmp/ember_a.trace > /tmp/ember_tracebench.out
grep -q 'trace replay' /tmp/ember_tracebench.out
# The router path takes the same admission flags as the single engine: an
# over-quota two-tenant mix must be throttled and print the tenant table.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 60 \
  --duration 1 --shards 2 --tenants 2 --quota 5 --quota-burst 1 \
  > /tmp/ember_router_admission.out
grep -q 'throttled=[1-9]' /tmp/ember_router_admission.out
grep -q 'per-tenant admission' /tmp/ember_router_admission.out
# The report counts only the timed workload: the 8 spot-check probes sent
# before it must not show up as an untenanted "default" row.
grep -q '^  default ' /tmp/ember_router_admission.out \
  && { echo "sharded serve-bench reported its spot-check probes" >&2; exit 1; }
# Trace replay drives a single engine only: --trace-file with --shards must
# be refused, not silently ignored.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --shards 2 \
  --trace-file /tmp/ember_a.trace >/dev/null 2>&1 \
  && { echo "sharded serve-bench accepted --trace-file" >&2; exit 1; }
# A drill needs a replica to fail over to: --kill-replica without
# --replicas must be refused, not silently ignored.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 20 \
  --duration 1 --kill-replica 0:0 >/dev/null 2>&1 \
  && { echo "serve-bench ignored --kill-replica without --replicas" >&2; exit 1; }

echo "==> recovery drill smoke (Release): kill/rejoin through the CLI"
# A replica killed at t/3 and rejoined at 2t/3 under query + upsert load
# must catch up and converge, or the CLI exits nonzero.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 100 \
  --duration 2 --shards 2 --replicas 2 --kill-replica 0:1 \
  --rejoin-replica > /tmp/ember_drill.out
grep -q 'converged=yes' /tmp/ember_drill.out
# With catch-up replay armed to fail, the heal must fail CLOSED: the
# replica stays quarantined, and the drill exits nonzero instead of
# declaring convergence it cannot prove.
EMBER_FAILPOINTS="recover/replay=error:io" \
  ./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 100 \
  --duration 2 --shards 2 --replicas 2 --kill-replica 0:1 \
  --rejoin-replica >/dev/null 2>&1 \
  && { echo "drill converged with recover/replay failing" >&2; exit 1; }

echo "==> stream-dedup smoke (Release): live incremental ER + F1 floor"
# Streams D2 one record at a time against the live corpus with background
# compaction; the run self-checks counter identity and availability. The
# final incremental pairwise F1 at the default threshold must clear 0.90
# (measured 1.00 at this scale), so a regression in the merged base+delta
# query path or the cluster bookkeeping fails the gate.
./build-release/tools/ember_cli stream-dedup D2 --scale 0.05 \
  --compact-rows 32 > /tmp/ember_stream_dedup.out
grep -q 'stream-dedup final' /tmp/ember_stream_dedup.out
python3 - <<'PYEOF'
import re
out = open("/tmp/ember_stream_dedup.out").read()
m = re.search(r"stream-dedup final precision=([\d.]+) recall=([\d.]+) "
              r"f1=([\d.]+)", out)
assert m, f"no final metrics line in:\n{out}"
f1 = float(m.group(3))
assert f1 >= 0.90, f"stream-dedup F1 {f1:.4f} below the 0.90 floor"
print(f"stream-dedup smoke: F1 {f1:.4f} (floor 0.90)")
PYEOF
# A stream-side env-armed failpoint must fail mutations closed: with the
# delta insert refusing service, no record can be admitted and the run
# must exit nonzero rather than silently dropping the stream.
EMBER_FAILPOINTS="stream/delta_insert=error:unavailable" \
  ./build-release/tools/ember_cli stream-dedup D2 --scale 0.05 \
  >/dev/null 2>&1 \
  && { echo "stream-dedup served with delta_insert failing" >&2; exit 1; }

echo "==> metrics/trace CLI smoke (Release): exporters must be parseable"
./build-release/tools/ember_cli metrics-dump D2 --scale 0.05 > /tmp/ember_metrics.prom
grep -q '^# TYPE ember_serve_submitted_total counter$' /tmp/ember_metrics.prom
grep -q 'ember_serve_queue_micros_bucket{.*le="+Inf"}' /tmp/ember_metrics.prom
./build-release/tools/ember_cli metrics-dump D2 --scale 0.05 --json > /tmp/ember_metrics.json
python3 -c "import json; json.load(open('/tmp/ember_metrics.json'))"
./build-release/tools/ember_cli trace-dump D2 --scale 0.05 --out /tmp/ember_trace.json >/dev/null
python3 - <<'PYEOF'
import json
trace = json.load(open("/tmp/ember_trace.json"))
events = trace["traceEvents"]
assert events, "trace-dump produced no spans"
names = {e["name"] for e in events}
for stage in ("serve/batch", "serve/embed", "serve/query", "serve/request"):
    assert stage in names, f"missing stage span {stage}: {sorted(names)}"
print(f"trace-dump: {len(events)} spans, {len(names)} distinct stages")
PYEOF

echo "==> serve CLI smoke (Release)"
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --snapshot build-release/d2_smoke.snap
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --snapshot build-release/d2_smoke.snap
# A corrupt snapshot is refused, never silently rebuilt over: flip one
# payload byte of a copy and the single-engine run must exit nonzero.
python3 - <<'PYEOF'
image = bytearray(open("build-release/d2_smoke.snap", "rb").read())
image[len(image) // 2] ^= 0x01
open("build-release/d2_smoke_flipped.snap", "wb").write(image)
PYEOF
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --snapshot build-release/d2_smoke_flipped.snap >/dev/null 2>&1 \
  && { echo "serve-bench served a corrupt snapshot" >&2; exit 1; }

echo "==> snapshot-convert + quantized mmap serving (Release)"
# Build the int8 tier offline and serve from the mmap'ed quantized
# snapshot; the ASan mmap loader already ran above via fault/serve tests.
./build-release/tools/ember_cli snapshot-convert \
  build-release/d2_smoke.snap build-release/d2_smoke_i8.snap --quantize int8
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --storage int8 --snapshot build-release/d2_smoke_i8.snap
# EMBS0002 is the only container: a file with the retired EMBS0001 magic
# must be refused, and --to (the old container switch) is a usage error.
{ printf 'EMBS0001'; tail -c +9 build-release/d2_smoke.snap; } \
  > build-release/d2_smoke_embs0001.snap
./build-release/tools/ember_cli snapshot-convert \
  build-release/d2_smoke_embs0001.snap /dev/null >/dev/null 2>&1 \
  && { echo "snapshot-convert accepted an EMBS0001 file" >&2; exit 1; }
rc=0
./build-release/tools/ember_cli snapshot-convert \
  build-release/d2_smoke.snap /dev/null --to v2 >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] \
  || { echo "snapshot-convert --to exited ${rc}, not the usage error (2)" >&2; exit 1; }

echo "==> sharded serving smoke (Release): shard set + router scatter-gather"
# Build a 4-shard set; the CLI round-trips it and bit-compares the k-way
# merge against the unsharded oracle.
./build-release/tools/ember_cli snapshot-shard D2 --scale 0.05 --shards 4 \
  --prefix build-release/d2_shards > /tmp/ember_shard.out
grep -q 'bit-identical to the unsharded oracle' /tmp/ember_shard.out
# Serve through the router from the saved set (4 shards x 2 replicas) and
# spot-check the routed merge.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --shards 4 --replicas 2 \
  --snapshot build-release/d2_shards > /tmp/ember_router.out
grep -q 'shard set: loaded 4 shards' /tmp/ember_router.out
grep -q 'routed queries match the shard merge' /tmp/ember_router.out
# --storage int8 quantizes a loaded set too, not only a freshly built one.
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --shards 4 --storage int8 \
  --snapshot build-release/d2_shards > /tmp/ember_router_i8.out
grep -q 'storage=int8' /tmp/ember_router_i8.out \
  || { echo "loaded shard set was not served with int8 storage" >&2; exit 1; }
# Fail-closed: duplicating one shard file makes the set incoherent
# (duplicate shard_id), and the router must refuse to serve from it.
cp build-release/d2_shards.s0-of-4.snap build-release/d2_shards.s1-of-4.snap
./build-release/tools/ember_cli serve-bench D2 --scale 0.05 --qps 50 \
  --duration 1 --shards 4 --replicas 2 \
  --snapshot build-release/d2_shards >/dev/null 2>&1 \
  && { echo "incoherent shard set was served instead of refused" >&2; exit 1; }

echo "==> all checks passed"
