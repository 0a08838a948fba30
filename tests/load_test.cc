// Workload harness tests (DESIGN.md §16): the EMBT0001 trace container's
// round-trip and exhaustive corruption sweep, the seeded generator's
// determinism and shape guarantees, SLO-aware admission (token buckets,
// EDF drain order, armed failpoints), the replay determinism property
// (same trace + quotas => bit-identical decisions at any worker count),
// and the committed golden-trace replay fixtures.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/vector_ops.h"
#include "load/generator.h"
#include "load/replayer.h"
#include "load/trace.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "proptest.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

#define SKIP_IF_FAILPOINTS_OFF()                               \
  do {                                                         \
    if (!::ember::fail::kEnabled) {                            \
      GTEST_SKIP() << "failpoints compiled out of this build"; \
    }                                                          \
  } while (0)

namespace ember {
namespace {

using load::GeneratorOptions;
using load::PhaseSpec;
using load::ReplayOptions;
using load::ReplayReport;
using load::TenantSpec;
using load::Trace;
using load::TraceEvent;
using load::ZipfSampler;
using serve::AdmissionController;
using serve::Engine;
using serve::EngineMetrics;
using serve::EngineOptions;
using serve::IndexKind;
using serve::QueuePolicy;
using serve::Snapshot;
using serve::SnapshotManifest;
using serve::SubmitOptions;
using serve::TenantQuota;
using serve::TokenBucket;

// ---------------------------------------------------------------------------
// Shared fixtures: the deterministic hash model and snapshot builder from
// serve_test, plus golden plumbing in the obs_test idiom.
// ---------------------------------------------------------------------------

constexpr size_t kDim = 16;

embed::ModelInfo HashModelInfo(const std::string& code) {
  embed::ModelInfo info;
  info.code = code;
  info.name = "hash-test-model";
  info.dim = kDim;
  return info;
}

class HashModel : public embed::EmbeddingModel {
 public:
  explicit HashModel(std::string code = "HT", int64_t encode_sleep_micros = 0)
      : EmbeddingModel(HashModelInfo(code)),
        encode_sleep_micros_(encode_sleep_micros) {}

  void EncodeInto(const std::string& sentence, float* out) const override {
    if (encode_sleep_micros_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(encode_sleep_micros_));
    }
    for (size_t d = 0; d < kDim; ++d) out[d] = 0.f;
    uint64_t hash = 1469598103934665603ull;
    for (const char c : sentence) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      out[hash % kDim] += 1.f + static_cast<float>((hash >> 32) & 0xff);
    }
    la::NormalizeInPlace(out, kDim);
  }

 protected:
  void BuildWeights() override {}

 private:
  int64_t encode_sleep_micros_;
};

std::vector<std::string> Sentences(size_t n, const std::string& tag) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(tag + " record " + std::to_string(i) + " token" +
                  std::to_string(i % 23) + " value" +
                  std::to_string((i * 13) % 41));
  }
  return out;
}

Snapshot MakeSnapshot(size_t rows) {
  HashModel model;
  model.Initialize();
  la::Matrix corpus = model.VectorizeAll(Sentences(rows, "corpus"));
  SnapshotManifest manifest;
  manifest.model_code = "HT";
  manifest.default_k = 5;
  manifest.kind = IndexKind::kExact;
  manifest.dataset = "unit-test";
  index::HnswOptions hnsw_options;
  hnsw_options.seed = 7;
  index::LshOptions lsh_options;
  lsh_options.seed = 7;
  return Snapshot::Build(std::move(manifest), std::move(corpus), hnsw_options,
                         lsh_options);
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ember_load_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string GoldenPath(const std::string& name) {
  return std::string(EMBER_TEST_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("EMBER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    out.close();
    ASSERT_TRUE(out.good()) << "could not write " << path;
    std::fprintf(stderr, "[golden] regenerated %s (%zu bytes)\n", path.c_str(),
                 actual.size());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << "; run with EMBER_REGEN_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output diverged from " << path
      << "; if the change is intentional, regenerate with "
         "EMBER_REGEN_GOLDEN=1";
}

/// The mixed multi-tenant options behind the committed golden trace: a
/// quota-limited skewed tenant plus an unlimited one, a Poisson warm phase
/// and a 3x burst phase. Any change here (or in the generator) shows up as
/// a byte diff against tests/golden/workload.trace.
GeneratorOptions GoldenWorkloadOptions() {
  GeneratorOptions options;
  options.seed = 42;
  options.notes = "golden workload fixture (PR 10)";
  TenantSpec alpha;
  alpha.name = "alpha";
  alpha.dataset = "unit-test";
  alpha.corpus_rows = 48;
  alpha.zipf_s = 1.1;
  alpha.weight = 3.0;
  alpha.upsert_fraction = 0.15;
  alpha.delete_fraction = 0.05;
  alpha.quota_rate_per_sec = 400;
  alpha.quota_burst = 8;
  TenantSpec beta;
  beta.name = "beta";
  beta.dataset = "unit-test";
  beta.corpus_rows = 48;
  beta.zipf_s = 0.9;
  beta.weight = 1.0;
  options.tenants = {alpha, beta};
  PhaseSpec warm;
  warm.arrival = PhaseSpec::Arrival::kPoisson;
  warm.rate_per_sec = 800;
  warm.duration_micros = 40'000;
  PhaseSpec burst;
  burst.arrival = PhaseSpec::Arrival::kBurst;
  burst.rate_per_sec = 800;
  burst.burst_factor = 3.0;
  burst.burst_duty = 0.5;
  burst.period_micros = 10'000;
  burst.duration_micros = 40'000;
  options.phases = {warm, burst};
  return options;
}

class LoadTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// EMBT0001 container: round-trip and fail-closed corruption sweep
// ---------------------------------------------------------------------------

TEST_F(LoadTest, TraceContainerRoundTripsBitIdentically) {
  const Trace trace = GenerateTrace(GoldenWorkloadOptions());
  ASSERT_GT(trace.events.size(), 0u);

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(trace.SaveTo(path).ok());
  const Result<Trace> loaded = Trace::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Serialize(), trace.Serialize());
  EXPECT_EQ(loaded.value().Checksum(), trace.Checksum());
  EXPECT_EQ(loaded.value().manifest.seed, trace.manifest.seed);
  EXPECT_EQ(loaded.value().manifest.notes, trace.manifest.notes);
  ASSERT_EQ(loaded.value().manifest.tenants.size(), 2u);
  EXPECT_EQ(loaded.value().manifest.tenants[0].name, "alpha");
  EXPECT_DOUBLE_EQ(loaded.value().manifest.tenants[0].rate_per_sec, 400.0);
  EXPECT_EQ(loaded.value().events.size(), trace.events.size());
  std::filesystem::remove(path);
}

TEST_F(LoadTest, EveryByteFlipAndTruncationFailsClosed) {
  // A compact single-tenant trace keeps the exhaustive sweep fast while
  // still covering the magic, manifest, events, length, and checksum
  // regions of the container.
  GeneratorOptions options;
  options.seed = 7;
  TenantSpec tenant;
  tenant.name = "t";
  tenant.corpus_rows = 8;
  tenant.upsert_fraction = 0.3;
  tenant.delete_fraction = 0.2;
  options.tenants = {tenant};
  PhaseSpec phase;
  phase.rate_per_sec = 400;
  phase.duration_micros = 20'000;
  options.phases = {phase};
  const Trace trace = GenerateTrace(options);
  ASSERT_GT(trace.events.size(), 2u);

  const std::string path = TempPath("corrupt_base");
  ASSERT_TRUE(trace.SaveTo(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 32u);
  ASSERT_TRUE(Trace::LoadFrom(path).ok());

  const std::string mutant_path = TempPath("corrupt_mutant");
  auto write_mutant = [&](const std::string& data) {
    std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
    out << data;
  };
  size_t flip_failures = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    write_mutant(mutant);
    if (!Trace::LoadFrom(mutant_path).ok()) ++flip_failures;
  }
  EXPECT_EQ(flip_failures, bytes.size())
      << "a corrupted trace byte was accepted";
  size_t truncation_failures = 0;
  for (size_t len = 0; len < bytes.size(); ++len) {
    write_mutant(bytes.substr(0, len));
    if (!Trace::LoadFrom(mutant_path).ok()) ++truncation_failures;
  }
  EXPECT_EQ(truncation_failures, bytes.size())
      << "a truncated trace was accepted";
  std::filesystem::remove(path);
  std::filesystem::remove(mutant_path);
}

TEST_F(LoadTest, StructurallyInvalidPayloadsAreRefused) {
  // Hand-built containers that pass the checksum but violate trace
  // invariants: the parser must refuse them, not best-effort decode.
  const Trace valid = [] {
    GeneratorOptions options;
    options.seed = 3;
    TenantSpec tenant;
    tenant.name = "t";
    tenant.corpus_rows = 4;
    options.tenants = {tenant};
    PhaseSpec phase;
    phase.rate_per_sec = 200;
    phase.duration_micros = 20'000;
    options.phases = {phase};
    return GenerateTrace(options);
  }();

  // Unsorted arrivals.
  Trace unsorted = valid;
  ASSERT_GE(unsorted.events.size(), 2u);
  std::swap(unsorted.events.front().arrival_micros,
            unsorted.events.back().arrival_micros);
  const std::string path = TempPath("invalid");
  ASSERT_TRUE(unsorted.SaveTo(path).ok());
  EXPECT_FALSE(Trace::LoadFrom(path).ok());

  // Tenant index out of range.
  Trace bad_tenant = valid;
  bad_tenant.events.front().tenant = 9;
  ASSERT_TRUE(bad_tenant.SaveTo(path).ok());
  EXPECT_FALSE(Trace::LoadFrom(path).ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Generator: determinism and workload shape
// ---------------------------------------------------------------------------

TEST_F(LoadTest, GeneratorIsAPureFunctionOfItsOptions) {
  const GeneratorOptions options = GoldenWorkloadOptions();
  const Trace a = GenerateTrace(options);
  const Trace b = GenerateTrace(options);
  EXPECT_EQ(a.Serialize(), b.Serialize());

  GeneratorOptions other = options;
  other.seed = 43;
  EXPECT_NE(GenerateTrace(other).Serialize(), a.Serialize());
}

TEST_F(LoadTest, GeneratedTracesAreSortedMixedAndZipfSkewed) {
  GeneratorOptions options = GoldenWorkloadOptions();
  options.tenants[0].zipf_s = 1.2;
  options.phases[0].duration_micros = 200'000;
  options.phases[1].reload_marker = true;
  const Trace trace = GenerateTrace(options);

  int64_t last_arrival = -1;
  std::map<TraceEvent::Op, size_t> ops;
  std::map<uint64_t, size_t> alpha_query_keys;
  for (const TraceEvent& event : trace.events) {
    EXPECT_GE(event.arrival_micros, last_arrival);
    last_arrival = event.arrival_micros;
    ops[event.op]++;
    if (event.op == TraceEvent::Op::kQuery && event.tenant == 0) {
      EXPECT_LT(event.key, options.tenants[0].corpus_rows);
      alpha_query_keys[event.key]++;
    }
  }
  EXPECT_GT(ops[TraceEvent::Op::kQuery], 0u);
  EXPECT_GT(ops[TraceEvent::Op::kUpsert], 0u);
  EXPECT_GT(ops[TraceEvent::Op::kDelete], 0u);
  // One reload marker per tenant at the burst phase boundary.
  EXPECT_EQ(ops[TraceEvent::Op::kReload], trace.manifest.tenants.size());
  // Zipf skew: the hottest key outdraws a mid-rank key decisively.
  EXPECT_GT(alpha_query_keys[0], alpha_query_keys[24] + 2);
}

TEST_F(LoadTest, ZipfSamplerMatchesItsAnalyticCdf) {
  const ZipfSampler zipf(100, 1.0);
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.999999), 99u);
  Rng rng(11);
  std::vector<size_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(rng.Uniform())]++;
  // Under s=1 over 100 keys, rank 0 draws ~19% of the mass; rank 50 ~0.4%.
  EXPECT_GT(counts[0], counts[50] * 10);
  EXPECT_GT(counts[0], 2000u);
}

// ---------------------------------------------------------------------------
// Admission: token buckets, EDF drain order, failpoints
// ---------------------------------------------------------------------------

TEST_F(LoadTest, TokenBucketRefillsOnTheExplicitClock) {
  TokenBucket bucket(1.0, 2.0);
  const SteadyTime t0 = SteadyTime();
  EXPECT_TRUE(bucket.TryAcquire(t0));  // primed full: 2 tokens
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));
  // +1s at 1/s refills exactly one token.
  const SteadyTime t1 = AfterMicros(t0, 1'000'000);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
  // A long idle stretch caps at burst, not rate * elapsed.
  const SteadyTime t2 = AfterMicros(t1, 60'000'000);
  EXPECT_TRUE(bucket.TryAcquire(t2));
  EXPECT_TRUE(bucket.TryAcquire(t2));
  EXPECT_FALSE(bucket.TryAcquire(t2));
}

TEST_F(LoadTest, AdmissionControllerThrottlesOnlyQuotaedTenants) {
  AdmissionController admission({{"limited", 1.0, 1.0}});
  ASSERT_TRUE(admission.enabled());
  const SteadyTime t0 = SteadyTime();
  EXPECT_TRUE(admission.Admit("limited", t0).ok());
  const Status refused = admission.Admit("limited", t0);
  EXPECT_EQ(refused.code(), Status::Code::kUnavailable);
  EXPECT_NE(refused.message().find("over quota"), std::string::npos);
  // Tenants without a quota (and the default tenant) are never throttled.
  EXPECT_TRUE(admission.Admit("other", t0).ok());
  EXPECT_TRUE(admission.Admit("", t0).ok());

  AdmissionController unconfigured;
  EXPECT_FALSE(unconfigured.enabled());
}

TEST_F(LoadTest, BucketExhaustionReturnsUnavailableWithoutEnqueueing) {
  EngineOptions options;
  options.max_batch = 4;
  options.max_wait_micros = 200;
  options.quotas = {{"t", 1.0, 2.0}};
  auto engine =
      Engine::Create(MakeSnapshot(16), std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());

  // All five submits charge the bucket at the SAME virtual instant: burst 2
  // admits exactly two, and the rest must be refused without entering the
  // queue (throttled, not rejected).
  const SteadyTime instant = AfterMicros(SteadyTime(), 1);
  size_t admitted = 0, throttled = 0;
  std::vector<std::future<Result<serve::QueryReply>>> futures;
  for (int i = 0; i < 5; ++i) {
    SubmitOptions submit;
    submit.tenant = "t";
    submit.admit_time = instant;
    auto submitted = engine.value()->Submit("q" + std::to_string(i), submit);
    if (submitted.ok()) {
      ++admitted;
      futures.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), Status::Code::kUnavailable);
      EXPECT_NE(submitted.status().message().find("over quota"),
                std::string::npos);
      ++throttled;
    }
  }
  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(throttled, 3u);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  engine.value()->Stop();

  const EngineMetrics metrics = engine.value()->Metrics();
  EXPECT_EQ(metrics.submitted, 2u);
  EXPECT_EQ(metrics.throttled, 3u);
  EXPECT_EQ(metrics.rejected, 0u);
  ASSERT_EQ(metrics.tenants.size(), 1u);
  EXPECT_EQ(metrics.tenants[0].tenant, "t");
  EXPECT_EQ(metrics.tenants[0].submitted, 2u);
  EXPECT_EQ(metrics.tenants[0].throttled, 3u);
  EXPECT_EQ(metrics.tenants[0].completed, 2u);
}

/// Drain-order probe: a single worker stalls ~30ms in the encode of a
/// sacrificial query while three upserts with inverted deadlines pile into
/// the queue. Live-corpus ids are assigned in application order, so the
/// MutateReply ids reveal exactly which request drained first.
std::vector<uint64_t> DrainOrderIds(QueuePolicy policy) {
  EngineOptions options;
  options.live = true;
  options.workers = 1;
  options.max_batch = 1;
  options.max_wait_micros = 0;
  options.queue_policy = policy;
  auto engine = Engine::Create(
      MakeSnapshot(32), std::make_shared<HashModel>("HT", 30'000), options);
  EXPECT_TRUE(engine.ok());
  auto stall = engine.value()->Submit("stall");
  EXPECT_TRUE(stall.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Submission order: LATEST deadline first — the EDF inversion.
  const SteadyTime now = SteadyNow();
  std::vector<std::future<Result<serve::MutateReply>>> futures;
  for (const int64_t deadline_sec : {30, 20, 10}) {
    auto submitted = engine.value()->Upsert(
        "row deadline " + std::to_string(deadline_sec),
        AfterMicros(now, deadline_sec * 1'000'000));
    EXPECT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  std::vector<uint64_t> ids;
  for (auto& future : futures) {
    Result<serve::MutateReply> reply = future.get();
    EXPECT_TRUE(reply.ok());
    ids.push_back(reply.ok() ? reply.value().id : 0);
  }
  (void)stall.value().get();
  engine.value()->Stop();
  return ids;
}

TEST_F(LoadTest, EdfCompletesDeadlineInvertedSubmissionsInDeadlineOrder) {
  // Ids start at the 32 base rows. Under EDF the tightest deadline (10s,
  // submitted LAST) must drain first and take the lowest id.
  const std::vector<uint64_t> ids = DrainOrderIds(QueuePolicy::kEdf);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], 32u);  // 10s deadline
  EXPECT_EQ(ids[1], 33u);  // 20s deadline
  EXPECT_EQ(ids[0], 34u);  // 30s deadline
}

TEST_F(LoadTest, FifoBaselineKeepsSubmissionOrderDespiteDeadlines) {
  const std::vector<uint64_t> ids = DrainOrderIds(QueuePolicy::kFifo);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 32u);  // first submitted drains first
  EXPECT_EQ(ids[1], 33u);
  EXPECT_EQ(ids[2], 34u);
}

TEST_F(LoadTest, TraceReadFailpointFailsClosed) {
  SKIP_IF_FAILPOINTS_OFF();
  const Trace trace = GenerateTrace(GoldenWorkloadOptions());
  const std::string path = TempPath("failpoint_trace");
  ASSERT_TRUE(trace.SaveTo(path).ok());

  ASSERT_TRUE(fail::ConfigureSpec("load/trace_read", "error:io,max=1").ok());
  const Result<Trace> injected = Trace::LoadFrom(path);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), Status::Code::kIoError);
  // One-shot spent: the same file loads cleanly afterwards.
  const Result<Trace> clean = Trace::LoadFrom(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().Serialize(), trace.Serialize());
  std::filesystem::remove(path);
}

TEST_F(LoadTest, AdmitBucketFailpointRefusesWithoutCharging) {
  SKIP_IF_FAILPOINTS_OFF();
  EngineOptions options;
  options.quotas = {{"t", 1000.0, 2.0}};
  auto engine =
      Engine::Create(MakeSnapshot(16), std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE(
      fail::ConfigureSpec("admit/bucket", "error:unavailable,max=1").ok());
  SubmitOptions submit;
  submit.tenant = "t";
  auto refused = engine.value()->Submit("q", submit);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(engine.value()->Metrics().submitted, 0u);
  EXPECT_EQ(engine.value()->Metrics().throttled, 1u);

  // The failpoint fires BEFORE the bucket, so the refused submit did not
  // spend a token: the full burst is still available afterwards.
  fail::DisarmAll();
  for (int i = 0; i < 2; ++i) {
    auto submitted = engine.value()->Submit("q" + std::to_string(i), submit);
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    if (submitted.ok()) {
      EXPECT_TRUE(submitted.value().get().ok());
    }
  }
  engine.value()->Stop();
}

// ---------------------------------------------------------------------------
// Replay determinism property
// ---------------------------------------------------------------------------

/// One deterministic fingerprint over everything a replay is supposed to
/// pin down: the replayer's own report (admission decision sequence,
/// per-tenant tallies) plus the engine's deterministic counter subset and
/// per-tenant ledger. Timing histograms and batch composition are
/// explicitly excluded — they are allowed to vary with scheduling.
uint64_t ReplayFingerprint(const ReplayReport& report,
                           const EngineMetrics& metrics) {
  uint64_t h = report.Signature();
  auto fold = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  fold(metrics.submitted);
  fold(metrics.completed);
  fold(metrics.expired);
  fold(metrics.failed);
  fold(metrics.rejected);
  fold(metrics.throttled);
  fold(metrics.upserts);
  fold(metrics.deletes);
  for (const serve::TenantCounters& tenant : metrics.tenants) {
    fold(HashBytes(tenant.tenant.data(), tenant.tenant.size()));
    fold(tenant.submitted);
    fold(tenant.completed);
    fold(tenant.expired);
    fold(tenant.failed);
    fold(tenant.throttled);
    fold(tenant.rejected);
    fold(tenant.deadline_misses);
  }
  return h;
}

TEST_F(LoadTest, ReplayIsBitReproducibleAcrossRunsAndWorkerCounts) {
  // The tentpole property: ANY generated trace, replayed twice from the
  // same seed at 1/2/4/8 batcher threads, produces bit-identical engine
  // counter states and per-tenant admission decisions. Shrinks on failure.
  proptest::Config config;
  config.seed = 0x10adULL;
  config.cases = 6;
  config.min_size = 2;
  config.max_size = 10;
  proptest::ForAll(
      "replay determinism", config, [&](Rng& rng, size_t size) {
        GeneratorOptions options;
        options.seed = rng.Next();
        const size_t tenant_count = 1 + rng.Below(2);
        uint64_t max_rows = 1;
        for (size_t t = 0; t < tenant_count; ++t) {
          TenantSpec tenant;
          tenant.name = "t" + std::to_string(t);
          tenant.corpus_rows = 16 + rng.Below(32);
          max_rows = std::max(max_rows, tenant.corpus_rows);
          tenant.zipf_s = rng.Uniform() * 1.5;
          tenant.weight = 0.5 + rng.Uniform();
          tenant.upsert_fraction = rng.Uniform() * 0.3;
          tenant.delete_fraction = rng.Uniform() * 0.2;
          if (rng.Chance(0.5)) {
            tenant.quota_rate_per_sec = 200 + rng.Uniform() * 2000;
            tenant.quota_burst = 1 + rng.Below(8);
          }
          options.tenants.push_back(std::move(tenant));
        }
        const size_t phase_count = 1 + rng.Below(2);
        for (size_t p = 0; p < phase_count; ++p) {
          PhaseSpec phase;
          phase.arrival = static_cast<PhaseSpec::Arrival>(rng.Below(3));
          phase.rate_per_sec = 500 + rng.Uniform() * 1500;
          phase.duration_micros =
              static_cast<int64_t>(size) * 10'000 / phase_count;
          options.phases.push_back(phase);
        }
        const Trace trace = GenerateTrace(options);
        if (GenerateTrace(options).Serialize() != trace.Serialize()) {
          return false;  // the generator itself must be pure
        }

        uint64_t expected = 0;
        bool first = true;
        for (const size_t workers : {1, 2, 4, 8}) {
          for (int rep = 0; rep < 2; ++rep) {
            EngineOptions engine_options;
            engine_options.live = true;
            engine_options.workers = workers;
            engine_options.max_batch = 8;
            engine_options.max_wait_micros = 200;
            engine_options.quotas = load::QuotasFromTrace(trace);
            auto engine =
                Engine::Create(MakeSnapshot(max_rows),
                               std::make_shared<HashModel>(), engine_options);
            if (!engine.ok()) return false;
            ReplayOptions replay_options;
            replay_options.max_outstanding = 32;
            const Result<ReplayReport> report =
                load::Replay(trace, {engine.value().get()}, replay_options);
            if (!report.ok()) return false;
            engine.value()->Stop();
            const uint64_t fingerprint = ReplayFingerprint(
                report.value(), engine.value()->Metrics());
            if (first) {
              expected = fingerprint;
              first = false;
            } else if (fingerprint != expected) {
              return false;
            }
          }
        }
        return true;
      });
}

TEST_F(LoadTest, TimedReplaySettlesEveryDeleteOfARepeatedKey) {
  // Timed replay defers mutation futures. Two deletes of one key must both
  // be settled, so every submitted event ends completed, expired or failed.
  Trace trace;
  trace.manifest.tenants.push_back({"t0", "unit-test", 0, 0});
  const TraceEvent::Op ops[] = {TraceEvent::Op::kQuery,
                                TraceEvent::Op::kDelete,
                                TraceEvent::Op::kDelete,
                                TraceEvent::Op::kDelete,
                                TraceEvent::Op::kQuery};
  int64_t arrival = 0;
  for (const TraceEvent::Op op : ops) {
    TraceEvent event;
    event.op = op;
    event.arrival_micros = arrival;
    event.key = 3;
    if (op == TraceEvent::Op::kQuery) event.record = "query about row 3";
    trace.events.push_back(std::move(event));
    arrival += 200;
  }

  EngineOptions options;
  options.live = true;
  auto engine =
      Engine::Create(MakeSnapshot(16), std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());
  ReplayOptions replay_options;
  replay_options.mode = ReplayOptions::Mode::kTimed;
  const Result<ReplayReport> report =
      load::Replay(trace, {engine.value().get()}, replay_options);
  engine.value()->Stop();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ReplayReport& r = report.value();
  EXPECT_EQ(r.deletes, 3u);
  EXPECT_EQ(r.submitted, 5u);
  EXPECT_EQ(r.completed + r.expired + r.failed, r.submitted);
  ASSERT_EQ(r.per_tenant.size(), 1u);
  const load::TenantReplay& tenant = r.per_tenant[0];
  EXPECT_EQ(tenant.completed + tenant.expired + tenant.failed,
            tenant.submitted);
}

// ---------------------------------------------------------------------------
// Golden trace replay
// ---------------------------------------------------------------------------

/// Keeps only the deterministic counter samples from a Prometheus scrape
/// and normalizes the process-global engine instance label, so the golden
/// is stable across test orderings and reruns.
std::string FilterScrape(const std::string& scrape) {
  static const std::set<std::string> kKeep = {
      "ember_serve_submitted_total", "ember_serve_completed_total",
      "ember_serve_rejected_total", "ember_serve_throttled_total",
      "ember_serve_expired_total", "ember_serve_failed_total",
      "ember_serve_deadline_misses_total", "ember_serve_upserts_total",
      "ember_serve_deletes_total", "ember_serve_tenant_submitted_total",
      "ember_serve_tenant_completed_total",
      "ember_serve_tenant_throttled_total",
      "ember_serve_tenant_rejected_total", "ember_serve_tenant_expired_total",
      "ember_serve_tenant_failed_total",
      "ember_serve_tenant_deadline_misses_total"};
  std::stringstream in(scrape);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) continue;
    if (kKeep.count(line.substr(0, name_end)) == 0) continue;
    const size_t label = line.find("engine=\"");
    if (label != std::string::npos) {
      size_t digits_end = label + 8;
      while (digits_end < line.size() && line[digits_end] != '"') {
        ++digits_end;
      }
      line = line.substr(0, label + 8) + "E" + line.substr(digits_end);
    }
    out += line + "\n";
  }
  return out;
}

TEST_F(LoadTest, GoldenTraceReplayMatchesCommittedFixtures) {
  // Three goldens guard three layers: workload.trace pins the generator's
  // bytes, workload_stages.txt pins the replay's span structure, and
  // workload_scrape.prom pins the engine + per-tenant counter outcomes.
  const Trace generated = GenerateTrace(GoldenWorkloadOptions());
  const std::string trace_path = GoldenPath("workload.trace");
  if (std::getenv("EMBER_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(generated.SaveTo(trace_path).ok());
    std::fprintf(stderr, "[golden] regenerated %s (%zu events)\n",
                 trace_path.c_str(), generated.events.size());
  }
  const Result<Trace> loaded = Trace::LoadFrom(trace_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Generator drift guard: today's generator must still produce the
  // committed bytes from the committed options.
  EXPECT_EQ(loaded.value().Serialize(), generated.Serialize());
  const Trace& trace = loaded.value();

  // Deterministic replay shape: one worker, singleton batches, one query in
  // flight — the span structure is then a pure function of the trace.
  obs::Registry::Global().Reset();
  EngineOptions options;
  options.live = true;
  options.workers = 1;
  options.max_batch = 1;
  options.max_wait_micros = 0;
  options.max_queue = 256;
  options.quotas = load::QuotasFromTrace(trace);
  auto engine =
      Engine::Create(MakeSnapshot(48), std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());

  obs::Tracer::Global().SetRingCapacity(16384);
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  ReplayOptions replay_options;
  replay_options.max_outstanding = 1;
  const Result<ReplayReport> report =
      load::Replay(trace, {engine.value().get()}, replay_options);
  // Scrape while the engine's collector is still registered, then Stop()
  // BEFORE disabling the tracer: the last future completes inside the
  // worker's serve/complete span, so only joining the worker guarantees
  // every span of the final batch has been recorded.
  const std::string scrape = obs::Registry::Global().ToPrometheusText();
  engine.value()->Stop();
  obs::Tracer::Global().SetEnabled(false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().events, trace.events.size());
  EXPECT_GT(report.value().throttled, 0u)
      << "fixture should exercise the token bucket";
  EXPECT_EQ(report.value().rejected, 0u);

  // StageBreakdown golden: span names + counts only (times vary by run).
  const std::vector<obs::SpanRecord> records = obs::Tracer::Global().Drain();
  std::vector<obs::StageBreakdownRow> rows = obs::StageBreakdown(records);
  std::sort(rows.begin(), rows.end(),
            [](const obs::StageBreakdownRow& a,
               const obs::StageBreakdownRow& b) {
              return std::string(a.name) < std::string(b.name);
            });
  std::string stages;
  for (const obs::StageBreakdownRow& row : rows) {
    stages += std::string(row.name) + " spans=" + std::to_string(row.spans) +
              "\n";
  }
  CheckGolden("workload_stages.txt", stages);

  // Prometheus golden: the deterministic counter subset of the scrape.
  CheckGolden("workload_scrape.prom", FilterScrape(scrape));

  obs::Registry::Global().Reset();
  obs::Tracer::Global().Clear();
}

}  // namespace
}  // namespace ember
