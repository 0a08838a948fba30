// Sharded scatter-gather scaling benchmark (beyond the paper; DESIGN.md
// §13): partitions the D2 corpus round-robin into N shard snapshots, fronts
// them with the serve::Router, and measures
//
//   (a) closed-loop capacity and latency vs shard count {1,2,4,8} — each
//       shard engine owns a worker thread, so on a multi-core host the
//       per-query scan cost drops ~1/N while the embed-once and merge
//       stages stay constant (on a single-core host the curve is flat:
//       same total work, no parallelism to buy),
//   (b) the router's per-stage overhead (embed / fanout / gather / merge)
//       so the merge tax of sharding is visible next to the scan win, and
//   (c) availability under replica outage at N=2, R=2: with one replica of
//       a shard stopped the sibling must keep answers at 100% with zero
//       partials; with BOTH replicas stopped the router degrades to
//       partial results instead of failing.
//
// Every routed operating point is spot-checked bit-identical to the
// unsharded oracle before timing starts (exact shards only claim exactness
// because of that invariant).
//
// Artifacts: exp26_scaling.csv and exp26_availability.csv.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using namespace ember;

constexpr double kProbeSeconds = 2.0;
constexpr size_t kProducers = 4;
constexpr size_t kK = 10;

serve::SnapshotManifest BaseManifest(const std::string& model_code) {
  serve::SnapshotManifest manifest;
  manifest.model_code = model_code;
  manifest.default_k = kK;
  manifest.kind = serve::IndexKind::kExact;
  manifest.dataset = "D2";
  return manifest;
}

std::unique_ptr<serve::Router> MakeRouter(
    const std::vector<serve::Snapshot>& shards,
    std::shared_ptr<embed::EmbeddingModel> model, size_t replicas) {
  std::vector<std::unique_ptr<serve::Engine>> engines;
  serve::EngineOptions engine_options;
  engine_options.k = kK;
  for (size_t r = 0; r < replicas; ++r) {
    for (const serve::Snapshot& shard : shards) {
      auto engine = serve::Engine::Create(shard, model, engine_options);
      EMBER_CHECK_MSG(engine.ok(), "engine create: %s",
                      engine.status().ToString().c_str());
      engines.push_back(std::move(engine).value());
    }
  }
  serve::RouterOptions options;
  options.k = kK;
  auto router = serve::Router::Create(std::move(engines), model, options);
  EMBER_CHECK_MSG(router.ok(), "router create: %s",
                  router.status().ToString().c_str());
  return std::move(router).value();
}

bool RoutedMatchesOracle(serve::Router& router, const serve::Snapshot& oracle,
                         const la::Matrix& query_vectors,
                         const std::vector<std::string>& queries,
                         size_t sample) {
  const size_t n = std::min(sample, queries.size());
  la::Matrix probe(n, query_vectors.cols());
  for (size_t q = 0; q < n; ++q) {
    std::copy(query_vectors.Row(q), query_vectors.Row(q) + probe.cols(),
              probe.Row(q));
  }
  const auto expect = oracle.QueryBatch(probe, kK);
  for (size_t q = 0; q < n; ++q) {
    auto submitted = router.Submit(queries[q]);
    if (!submitted.ok()) return false;
    auto reply = submitted.value().get();
    if (!reply.ok() || reply.value().partial) return false;
    const auto& got = reply.value().neighbors;
    if (got.size() != expect[q].size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].id != expect[q][i].id ||
          got[i].distance != expect[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

/// Closed-loop probe (exp22 policy): kProducers threads, one request in
/// flight each. Returns achieved QPS.
double ClosedLoopCapacity(serve::Router& router,
                          const std::vector<std::string>& queries) {
  std::atomic<uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const SteadyTime start = SteadyNow();
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      size_t i = p;
      while (!stop.load(std::memory_order_relaxed)) {
        auto submitted = router.Submit(queries[i % queries.size()]);
        i += kProducers;
        if (!submitted.ok()) continue;  // backpressure: retry immediately
        if (submitted.value().get().ok()) {
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kProbeSeconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(done.load()) /
         MicrosBetween(start, SteadyNow()) * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp26 / sharded scaling",
                     "Scatter-gather serving: capacity vs shard count, "
                     "router stage overhead, replica-outage availability");

  const datagen::CleanCleanDataset& d2 = bench::GetDataset("D2", env);
  auto model = std::shared_ptr<embed::EmbeddingModel>(
      embed::CreateModel(embed::ModelId::kSGtrT5));
  model->Initialize();
  const la::Matrix corpus = bench::Vectors(*model, d2, /*left_side=*/false,
                                           env);
  const la::Matrix query_vectors =
      bench::Vectors(*model, d2, /*left_side=*/true, env);
  const std::vector<std::string> queries = d2.left.AllSentences();
  const serve::Snapshot oracle =
      serve::Snapshot::Build(BaseManifest(model->info().code), corpus);

  // --- (a)+(b): capacity and stage breakdown vs shard count. ---
  eval::Table scaling("exp26: closed-loop capacity vs shard count (D2, " +
                      std::to_string(corpus.rows()) + " rows, " +
                      std::to_string(kProducers) + " producers, R=1)");
  scaling.SetHeader({"shards", "qps", "p50_ms", "p99_ms", "embed_us",
                     "fanout_us", "gather_us", "merge_us", "oracle_identical"});
  for (const uint32_t shard_count : {1u, 2u, 4u, 8u}) {
    auto shards = serve::BuildShardSnapshots(BaseManifest(model->info().code),
                                             corpus, shard_count);
    EMBER_CHECK_MSG(shards.ok(), "shard build: %s",
                    shards.status().ToString().c_str());
    auto router = MakeRouter(shards.value(), model, /*replicas=*/1);
    const bool identical =
        RoutedMatchesOracle(*router, oracle, query_vectors, queries, 32);
    const double qps = ClosedLoopCapacity(*router, queries);
    router->Stop();
    const serve::RouterMetrics metrics = router->Metrics();
    scaling.AddRow({std::to_string(shard_count), eval::Table::Num(qps, 0),
                    eval::Table::Num(metrics.total_micros.Percentile(0.5) /
                                         1e3, 2),
                    eval::Table::Num(metrics.total_micros.Percentile(0.99) /
                                         1e3, 2),
                    eval::Table::Num(metrics.embed_micros.Mean(), 0),
                    eval::Table::Num(metrics.fanout_micros.Mean(), 0),
                    eval::Table::Num(metrics.gather_micros.Mean(), 0),
                    eval::Table::Num(metrics.merge_micros.Mean(), 0),
                    identical ? "yes" : "NO"});
    EMBER_CHECK_MSG(identical, "sharded results diverged from the oracle");
  }
  scaling.Print();
  bench::SaveArtifact(env, "exp26_scaling", scaling);

  // --- (c): availability through replica outage at N=2, R=2. ---
  eval::Table availability(
      "exp26: availability under outage (N=2, R=2, 200 requests)");
  availability.SetHeader({"outage", "ok_pct", "full_pct", "partial",
                          "degraded_shards", "sibling_retries"});
  auto shards2 = serve::BuildShardSnapshots(BaseManifest(model->info().code),
                                            corpus, 2);
  EMBER_CHECK_MSG(shards2.ok(), "shard build: %s",
                  shards2.status().ToString().c_str());
  const struct {
    const char* name;
    size_t stop_replicas;  // replicas of shard 0 to stop before driving
  } outages[] = {
      {"none", 0},
      {"one replica of shard 0", 1},
      {"ALL replicas of shard 0", 2},
  };
  for (const auto& outage : outages) {
    auto router = MakeRouter(shards2.value(), model, /*replicas=*/2);
    for (size_t r = 0; r < outage.stop_replicas; ++r) {
      router->replicas(0)[r]->Stop();
    }
    constexpr size_t kRequests = 200;
    std::vector<std::future<Result<serve::QueryReply>>> futures;
    size_t refused = 0;
    for (size_t i = 0; i < kRequests; ++i) {
      auto submitted = router->Submit(queries[i % queries.size()]);
      if (submitted.ok()) {
        futures.push_back(std::move(submitted).value());
      } else {
        ++refused;
      }
    }
    size_t ok = 0, full = 0;
    for (auto& future : futures) {
      auto reply = future.get();
      if (!reply.ok()) continue;
      ++ok;
      if (!reply.value().partial) ++full;
    }
    router->Stop();
    const serve::RouterMetrics metrics = router->Metrics();
    availability.AddRow(
        {outage.name,
         eval::Table::Num(100.0 * static_cast<double>(ok) / kRequests, 1),
         eval::Table::Num(100.0 * static_cast<double>(full) / kRequests, 1),
         std::to_string(metrics.partial),
         std::to_string(metrics.shards_degraded),
         std::to_string(metrics.sibling_retries)});
    if (outage.stop_replicas == 0 || outage.stop_replicas == 1) {
      // The acceptance bar: a single-replica outage is invisible.
      EMBER_CHECK_MSG(ok == kRequests && full == kRequests && refused == 0,
                      "availability dropped under outage '%s': ok=%zu "
                      "full=%zu refused=%zu",
                      outage.name, ok, full, refused);
    } else {
      EMBER_CHECK_MSG(ok == kRequests && full == 0,
                      "whole-group outage must degrade to partial, not "
                      "fail: ok=%zu full=%zu",
                      ok, full);
    }
  }
  availability.Print();
  bench::SaveArtifact(env, "exp26_availability", availability);
  return 0;
}
