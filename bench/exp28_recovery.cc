// Recovery benchmark (beyond the paper; DESIGN.md §15): measures what the
// replica-recovery machinery costs and buys on a live sharded fleet:
//
//   (a) catch-up lag vs missed mutations — kill one replica, stream M
//       mutations past it, rejoin, and time until Converged(); run each M
//       once with a log that holds the whole suffix (replay) and once with
//       a 2-entry log (forced snapshot resync), exposing the crossover
//       between the two heal paths;
//   (b) availability and p99 across a full kill/rejoin cycle under open-
//       loop query load with a live write stream — the availability number
//       is EMBER_CHECKed at 100%: an outage of one replica must never cost
//       a query while its sibling serves; and
//   (c) anti-entropy detection lag — fabricate silent divergence on one
//       replica and time until the digest probe quarantines and heals it.
//
// Artifacts: exp28_catchup.csv, exp28_cycle.csv, exp28_antientropy.csv
// under bench_artifacts/.

#include <future>
#include <thread>

#include "bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using namespace ember;

constexpr size_t kK = 10;
constexpr int64_t kRecoverTickMicros = 500;

std::unique_ptr<serve::Router> MakeFleet(
    const la::Matrix& corpus, std::shared_ptr<embed::EmbeddingModel> model,
    uint32_t shards, size_t replicas, size_t log_capacity) {
  serve::SnapshotManifest base;
  base.model_code = model->info().code;
  base.default_k = kK;
  base.kind = serve::IndexKind::kExact;
  base.dataset = "D2";
  auto built = serve::BuildShardSnapshots(base, corpus, shards);
  EMBER_CHECK_MSG(built.ok(), "shards: %s",
                  built.status().ToString().c_str());
  serve::EngineOptions engine_options;
  engine_options.k = kK;
  engine_options.live = true;
  std::vector<std::unique_ptr<serve::Engine>> engines;
  for (size_t r = 0; r < replicas; ++r) {
    for (const serve::Snapshot& shard : built.value()) {
      auto engine = serve::Engine::Create(shard, model, engine_options);
      EMBER_CHECK_MSG(engine.ok(), "engine: %s",
                      engine.status().ToString().c_str());
      engines.push_back(std::move(engine).value());
    }
  }
  serve::RouterOptions options;
  options.k = kK;
  options.recover_tick_micros = kRecoverTickMicros;
  options.log_capacity = log_capacity;
  auto router = serve::Router::Create(std::move(engines), model, options);
  EMBER_CHECK_MSG(router.ok(), "router: %s",
                  router.status().ToString().c_str());
  return std::move(router).value();
}

/// Waits for Converged() with a fine poll; returns the wait in ms (negative
/// if the deadline passed without convergence).
double TimeToConverge(serve::Router& router, double timeout_seconds = 30) {
  const SteadyTime start = SteadyNow();
  const SteadyTime deadline =
      AfterMicros(start, static_cast<int64_t>(timeout_seconds * 1e6));
  while (!router.Converged()) {
    if (MicrosBetween(SteadyNow(), deadline) <= 0) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return MicrosBetween(start, SteadyNow()) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp28 / recovery",
                     "Replica recovery: catch-up lag vs missed mutations, "
                     "replay/resync crossover, availability across a "
                     "kill/rejoin cycle, anti-entropy detection lag");

  const datagen::CleanCleanDataset& d2 = bench::GetDataset("D2", env);
  auto model = std::shared_ptr<embed::EmbeddingModel>(
      embed::CreateModel(embed::ModelId::kSGtrT5));
  model->Initialize();
  const la::Matrix corpus =
      bench::Vectors(*model, d2, /*left_side=*/false, env);
  const std::vector<std::string> queries = d2.left.AllSentences();
  EMBER_CHECK(!queries.empty());

  // --- (a) catch-up lag vs missed mutations: replay vs forced resync. ---
  eval::Table catchup(
      "exp28(a): heal time after M missed mutations (1 shard x 2 replicas, "
      "recovery tick " + std::to_string(kRecoverTickMicros) + " us)");
  catchup.SetHeader({"missed", "path", "heal_ms", "replayed", "resyncs",
                     "converged"});
  for (const size_t missed : {64ul, 256ul, 1024ul}) {
    for (const bool force_resync : {false, true}) {
      auto router = MakeFleet(corpus, model, /*shards=*/1, /*replicas=*/2,
                              force_resync ? 2 : 4096);
      EMBER_CHECK(router->KillReplica(0, 1).ok());
      for (size_t m = 0; m < missed; ++m) {
        const auto admitted = router->Upsert(
            "missed " + std::to_string(m) + " " +
            queries[m % queries.size()]);
        EMBER_CHECK_MSG(admitted.ok(), "upsert: %s",
                        admitted.status().ToString().c_str());
      }
      EMBER_CHECK(router->RejoinReplica(0, 1).ok());
      const double heal_ms = TimeToConverge(*router);
      router->Stop();
      const serve::RouterMetrics metrics = router->Metrics();
      catchup.AddRow({std::to_string(missed),
                      force_resync ? "resync" : "replay",
                      eval::Table::Num(heal_ms, 1),
                      std::to_string(metrics.replayed_mutations),
                      std::to_string(metrics.resyncs),
                      heal_ms >= 0 ? "yes" : "NO"});
      EMBER_CHECK_MSG(heal_ms >= 0, "fleet never converged (M=%zu)",
                      missed);
    }
  }
  catchup.Print();
  bench::SaveArtifact(env, "exp28_catchup", catchup);

  // --- (b) availability + p99 across one kill/rejoin cycle under load. ---
  eval::Table cycle(
      "exp28(b): open-loop 300 qps with a live write stream; kill one "
      "replica at t/3, rejoin at 2t/3 (2 shards x 2 replicas)");
  cycle.SetHeader({"phase", "offered", "answered", "partial",
                   "availability_pct", "p50_ms", "p99_ms"});
  {
    constexpr double kQps = 300.0, kSeconds = 4.0;
    auto router = MakeFleet(corpus, model, /*shards=*/2, /*replicas=*/2,
                            /*log_capacity=*/4096);
    const auto total = static_cast<size_t>(kQps * kSeconds + 0.5);
    const size_t kill_at = total / 3, rejoin_at = (2 * total) / 3;
    std::vector<std::future<Result<serve::QueryReply>>> futures;
    futures.reserve(total);
    const SteadyTime start = SteadyNow();
    for (size_t i = 0; i < total; ++i) {
      std::this_thread::sleep_until(
          AfterMicros(start, static_cast<int64_t>(i * 1e6 / kQps)));
      if (i == kill_at) EMBER_CHECK(router->KillReplica(0, 1).ok());
      if (i == rejoin_at) EMBER_CHECK(router->RejoinReplica(0, 1).ok());
      if (i % 8 == 0) {
        const auto admitted = router->Upsert(
            "cycle upsert " + std::to_string(i));
        EMBER_CHECK(admitted.ok());
      }
      auto submitted = router->Submit(queries[i % queries.size()]);
      EMBER_CHECK(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    size_t answered = 0, partial = 0;
    for (auto& future : futures) {
      auto reply = future.get();
      if (reply.ok()) {
        ++answered;
        partial += reply.value().partial ? 1 : 0;
      }
    }
    const double heal_ms = TimeToConverge(*router);
    router->Stop();
    const serve::RouterMetrics metrics = router->Metrics();
    const double availability =
        100.0 * static_cast<double>(answered - partial) /
        static_cast<double>(total);
    cycle.AddRow({"kill/rejoin cycle", std::to_string(total),
                  std::to_string(answered), std::to_string(partial),
                  eval::Table::Num(availability, 2),
                  eval::Table::Num(
                      metrics.total_micros.Percentile(0.5) / 1e3, 2),
                  eval::Table::Num(
                      metrics.total_micros.Percentile(0.99) / 1e3, 2)});
    // The acceptance bar: one replica down must cost ZERO queries — full
    // (non-partial) answers for every submitted query, and the rejoiner
    // converges afterwards.
    EMBER_CHECK_MSG(answered == total && partial == 0,
                    "availability broke: %zu/%zu answered, %zu partial",
                    answered, total, partial);
    EMBER_CHECK_MSG(heal_ms >= 0, "rejoined replica never converged");
    EMBER_CHECK_MSG(metrics.catchups + metrics.resyncs >= 1,
                    "no heal recorded");
  }
  cycle.Print();
  bench::SaveArtifact(env, "exp28_cycle", cycle);

  // --- (c) anti-entropy: silent divergence -> detection -> heal. ---
  eval::Table anti("exp28(c): fabricated silent divergence on one replica");
  anti.SetHeader({"metric", "value"});
  {
    auto router = MakeFleet(corpus, model, /*shards=*/1, /*replicas=*/2,
                            /*log_capacity=*/4096);
    auto direct = router->replicas(0)[1]->Upsert("fabricated row");
    EMBER_CHECK(direct.ok() && direct.value().get().ok());
    const SteadyTime t0 = SteadyNow();
    while (router->Metrics().digest_mismatches == 0) {
      EMBER_CHECK_MSG(MicrosBetween(t0, SteadyNow()) < 30e6,
                      "digest probe never fired");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double detect_ms = MicrosBetween(t0, SteadyNow()) / 1e3;
    const double heal_ms = TimeToConverge(*router);
    EMBER_CHECK_MSG(heal_ms >= 0, "diverged replica never healed");
    router->Stop();
    const serve::RouterMetrics metrics = router->Metrics();
    anti.AddRow({"detect_ms", eval::Table::Num(detect_ms, 2)});
    anti.AddRow({"heal_ms (detect -> converged)",
                 eval::Table::Num(heal_ms, 2)});
    anti.AddRow({"digest_mismatches",
                 std::to_string(metrics.digest_mismatches)});
    anti.AddRow({"resyncs", std::to_string(metrics.resyncs)});
  }
  anti.Print();
  bench::SaveArtifact(env, "exp28_antientropy", anti);

  std::printf("\nexp28 done: recovery heals are measured, availability "
              "held at 100%% through the cycle.\n");
  return 0;
}
