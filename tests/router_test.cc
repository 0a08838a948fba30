// Sharded scatter-gather serving tests (DESIGN.md §13): the round-robin
// shard plan and partitioner, global-id remapping, the k-way MergeTopK
// (proptest: bit-identical to the unsharded oracle across shard counts,
// ragged sizes, and duplicate scores), fail-closed shard-set loading,
// Router fleet validation, end-to-end router-vs-oracle equality, replica
// fail-over under a tripped breaker, and partial-result degradation when a
// whole shard group is down.

#include "serve/router.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/sharding.h"
#include "la/vector_ops.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "proptest.h"
#include "recover/digest.h"
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

using serve::BuildShardSnapshots;
using serve::Engine;
using serve::EngineOptions;
using serve::Health;
using serve::IndexKind;
using serve::LoadShardSet;
using serve::MergeTopK;
using serve::ReplicaState;
using serve::Router;
using serve::RouterOptions;
using serve::RouterReply;
using serve::Snapshot;
using serve::SnapshotManifest;
using serve::SubmitOptions;
using serve::TenantCounters;

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
  explicit HashModel(std::string code = "HT")
      : EmbeddingModel(HashModelInfo(code)) {}

  void EncodeInto(const std::string& sentence, float* out) const override {
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

/// Sentences with repeats, so several corpus rows share one embedding and
/// neighbor lists carry duplicate distances (the tie-break path).
std::vector<std::string> DuplicateHeavySentences(size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  const size_t distinct = n / 2 + 1;
  for (size_t i = 0; i < n; ++i) {
    out.push_back("dup record " + std::to_string(i % distinct));
  }
  return out;
}

SnapshotManifest BaseManifest(uint32_t default_k = 5,
                              const std::string& model_code = "HT") {
  SnapshotManifest manifest;
  manifest.model_code = model_code;
  manifest.default_k = default_k;
  manifest.kind = IndexKind::kExact;
  manifest.dataset = "router-test";
  return manifest;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ember_router_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

/// Per-shard exact top-k, remapped to global ids and k-way merged — the
/// reference scatter-gather computation the Router must reproduce.
std::vector<std::vector<index::Neighbor>> ShardedQuery(
    const std::vector<Snapshot>& shards, const la::Matrix& queries,
    size_t k) {
  std::vector<std::vector<std::vector<index::Neighbor>>> per_shard;
  for (const Snapshot& shard : shards) {
    auto lists = shard.QueryBatch(queries, k);
    for (auto& list : lists) {
      index::RemapToGlobal(list, shard.manifest().row_offset,
                           shard.manifest().shard_count);
    }
    per_shard.push_back(std::move(lists));
  }
  std::vector<std::vector<index::Neighbor>> merged(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<std::vector<index::Neighbor>> lists;
    for (auto& shard_lists : per_shard) {
      lists.push_back(std::move(shard_lists[q]));
    }
    merged[q] = MergeTopK(lists, k);
  }
  return merged;
}

bool SameResults(const std::vector<index::Neighbor>& a,
                 const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shard plan + partitioner
// ---------------------------------------------------------------------------

TEST(ShardPlan, RoundTripsEveryRowAndBalancesSizes) {
  proptest::ForAll(
      "plan round trip", {.cases = 50, .min_size = 1, .max_size = 200},
      [](Rng& rng, size_t n) {
        const uint32_t count = static_cast<uint32_t>(rng.Below(9) + 1);
        const core::ShardPlan plan{count, n};
        uint64_t covered = 0;
        for (uint32_t s = 0; s < count; ++s) covered += plan.RowsInShard(s);
        if (covered != n) return false;
        for (uint64_t g = 0; g < n; ++g) {
          const uint32_t s = plan.ShardOfRow(g);
          const uint64_t local = plan.LocalIndex(g);
          if (s >= count) return false;
          if (local >= plan.RowsInShard(s)) return false;
          if (plan.GlobalId(s, local) != g) return false;
        }
        // Round-robin balance: shard sizes differ by at most one row.
        uint64_t lo = n, hi = 0;
        for (uint32_t s = 0; s < count; ++s) {
          lo = std::min(lo, plan.RowsInShard(s));
          hi = std::max(hi, plan.RowsInShard(s));
        }
        return hi - lo <= 1;
      });
}

TEST(ShardPlan, PartitionReassemblesCorpus) {
  HashModel model;
  model.Initialize();
  const la::Matrix corpus = model.VectorizeAll(Sentences(37, "corpus"));
  for (uint32_t count : {1u, 2u, 3u, 5u, 8u, 41u}) {
    const auto parts = core::PartitionRoundRobin(corpus, count);
    ASSERT_EQ(parts.size(), count);
    const core::ShardPlan plan{count, corpus.rows()};
    for (uint32_t s = 0; s < count; ++s) {
      ASSERT_EQ(parts[s].rows(), plan.RowsInShard(s));
      for (size_t local = 0; local < parts[s].rows(); ++local) {
        const uint64_t global = plan.GlobalId(s, local);
        for (size_t d = 0; d < corpus.cols(); ++d) {
          ASSERT_EQ(parts[s].Row(local)[d], corpus.Row(global)[d])
              << "shard " << s << " local " << local;
        }
      }
    }
  }
}

TEST(ShardPlan, PartitionStringsMatchesPlan) {
  const auto rows = Sentences(11, "rec");
  const auto parts = core::PartitionRoundRobin(rows, 4);
  ASSERT_EQ(parts.size(), 4u);
  const core::ShardPlan plan{4, rows.size()};
  for (uint32_t s = 0; s < 4; ++s) {
    ASSERT_EQ(parts[s].size(), plan.RowsInShard(s));
    for (size_t local = 0; local < parts[s].size(); ++local) {
      EXPECT_EQ(parts[s][local], rows[plan.GlobalId(s, local)]);
    }
  }
}

// ---------------------------------------------------------------------------
// MergeTopK: the satellite proptest — bit-identical to the unsharded
// QueryBatch across shard counts, ragged sizes, and duplicate scores.
// ---------------------------------------------------------------------------

TEST(MergeTopK, BitIdenticalToUnshardedOracleAcrossShardCounts) {
  HashModel model;
  model.Initialize();
  proptest::ForAll(
      "sharded merge == unsharded oracle",
      {.cases = 30, .min_size = 2, .max_size = 48},
      [&](Rng& rng, size_t n) {
        // Duplicate-heavy corpus: equal distances are common, so the
        // (distance, global id) tie-break is genuinely exercised.
        const la::Matrix corpus =
            model.VectorizeAll(DuplicateHeavySentences(n));
        const size_t k = rng.Below(n + 3) + 1;
        std::vector<std::string> query_sentences =
            Sentences(3, "query" + std::to_string(rng.Next() % 1000));
        query_sentences.push_back("dup record 0");  // exact-hit duplicates
        const la::Matrix queries = model.VectorizeAll(query_sentences);

        la::Matrix oracle_corpus(corpus.rows(), corpus.cols());
        std::copy(corpus.data(), corpus.data() + corpus.rows() * corpus.cols(),
                  oracle_corpus.data());
        const Snapshot oracle =
            Snapshot::Build(BaseManifest(), std::move(oracle_corpus));
        const auto expect = oracle.QueryBatch(queries, k);

        for (uint32_t count : {1u, 2u, 3u, 5u, 8u}) {
          auto shards = BuildShardSnapshots(BaseManifest(), corpus, count);
          if (!shards.ok()) return false;
          const auto merged = ShardedQuery(shards.value(), queries, k);
          for (size_t q = 0; q < queries.rows(); ++q) {
            if (!SameResults(merged[q], expect[q])) return false;
          }
        }
        return true;
      });
}

TEST(MergeTopK, EdgeCases) {
  const std::vector<std::vector<index::Neighbor>> empty_lists(3);
  EXPECT_TRUE(MergeTopK(empty_lists, 5).empty());
  EXPECT_TRUE(MergeTopK({}, 5).empty());

  // k larger than the total pool: every element comes back, in order.
  const std::vector<std::vector<index::Neighbor>> lists = {
      {{0, 0.1f}, {2, 0.3f}},
      {},
      {{1, 0.1f}, {3, 0.2f}},
  };
  const auto merged = MergeTopK(lists, 10);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 0u);  // 0.1 ties broken by id
  EXPECT_EQ(merged[1].id, 1u);
  EXPECT_EQ(merged[2].id, 3u);
  EXPECT_EQ(merged[3].id, 2u);
  EXPECT_EQ(MergeTopK(lists, 2).size(), 2u);
}

// ---------------------------------------------------------------------------
// Shard-set build / load (fail-closed)
// ---------------------------------------------------------------------------

la::Matrix TestCorpus(size_t rows) {
  HashModel model;
  model.Initialize();
  return model.VectorizeAll(Sentences(rows, "corpus"));
}

TEST(ShardSet, BuildSetsPlanManifests) {
  const la::Matrix corpus = TestCorpus(10);
  auto shards = BuildShardSnapshots(BaseManifest(), corpus, 4);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards.value().size(), 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    const SnapshotManifest& m = shards.value()[s].manifest();
    EXPECT_EQ(m.shard_id, s);
    EXPECT_EQ(m.shard_count, 4u);
    EXPECT_EQ(m.row_offset, s);
    EXPECT_EQ(m.rows, (core::ShardPlan{4, 10}).RowsInShard(s));
    EXPECT_TRUE(shards.value()[s].Validate().ok());
  }
  EXPECT_FALSE(BuildShardSnapshots(BaseManifest(), corpus, 0).ok());
}

std::vector<std::string> SaveShardSet(const std::vector<Snapshot>& shards,
                                      const std::string& tag) {
  std::vector<std::string> paths;
  for (size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(TempPath(tag + "_s" + std::to_string(s)));
    EXPECT_TRUE(shards[s].SaveTo(paths[s]).ok());
  }
  return paths;
}

TEST(ShardSet, RoundTripsThroughDiskSorted) {
  const la::Matrix corpus = TestCorpus(13);
  auto built = BuildShardSnapshots(BaseManifest(), corpus, 3);
  ASSERT_TRUE(built.ok());
  auto paths = SaveShardSet(built.value(), "roundtrip");
  // Shuffled path order must come back sorted by shard_id.
  std::swap(paths[0], paths[2]);
  auto loaded = LoadShardSet(paths);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(loaded.value()[s].manifest().shard_id, s);
  }
  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(5, "q"));
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_TRUE(SameResults(ShardedQuery(loaded.value(), queries, 4)[q],
                            ShardedQuery(built.value(), queries, 4)[q]));
  }
  for (const auto& path : paths) std::filesystem::remove(path);
}

TEST(ShardSet, RefusesDuplicateShardId) {
  const la::Matrix corpus = TestCorpus(9);
  auto built = BuildShardSnapshots(BaseManifest(), corpus, 3);
  ASSERT_TRUE(built.ok());
  auto paths = SaveShardSet(built.value(), "dup");
  auto loaded = LoadShardSet({paths[0], paths[1], paths[0]});
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("duplicate shard_id"),
            std::string::npos);
  for (const auto& path : paths) std::filesystem::remove(path);
}

TEST(ShardSet, RefusesWrongFileCount) {
  const la::Matrix corpus = TestCorpus(9);
  auto built = BuildShardSnapshots(BaseManifest(), corpus, 3);
  ASSERT_TRUE(built.ok());
  auto paths = SaveShardSet(built.value(), "count");
  EXPECT_FALSE(LoadShardSet({paths[0], paths[1]}).ok());
  EXPECT_FALSE(LoadShardSet(std::vector<std::string>{}).ok());
  for (const auto& path : paths) std::filesystem::remove(path);
}

TEST(ShardSet, RefusesMismatchedModelFingerprint) {
  const la::Matrix corpus = TestCorpus(9);
  auto built = BuildShardSnapshots(BaseManifest(), corpus, 3);
  ASSERT_TRUE(built.ok());
  auto paths = SaveShardSet(built.value(), "fp");
  // Same plan position, different model fingerprint.
  auto impostor =
      BuildShardSnapshots(BaseManifest(5, "HX"), corpus, 3);
  ASSERT_TRUE(impostor.ok());
  ASSERT_TRUE(impostor.value()[1].SaveTo(paths[1]).ok());
  auto loaded = LoadShardSet(paths);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("fingerprint"),
            std::string::npos);
  for (const auto& path : paths) std::filesystem::remove(path);
}

TEST(ShardSet, RefusesMixedShardCounts) {
  const la::Matrix corpus = TestCorpus(8);
  auto three = BuildShardSnapshots(BaseManifest(), corpus, 3);
  auto two = BuildShardSnapshots(BaseManifest(), corpus, 2);
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(two.ok());
  auto paths3 = SaveShardSet(three.value(), "mix3");
  auto paths2 = SaveShardSet(two.value(), "mix2");
  EXPECT_FALSE(LoadShardSet({paths3[0], paths2[1], paths3[2]}).ok());
  EXPECT_FALSE(LoadShardSet({paths2[0], paths2[1], paths3[2]}).ok());
  for (const auto& path : paths3) std::filesystem::remove(path);
  for (const auto& path : paths2) std::filesystem::remove(path);
}

TEST(ShardSet, ManifestLoadRejectsIncoherentPlan) {
  // A manifest whose plan is self-contradictory must fail at load, not
  // surface later as wrong global ids.
  const la::Matrix corpus = TestCorpus(6);
  SnapshotManifest bad = BaseManifest();
  bad.shard_id = 5;
  bad.shard_count = 2;  // shard_id >= shard_count
  bad.row_offset = 5;
  la::Matrix copy(corpus.rows(), corpus.cols());
  std::copy(corpus.data(), corpus.data() + corpus.rows() * corpus.cols(),
            copy.data());
  const Snapshot snapshot = Snapshot::Build(bad, std::move(copy));
  EXPECT_FALSE(snapshot.Validate().ok());
  const std::string path = TempPath("incoherent");
  ASSERT_TRUE(snapshot.SaveTo(path).ok());
  EXPECT_FALSE(Snapshot::LoadFrom(path).ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Router: fleet validation and end-to-end oracle equality
// ---------------------------------------------------------------------------

struct Fleet {
  std::vector<std::unique_ptr<Engine>> engines;
  std::shared_ptr<embed::EmbeddingModel> model;
  std::vector<Snapshot> shards;
};

Fleet MakeFleet(size_t rows, uint32_t shard_count, size_t replicas,
                size_t k = 5, EngineOptions engine_options = {}) {
  Fleet fleet;
  fleet.model = std::make_shared<HashModel>();
  fleet.model->Initialize();
  auto built =
      BuildShardSnapshots(BaseManifest(), TestCorpus(rows), shard_count);
  EXPECT_TRUE(built.ok());
  fleet.shards = std::move(built).value();
  engine_options.k = k;
  for (size_t r = 0; r < replicas; ++r) {
    for (const Snapshot& shard : fleet.shards) {
      auto engine = Engine::Create(shard, fleet.model, engine_options);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      fleet.engines.push_back(std::move(engine).value());
    }
  }
  return fleet;
}

TEST(Router, CreateFailsClosedOnIncoherentFleets) {
  RouterOptions options;
  options.k = 5;
  {
    Fleet fleet = MakeFleet(12, 2, 1);
    EXPECT_FALSE(
        Router::Create(std::move(fleet.engines), nullptr, options).ok());
  }
  {
    std::vector<std::unique_ptr<Engine>> none;
    auto model = std::make_shared<HashModel>();
    EXPECT_FALSE(Router::Create(std::move(none), model, options).ok());
  }
  {
    // Dropping shard 1's only engine shrinks the observed total, so the
    // surviving shards contradict the round-robin plan — refused.
    Fleet fleet = MakeFleet(12, 3, 1);
    fleet.engines.erase(fleet.engines.begin() + 1);
    auto created = Router::Create(std::move(fleet.engines), fleet.model,
                                  options);
    ASSERT_FALSE(created.ok());
    EXPECT_NE(created.status().ToString().find("round-robin plan"),
              std::string::npos);
  }
  {
    // A 2-row corpus over 3 shards leaves shard 2 empty, so dropping its
    // engine keeps the plan arithmetic consistent — the empty group itself
    // is what must be refused.
    Fleet fleet = MakeFleet(2, 3, 1);
    ASSERT_EQ(fleet.engines.size(), 3u);
    fleet.engines.pop_back();
    auto created = Router::Create(std::move(fleet.engines), fleet.model,
                                  options);
    ASSERT_FALSE(created.ok());
    EXPECT_NE(created.status().ToString().find("no replicas"),
              std::string::npos);
  }
  {
    // Mixed shard_count across engines.
    Fleet three = MakeFleet(12, 3, 1);
    Fleet two = MakeFleet(12, 2, 1);
    three.engines.push_back(std::move(two.engines[0]));
    EXPECT_FALSE(Router::Create(std::move(three.engines), three.model,
                                options)
                     .ok());
  }
  {
    // Engine answering a smaller top-k than the router merges.
    EngineOptions small;
    Fleet fleet = MakeFleet(12, 2, 1, /*k=*/3, small);
    RouterOptions big = options;
    big.k = 8;
    auto created =
        Router::Create(std::move(fleet.engines), fleet.model, big);
    ASSERT_FALSE(created.ok());
    EXPECT_NE(created.status().ToString().find("per-shard k"),
              std::string::npos);
  }
  {
    // Router model whose fingerprint disagrees with the shard manifests.
    Fleet fleet = MakeFleet(12, 2, 1);
    auto other = std::make_shared<HashModel>("HX");
    EXPECT_FALSE(
        Router::Create(std::move(fleet.engines), other, options).ok());
  }
}

TEST(Router, MatchesUnshardedOracleEndToEnd) {
  for (uint32_t shard_count : {1u, 3u}) {
    const size_t rows = 42, k = 7;
    Fleet fleet = MakeFleet(rows, shard_count, 1, k);
    // Unsharded oracle over the same corpus and model.
    const Snapshot oracle =
        Snapshot::Build(BaseManifest(), TestCorpus(rows));
    RouterOptions options;
    options.k = k;
    auto router =
        Router::Create(std::move(fleet.engines), fleet.model, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();

    const auto query_sentences = Sentences(24, "query");
    const la::Matrix queries = fleet.model->VectorizeAll(query_sentences);
    const auto expect = oracle.QueryBatch(queries, k);
    std::vector<std::future<Result<RouterReply>>> futures;
    for (const auto& sentence : query_sentences) {
      auto submitted = router.value()->Submit(sentence);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    for (size_t q = 0; q < futures.size(); ++q) {
      auto reply = futures[q].get();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_FALSE(reply.value().partial);
      EXPECT_TRUE(SameResults(reply.value().neighbors, expect[q]))
          << "query " << q << " at shard_count " << shard_count;
    }
    router.value()->Stop();
    const auto metrics = router.value()->Metrics();
    EXPECT_EQ(metrics.submitted, query_sentences.size());
    EXPECT_EQ(metrics.completed, query_sentences.size());
    EXPECT_EQ(metrics.failed, 0u);
    EXPECT_EQ(metrics.partial, 0u);
    EXPECT_EQ(metrics.shards_degraded, 0u);
  }
}

TEST(Router, ShardHistogramsAndSpansPopulate) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  {
    const size_t k = 4;
    Fleet fleet = MakeFleet(20, 2, 1, k);
    RouterOptions options;
    options.k = k;
    auto router =
        Router::Create(std::move(fleet.engines), fleet.model, options);
    ASSERT_TRUE(router.ok());
    std::vector<std::future<Result<RouterReply>>> futures;
    for (const auto& sentence : Sentences(8, "probe")) {
      auto submitted = router.value()->Submit(sentence);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    for (auto& future : futures) EXPECT_TRUE(future.get().ok());
    router.value()->Stop();
    const auto metrics = router.value()->Metrics();
    ASSERT_EQ(metrics.shard_micros.size(), 2u);
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_EQ(metrics.shard_micros[s].size(), 1u);
      EXPECT_EQ(metrics.shard_micros[s][0].count, 8u)
          << "every request must visit shard " << s;
    }
  }
  obs::Tracer::Global().SetEnabled(false);
  const auto spans = obs::Tracer::Global().Drain();
  bool merge_attributed = false, fanout_seen = false, gather_seen = false;
  for (const obs::StageBreakdownRow& row : obs::StageBreakdown(spans)) {
    const std::string name = row.name;
    if (name == "router/merge") merge_attributed = row.spans > 0;
    if (name == "router/fanout") fanout_seen = row.spans > 0;
    if (name == "router/gather") gather_seen = row.spans > 0;
  }
  EXPECT_TRUE(merge_attributed) << "StageBreakdown must attribute merge time";
  EXPECT_TRUE(fanout_seen);
  EXPECT_TRUE(gather_seen);
}

// ---------------------------------------------------------------------------
// Engine::SubmitEmbedded
// ---------------------------------------------------------------------------

TEST(SubmitEmbedded, MatchesSubmitBitIdentically) {
  auto model = std::make_shared<HashModel>();
  model->Initialize();
  la::Matrix corpus = model->VectorizeAll(Sentences(30, "corpus"));
  auto engine = Engine::Create(
      Snapshot::Build(BaseManifest(), std::move(corpus)), model, {});
  ASSERT_TRUE(engine.ok());
  const auto query_sentences = Sentences(12, "query");
  const la::Matrix queries = model->VectorizeAll(query_sentences);
  // Interleave record and pre-embedded submissions so mixed batches form.
  std::vector<std::future<Result<serve::QueryReply>>> by_record;
  std::vector<std::future<Result<serve::QueryReply>>> by_vector;
  for (size_t q = 0; q < query_sentences.size(); ++q) {
    auto record = engine.value()->Submit(query_sentences[q]);
    ASSERT_TRUE(record.ok());
    by_record.push_back(std::move(record).value());
    auto vector = engine.value()->SubmitEmbedded(std::vector<float>(
        queries.Row(q), queries.Row(q) + queries.cols()));
    ASSERT_TRUE(vector.ok());
    by_vector.push_back(std::move(vector).value());
  }
  for (size_t q = 0; q < query_sentences.size(); ++q) {
    auto record = by_record[q].get();
    auto vector = by_vector[q].get();
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(vector.ok());
    EXPECT_TRUE(SameResults(record.value().neighbors,
                            vector.value().neighbors))
        << "query " << q;
  }
  engine.value()->Stop();
}

TEST(SubmitEmbedded, RejectsWrongDimensionality) {
  auto model = std::make_shared<HashModel>();
  model->Initialize();
  la::Matrix corpus = model->VectorizeAll(Sentences(8, "corpus"));
  auto engine = Engine::Create(
      Snapshot::Build(BaseManifest(), std::move(corpus)), model, {});
  ASSERT_TRUE(engine.ok());
  auto submitted = engine.value()->SubmitEmbedded(std::vector<float>(7, 0.f));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), Status::Code::kInvalidArgument);
  engine.value()->Stop();
}

// ---------------------------------------------------------------------------
// Replica outage and partial results
// ---------------------------------------------------------------------------

/// Trips `engine`'s breaker by injecting engine/query faults with degraded
/// mode off: each submission fails a batch until the breaker opens. The
/// failpoint is disarmed before returning.
void TripBreaker(Engine& engine) {
  ASSERT_TRUE(
      fail::ConfigureSpec("engine/query", "error:io").ok());
  for (int attempt = 0; attempt < 32 && engine.health() != Health::kTripped;
       ++attempt) {
    auto submitted = engine.Submit("trip probe " + std::to_string(attempt));
    if (submitted.ok()) submitted.value().wait();
  }
  fail::Disarm("engine/query");
  ASSERT_EQ(engine.health(), Health::kTripped);
}

TEST(Router, FullAvailabilityThroughSingleReplicaOutage) {
  SKIP_IF_FAILPOINTS_OFF();
  // R=2: replica 0 of shard 0 is created breaker-fragile (no degraded
  // fallback, 1-failure trip, effectively-infinite open window) and tripped
  // before the router starts; health-aware routing must keep availability
  // at 100% on the sibling.
  auto model = std::make_shared<HashModel>();
  model->Initialize();
  auto built = BuildShardSnapshots(BaseManifest(), TestCorpus(24), 2);
  ASSERT_TRUE(built.ok());
  EngineOptions fragile;
  fragile.k = 5;
  fragile.allow_degraded = false;
  fragile.breaker.window = 8;
  fragile.breaker.min_samples = 1;
  fragile.breaker.trip_ratio = 0.5;
  fragile.breaker.open_micros = int64_t{1} << 40;  // stays open for the test
  fragile.embed_retry.max_attempts = 1;
  EngineOptions healthy;
  healthy.k = 5;
  std::vector<std::unique_ptr<Engine>> engines;
  auto victim = Engine::Create(built.value()[0], model, fragile);
  ASSERT_TRUE(victim.ok());
  TripBreaker(*victim.value());
  engines.push_back(std::move(victim).value());
  engines.push_back(
      std::move(Engine::Create(built.value()[1], model, healthy)).value());
  engines.push_back(
      std::move(Engine::Create(built.value()[0], model, healthy)).value());
  engines.push_back(
      std::move(Engine::Create(built.value()[1], model, healthy)).value());

  RouterOptions options;
  options.k = 5;
  auto router = Router::Create(std::move(engines), model, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(router.value()->health(), Health::kServing);

  const Snapshot oracle = Snapshot::Build(BaseManifest(), TestCorpus(24));
  const auto query_sentences = Sentences(40, "outage");
  const la::Matrix queries = model->VectorizeAll(query_sentences);
  const auto expect = oracle.QueryBatch(queries, 5);
  std::vector<std::future<Result<RouterReply>>> futures;
  for (const auto& sentence : query_sentences) {
    auto submitted = router.value()->Submit(sentence);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    auto reply = futures[q].get();
    ASSERT_TRUE(reply.ok()) << "100% availability violated at query " << q
                            << ": " << reply.status().ToString();
    EXPECT_FALSE(reply.value().partial);
    EXPECT_TRUE(SameResults(reply.value().neighbors, expect[q]));
  }
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.completed, query_sentences.size());
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.partial, 0u);
  EXPECT_EQ(metrics.shards_degraded, 0u);
}

TEST(Router, WholeGroupDownDegradesToPartial) {
  const size_t k = 6;
  Fleet fleet = MakeFleet(20, 2, 2, k);
  RouterOptions options;
  options.k = k;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  // Take out BOTH replicas of shard 1 — a whole group outage.
  for (const auto& engine : router.value()->replicas(1)) engine->Stop();

  const size_t requests = 10;
  std::vector<std::future<Result<RouterReply>>> futures;
  for (const auto& sentence : Sentences(requests, "partial")) {
    auto submitted = router.value()->Submit(sentence);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    auto reply = future.get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().partial);
    for (const auto& neighbor : reply.value().neighbors) {
      // Survivors only: shard 0 of 2 owns the even global ids.
      EXPECT_EQ(neighbor.id % 2, 0u);
    }
  }
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.completed, requests);
  EXPECT_EQ(metrics.partial, requests);
  EXPECT_EQ(metrics.shards_degraded, requests);
  EXPECT_GT(metrics.sibling_retries, 0u);
}

TEST(Router, WholeGroupDownFailsWhenPartialDisallowed) {
  Fleet fleet = MakeFleet(20, 2, 1);
  RouterOptions options;
  options.k = 5;
  options.allow_partial = false;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  for (const auto& engine : router.value()->replicas(0)) engine->Stop();
  auto submitted = router.value()->Submit("strict query");
  ASSERT_TRUE(submitted.ok());
  auto reply = submitted.value().get();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), Status::Code::kUnavailable);
  router.value()->Stop();
  EXPECT_EQ(router.value()->Metrics().failed, 1u);
}

TEST(Router, EmbedFailpointIsLiveAndRetried) {
  SKIP_IF_FAILPOINTS_OFF();
  Fleet fleet = MakeFleet(16, 2, 1);
  RouterOptions options;
  options.k = 5;
  options.embed_retry.max_attempts = 3;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  // One transient fault: the retry inside the router absorbs it.
  ASSERT_TRUE(
      fail::ConfigureSpec("router/embed", "error:unavailable,max=1").ok());
  auto submitted = router.value()->Submit("retried query");
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(submitted.value().get().ok());
  EXPECT_GE(fail::Stats("router/embed").fires, 1u);
  // Persistent fault: the request fails loudly with the injected error.
  ASSERT_TRUE(fail::ConfigureSpec("router/embed", "error:io").ok());
  auto doomed = router.value()->Submit("doomed query");
  ASSERT_TRUE(doomed.ok());
  auto reply = doomed.value().get();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), Status::Code::kIoError);
  fail::Disarm("router/embed");
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_GE(metrics.retries, 1u);
  EXPECT_EQ(metrics.failed, 1u);
}

// ---------------------------------------------------------------------------
// Router admission: token buckets and the per-tenant ledger (DESIGN.md §16)
// ---------------------------------------------------------------------------

TEST(RouterAdmission, QuotaThrottlesOnlyItsTenantAndLedgerBalances) {
  Fleet fleet = MakeFleet(24, 2, 1);
  RouterOptions options;
  options.k = 5;
  // "metered" holds a burst of 2; "free" has no quota at all.
  options.quotas = {{"metered", 1.0, 2.0}};
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  // Every submit charges the bucket at one fixed instant, so nothing
  // refills between them: exactly the burst is admitted on any host.
  const SteadyTime admit_at = SteadyNow();
  constexpr size_t kPerTenant = 6;
  std::vector<std::future<Result<RouterReply>>> futures;
  uint64_t refused = 0;
  for (size_t i = 0; i < 2 * kPerTenant; ++i) {
    SubmitOptions submit;
    submit.tenant = i % 2 == 0 ? "metered" : "free";
    submit.admit_time = admit_at;
    auto submitted =
        router.value()->Submit("admission probe " + std::to_string(i), submit);
    if (!submitted.ok()) {
      EXPECT_EQ(submit.tenant, "metered");
      EXPECT_EQ(submitted.status().code(), Status::Code::kUnavailable);
      EXPECT_NE(submitted.status().message().find("over quota"),
                std::string::npos);
      ++refused;
      continue;
    }
    futures.push_back(std::move(submitted).value());
  }
  EXPECT_EQ(refused, kPerTenant - 2);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  // Scrape while the router is live: Stop unregisters its collector.
  const std::string scrape = obs::Registry::Global().ToPrometheusText();
  router.value()->Stop();

  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.throttled, refused);
  // Throttled submits were never enqueued.
  EXPECT_EQ(metrics.submitted, futures.size());
  EXPECT_EQ(metrics.completed + metrics.expired + metrics.failed,
            metrics.submitted);
  uint64_t tenant_throttled = 0;
  bool saw_free = false;
  for (const TenantCounters& tenant : metrics.tenants) {
    EXPECT_EQ(tenant.completed + tenant.expired + tenant.failed,
              tenant.submitted)
        << "tenant " << tenant.tenant;
    tenant_throttled += tenant.throttled;
    if (tenant.tenant == "free") {
      saw_free = true;
      EXPECT_EQ(tenant.throttled, 0u);
      EXPECT_EQ(tenant.submitted, kPerTenant);
    } else {
      EXPECT_EQ(tenant.tenant, "metered");
      EXPECT_EQ(tenant.submitted, 2u);
    }
  }
  EXPECT_TRUE(saw_free);
  EXPECT_EQ(metrics.throttled, tenant_throttled);
  const std::string series = "ember_router_tenant_throttled_total{router=\"" +
                             router.value()->instance() +
                             "\",tenant=\"metered\"} " +
                             std::to_string(refused) + "\n";
  EXPECT_NE(scrape.find(series), std::string::npos) << scrape;
}

// ---------------------------------------------------------------------------
// Mutations through the router (live fleets, DESIGN.md §14)
// ---------------------------------------------------------------------------

EngineOptions LiveEngineOptions() {
  EngineOptions options;
  options.live = true;
  return options;
}

TEST(RouterMutation, UpsertRoutesRoundRobinAndIsQueryable) {
  // 12 rows over 2 shards: each shard holds 6, so the first upsert (ticket
  // 0 -> group 0, local id 6) gets global id 6*2+0 = 12 and the second
  // (group 1) gets 13 — the inverse of the query-path remap.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 2, 2, k, LiveEngineOptions());
  RouterOptions options;
  options.k = k;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  auto first = router.value()->Upsert("streamed record A");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 12u);
  auto second = router.value()->Upsert("streamed record B");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 13u);

  // The admitted rows resolve through the normal query path, under their
  // global ids.
  auto submitted = router.value()->Submit("streamed record A");
  ASSERT_TRUE(submitted.ok());
  auto reply = submitted.value().get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply.value().neighbors.empty());
  EXPECT_EQ(reply.value().neighbors[0].id, 12u);

  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.upserts, 2u);
  EXPECT_EQ(metrics.mutation_failures, 0u);
  EXPECT_EQ(metrics.mutation_divergence, 0u);
}

TEST(RouterMutation, DeleteRemovesRowFromEveryReplica) {
  const size_t k = 6;
  Fleet fleet = MakeFleet(12, 2, 2, k, LiveEngineOptions());
  RouterOptions options;
  options.k = k;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());

  // Global id 4 lives in shard 0 (4 % 2) at local row 2 (4 / 2). Its exact
  // sentence ranks it first before the delete; afterwards it must be gone.
  const std::string sentence = Sentences(12, "corpus")[4];
  auto before = router.value()->Submit(sentence);
  ASSERT_TRUE(before.ok());
  auto reply = before.value().get();
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply.value().neighbors.empty());
  EXPECT_EQ(reply.value().neighbors[0].id, 4u);

  ASSERT_TRUE(router.value()->Delete(4).ok());
  auto after = router.value()->Submit(sentence);
  ASSERT_TRUE(after.ok());
  auto post = after.value().get();
  ASSERT_TRUE(post.ok());
  for (const auto& neighbor : post.value().neighbors) {
    EXPECT_NE(neighbor.id, 4u);
  }

  // A second delete of the same id fails on every replica and is reported,
  // not swallowed.
  const Status twice = router.value()->Delete(4);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.code(), Status::Code::kNotFound);

  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.deletes, 1u);
  EXPECT_EQ(metrics.mutation_failures, 1u);
  EXPECT_EQ(metrics.mutation_divergence, 0u);
}

TEST(RouterMutation, FailsClosedWhenOwningGroupFullyDown) {
  // Single-replica groups: stopping group 0's engine takes the owner of
  // ticket 0 (and of every even global id) fully down. Mutations bound for
  // it must be refused loudly — never buffered, never rerouted to a shard
  // that does not own the id — while group 1 keeps accepting.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 2, 1, k, LiveEngineOptions());
  RouterOptions options;
  options.k = k;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  for (const auto& engine : router.value()->replicas(0)) engine->Stop();

  auto refused = router.value()->Upsert("doomed record");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kUnavailable);
  const Status dead_delete = router.value()->Delete(4);  // 4 % 2 -> group 0
  ASSERT_FALSE(dead_delete.ok());
  EXPECT_EQ(dead_delete.code(), Status::Code::kUnavailable);

  // The healthy group still owns its ids: ticket 1 routes to group 1.
  auto healthy = router.value()->Upsert("second record");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value() % 2, 1u);
  EXPECT_TRUE(router.value()->Delete(5).ok());  // 5 % 2 -> group 1

  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.upserts, 1u);
  EXPECT_EQ(metrics.deletes, 1u);
  EXPECT_EQ(metrics.mutation_failures, 2u);
}

TEST(RouterMutation, ReplicaOutageSurfacesDivergence) {
  // R=2 with one replica of the owning group stopped: the mutation still
  // lands on the survivor (availability), but the replica sets have now
  // drifted — the router must say so.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 2, 2, k, LiveEngineOptions());
  RouterOptions options;
  options.k = k;
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model, options);
  ASSERT_TRUE(router.ok());
  router.value()->replicas(0)[0]->Stop();

  auto admitted = router.value()->Upsert("divergent record");
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(admitted.value(), 12u);

  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.upserts, 1u);
  EXPECT_EQ(metrics.mutation_failures, 0u);
  EXPECT_GE(metrics.mutation_divergence, 1u);
  // The half-measure is gone: the replica that missed the mutation was
  // quarantined, not left serving stale answers.
  EXPECT_EQ(router.value()->replica_state(0, 0), ReplicaState::kQuarantined);
  EXPECT_GE(metrics.quarantines, 1u);
}

// ---------------------------------------------------------------------------
// Replica recovery (DESIGN.md §15): quarantine, catch-up, anti-entropy
// ---------------------------------------------------------------------------

RouterOptions RecoveryRouterOptions(size_t k, int64_t tick_micros = 1000,
                                    size_t log_capacity = 4096) {
  RouterOptions options;
  options.k = k;
  options.recover_tick_micros = tick_micros;
  options.log_capacity = log_capacity;
  return options;
}

/// Polls until every replica is back in rotation (or the deadline passes).
bool WaitConverged(Router& router, int64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.Converged()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return router.Converged();
}

/// Pairwise digest agreement across every replica of every group.
::testing::AssertionResult GroupDigestsAgree(Router& router) {
  for (uint32_t s = 0; s < router.shard_count(); ++s) {
    const auto& engines = router.replicas(s);
    auto first = engines[0]->Digest();
    if (!first.ok()) {
      return ::testing::AssertionFailure()
             << "shard " << s << " replica 0 digest: "
             << first.status().ToString();
    }
    for (size_t r = 1; r < engines.size(); ++r) {
      auto other = engines[r]->Digest();
      if (!other.ok()) {
        return ::testing::AssertionFailure()
               << "shard " << s << " replica " << r << " digest: "
               << other.status().ToString();
      }
      if (!recover::SameContent(first.value(), other.value())) {
        return ::testing::AssertionFailure()
               << "shard " << s << " replica " << r << " diverged: rows "
               << other.value().rows << " vs " << first.value().rows;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RouterRecovery, QuarantinedReplicaGetsZeroQueryTraffic) {
  // Recovery disabled (tick 0): once quarantined, the replica stays out of
  // rotation so the traffic assertion is deterministic.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k, /*tick_micros=*/0));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Fabricate id-counter drift on replica 1 behind the router's back; the
  // next broadcast sees replica 1 assign a different local id and must
  // quarantine it on the spot.
  {
    auto direct = router.value()->replicas(0)[1]->Upsert("fabricated row");
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct.value().get().ok());
  }
  auto admitted = router.value()->Upsert("legit record");
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(router.value()->replica_state(0, 1), ReplicaState::kQuarantined);
  EXPECT_EQ(router.value()->replica_state(0, 0), ReplicaState::kActive);
  EXPECT_EQ(router.value()->health(), Health::kServing);

  const uint64_t quarantined_before =
      router.value()->replicas(0)[1]->Metrics().submitted;
  const uint64_t active_before =
      router.value()->replicas(0)[0]->Metrics().submitted;
  const size_t queries = 24;
  std::vector<std::future<Result<RouterReply>>> futures;
  for (const auto& sentence : Sentences(queries, "quarantine probe")) {
    auto submitted = router.value()->Submit(sentence);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    auto reply = future.get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply.value().partial);
  }
  // Every query landed on the healthy replica; the quarantined one saw
  // NOTHING — including the every-16th probe picks that tripped-but-active
  // replicas still receive.
  EXPECT_EQ(router.value()->replicas(0)[1]->Metrics().submitted,
            quarantined_before);
  EXPECT_EQ(router.value()->replicas(0)[0]->Metrics().submitted,
            active_before + queries);
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_EQ(metrics.completed, queries);
  EXPECT_GE(metrics.quarantines, 1u);
  EXPECT_GE(metrics.mutation_divergence, 1u);
}

TEST(RouterRecovery, KilledReplicaCatchesUpByReplay) {
  // Kill a replica mid-stream, mutate past it (including a donor-side
  // compaction), rejoin it, and require bit-identical convergence.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 2, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  std::vector<uint64_t> ids;
  for (const auto& sentence : Sentences(4, "pre-kill")) {
    auto admitted = router.value()->Upsert(sentence);
    ASSERT_TRUE(admitted.ok());
    ids.push_back(admitted.value());
  }
  ASSERT_TRUE(router.value()->KillReplica(0, 0).ok());
  EXPECT_EQ(router.value()->replica_state(0, 0), ReplicaState::kKilled);

  // Mutations the killed replica misses: upserts to both groups plus a
  // delete owned by group 0.
  const auto missed = Sentences(10, "missed");
  for (const auto& sentence : missed) {
    auto admitted = router.value()->Upsert(sentence);
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    ids.push_back(admitted.value());
  }
  ASSERT_TRUE(router.value()->Delete(ids[0]).ok());
  // At least one compaction lands while the replica is away: the survivor
  // rewrites its base, and replay must still converge the rejoiner.
  const std::string compact_path = TempPath("catchup_compact");
  ASSERT_TRUE(router.value()->replicas(0)[1]->Compact(compact_path).ok());
  std::filesystem::remove(compact_path);

  ASSERT_TRUE(router.value()->RejoinReplica(0, 0).ok());
  ASSERT_TRUE(WaitConverged(*router.value()));
  EXPECT_EQ(router.value()->replica_state(0, 0), ReplicaState::kActive);
  EXPECT_EQ(router.value()->last_applied_seq(0, 0),
            router.value()->log_last_seq(0));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));

  // Bit-identical replica answers: the same embedded probes through each
  // group-0 replica directly.
  const la::Matrix probes =
      fleet.model->VectorizeAll(Sentences(6, "missed"));
  for (size_t q = 0; q < probes.rows(); ++q) {
    std::vector<std::vector<index::Neighbor>> per_replica;
    for (const auto& engine : router.value()->replicas(0)) {
      auto submitted = engine->SubmitEmbedded(std::vector<float>(
          probes.Row(q), probes.Row(q) + probes.cols()));
      ASSERT_TRUE(submitted.ok());
      auto reply = submitted.value().get();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      per_replica.push_back(reply.value().neighbors);
    }
    EXPECT_TRUE(SameResults(per_replica[0], per_replica[1]))
        << "replicas disagree on probe " << q << " after catch-up";
  }
  // The rejoined replica serves router traffic again, and the record set
  // reflects every mutation it missed.
  auto lookup = router.value()->Submit(missed[3]);
  ASSERT_TRUE(lookup.ok());
  auto reply = lookup.value().get();
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply.value().neighbors.empty());
  EXPECT_EQ(reply.value().neighbors[0].id, ids[4 + 3]);
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_GE(metrics.catchups, 1u);
  EXPECT_GE(metrics.replayed_mutations, 5u);
  EXPECT_EQ(metrics.mutation_failures, 0u);
}

TEST(RouterRecovery, TruncatedLogForcesSnapshotResync) {
  // log_capacity 2 with 12 missed mutations: the ring has long dropped the
  // replica's position, so catch-up must take the snapshot-resync path.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(
      std::move(fleet.engines), fleet.model,
      RecoveryRouterOptions(k, /*tick_micros=*/1000, /*log_capacity=*/2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  ASSERT_TRUE(router.value()->KillReplica(0, 1).ok());
  std::vector<uint64_t> ids;
  for (const auto& sentence : Sentences(12, "resync")) {
    auto admitted = router.value()->Upsert(sentence);
    ASSERT_TRUE(admitted.ok());
    ids.push_back(admitted.value());
  }
  ASSERT_TRUE(router.value()->Delete(ids[1]).ok());
  ASSERT_TRUE(router.value()->RejoinReplica(0, 1).ok());
  ASSERT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  EXPECT_EQ(router.value()->last_applied_seq(0, 1),
            router.value()->log_last_seq(0));
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_GE(metrics.resyncs, 1u);
  EXPECT_EQ(metrics.mutation_failures, 0u);
}

TEST(RouterRecovery, FabricatedDivergenceAutoDetectedAndHealed) {
  // Silent corruption: a row injected into one replica behind the router's
  // back, with NO router mutation to trip over it. Only the anti-entropy
  // digest probe can catch it — and must, quarantining and resyncing the
  // liar without the fleet serving its fabricated row afterwards.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const std::string probe = "fabricated corruption probe";
  auto before = router.value()->Submit(probe);
  ASSERT_TRUE(before.ok());
  auto clean_reply = before.value().get();
  ASSERT_TRUE(clean_reply.ok());

  {
    auto direct = router.value()->replicas(0)[1]->Upsert(probe);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct.value().get().ok());
  }
  // The probe tick quarantines the liar and the resync path heals it.
  ASSERT_TRUE(WaitConverged(*router.value()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.value()->Metrics().digest_mismatches == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  auto healed_digest = router.value()->replicas(0)[1]->Digest();
  ASSERT_TRUE(healed_digest.ok());
  EXPECT_EQ(healed_digest.value().rows, 12u)
      << "the fabricated row must be gone after resync";

  // Post-heal answers are bit-identical to the pre-corruption ones — the
  // fabricated row never leaks into a merged answer again.
  for (int i = 0; i < 8; ++i) {
    auto after = router.value()->Submit(probe);
    ASSERT_TRUE(after.ok());
    auto reply = after.value().get();
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(SameResults(reply.value().neighbors,
                            clean_reply.value().neighbors))
        << "healed fleet disagrees with the clean oracle on probe " << i;
  }
  router.value()->Stop();
  const auto metrics = router.value()->Metrics();
  EXPECT_GE(metrics.digest_mismatches, 1u);
  EXPECT_GE(metrics.resyncs, 1u);
}

TEST(RouterRecovery, SymmetricDivergenceWithTwoReplicasGetsNoVerdict) {
  // Two replicas, same row count, different content (the bit-flip shape):
  // the digest vote ties 1-1 and expected_rows cannot break it. The probe
  // must return NO verdict — a deterministic tie-break could crown the
  // corrupted replica, quarantine the healthy one, and resync it FROM the
  // corrupted donor, propagating the corruption group-wide.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  // Slow probe tick (100ms) so the two-step fabrication below completes
  // between ticks: its intermediate state (11 vs 12 rows) WOULD earn a
  // legitimate expected_rows verdict.
  auto router =
      Router::Create(std::move(fleet.engines), fleet.model,
                     RecoveryRouterOptions(k, /*tick_micros=*/100'000));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Equal-rows corruption on replica 1 behind the router's back: drop a
  // row, fabricate a different one. Rows stay at 12 == expected_rows.
  {
    auto dropped = router.value()->replicas(0)[1]->Delete(0);
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE(dropped.value().get().ok());
    auto added =
        router.value()->replicas(0)[1]->Upsert("fabricated replacement");
    ASSERT_TRUE(added.ok());
    ASSERT_TRUE(added.value().get().ok());
  }
  // Several probe ticks pass; with no majority and no row-count signal the
  // probe must stay silent — no quarantine on a coin flip.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(router.value()->Metrics().digest_mismatches, 0u);
  EXPECT_EQ(router.value()->replica_state(0, 0), ReplicaState::kActive);
  EXPECT_EQ(router.value()->replica_state(0, 1), ReplicaState::kActive);
  router.value()->Stop();
  EXPECT_EQ(router.value()->Metrics().quarantines, 0u);
}

TEST(RouterRecovery, MajorityOutvotesEqualRowCorruption) {
  // The same equal-rows corruption with THREE replicas: the two healthy
  // siblings form a strict majority, so the corrupted replica is caught
  // and healed even though every digest reports the same row count.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 3, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  {
    auto dropped = router.value()->replicas(0)[2]->Delete(0);
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE(dropped.value().get().ok());
    auto added =
        router.value()->replicas(0)[2]->Upsert("fabricated replacement");
    ASSERT_TRUE(added.ok());
    ASSERT_TRUE(added.value().get().ok());
  }
  // A probe may legitimately fire on the fabrication's intermediate state
  // too (the corrupted replica heals, then the second step re-corrupts
  // it), so poll for the JOINT settled condition: every replica active AND
  // every digest in agreement.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool settled = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.value()->Converged() && GroupDigestsAgree(*router.value())) {
      settled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(settled) << "fleet never converged on an agreed corpus";
  EXPECT_GE(router.value()->Metrics().digest_mismatches, 1u);
  auto healed = router.value()->replicas(0)[2]->Digest();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value().rows, 12u);
  router.value()->Stop();
  EXPECT_GE(router.value()->Metrics().resyncs, 1u);
}

TEST(RouterRecovery, KillDuringCatchUpSticks) {
  // An admin kill racing the recovery worker must win: a replica killed
  // while kCatchingUp (or about to activate) stays out of rotation — the
  // heal's activation is a CAS that backs off, never a blind store that
  // would resurrect a killed replica.
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k, /*tick_micros=*/500));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  ASSERT_TRUE(router.value()->KillReplica(0, 1).ok());
  for (const auto& sentence : Sentences(6, "kill-race")) {
    ASSERT_TRUE(router.value()->Upsert(sentence).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(router.value()->RejoinReplica(0, 1).ok());
    // Vary how deep into the heal the kill lands; some iterations hit the
    // kCatchingUp window, all must leave the replica killed.
    std::this_thread::sleep_for(std::chrono::microseconds(i * 300));
    ASSERT_TRUE(router.value()->KillReplica(0, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(router.value()->replica_state(0, 1), ReplicaState::kKilled)
        << "heal overwrote an admin kill on iteration " << i;
  }
  ASSERT_TRUE(router.value()->RejoinReplica(0, 1).ok());
  ASSERT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  EXPECT_EQ(router.value()->last_applied_seq(0, 1),
            router.value()->log_last_seq(0));
  router.value()->Stop();
}

TEST(RouterRecovery, LogAppendFailpointRefusesMutationFailClosed) {
  SKIP_IF_FAILPOINTS_OFF();
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE(fail::ConfigureSpec("recover/log_append", "error:io").ok());
  auto refused = router.value()->Upsert("unloggable record");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kIoError);
  fail::Disarm("recover/log_append");
  // Fail-closed means NOWHERE: no log entry, no replica admitted the row.
  EXPECT_EQ(router.value()->log_last_seq(0), 0u);
  for (const auto& engine : router.value()->replicas(0)) {
    auto digest = engine->Digest();
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest.value().rows, 12u);
  }
  auto admitted = router.value()->Upsert("loggable record");
  ASSERT_TRUE(admitted.ok());
  router.value()->Stop();
  EXPECT_EQ(router.value()->Metrics().mutation_failures, 1u);
}

TEST(RouterRecovery, ReplayFailpointKeepsReplicaQuarantined) {
  SKIP_IF_FAILPOINTS_OFF();
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE(router.value()->KillReplica(0, 1).ok());
  for (const auto& sentence : Sentences(4, "replay-blocked")) {
    ASSERT_TRUE(router.value()->Upsert(sentence).ok());
  }
  ASSERT_TRUE(fail::ConfigureSpec("recover/replay", "error:io").ok());
  ASSERT_TRUE(router.value()->RejoinReplica(0, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Fail-closed: with replay injected to fail, not one record was
  // re-applied and the replica never rejoined rotation.
  EXPECT_NE(router.value()->replica_state(0, 1), ReplicaState::kActive);
  EXPECT_EQ(router.value()->Metrics().replayed_mutations, 0u);
  EXPECT_EQ(router.value()->Metrics().catchups, 0u);
  fail::Disarm("recover/replay");
  EXPECT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  router.value()->Stop();
  EXPECT_GE(router.value()->Metrics().catchups, 1u);
}

TEST(RouterRecovery, ResyncFailpointKeepsReplicaQuarantined) {
  SKIP_IF_FAILPOINTS_OFF();
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(
      std::move(fleet.engines), fleet.model,
      RecoveryRouterOptions(k, /*tick_micros=*/1000, /*log_capacity=*/2));
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE(router.value()->KillReplica(0, 1).ok());
  for (const auto& sentence : Sentences(10, "resync-blocked")) {
    ASSERT_TRUE(router.value()->Upsert(sentence).ok());
  }
  ASSERT_TRUE(fail::ConfigureSpec("recover/resync", "error:io").ok());
  ASSERT_TRUE(router.value()->RejoinReplica(0, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_NE(router.value()->replica_state(0, 1), ReplicaState::kActive);
  EXPECT_EQ(router.value()->Metrics().resyncs, 0u);
  fail::Disarm("recover/resync");
  EXPECT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  router.value()->Stop();
  EXPECT_GE(router.value()->Metrics().resyncs, 1u);
}

TEST(RouterRecovery, DigestFailpointSkipsProbeFailClosed) {
  SKIP_IF_FAILPOINTS_OFF();
  // An armed digest failpoint must not produce verdicts: no replica gets
  // condemned on missing information (and none gets acquitted either).
  const size_t k = 5;
  Fleet fleet = MakeFleet(12, 1, 2, k, LiveEngineOptions());
  auto router = Router::Create(std::move(fleet.engines), fleet.model,
                               RecoveryRouterOptions(k));
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE(fail::ConfigureSpec("recover/digest", "error:io").ok());
  {
    auto direct = router.value()->replicas(0)[1]->Upsert("silent skew");
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct.value().get().ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(router.value()->Metrics().digest_mismatches, 0u);
  EXPECT_EQ(router.value()->replica_state(0, 1), ReplicaState::kActive);
  fail::Disarm("recover/digest");
  // With the probe restored, detection and healing proceed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.value()->Metrics().digest_mismatches == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(router.value()->Metrics().digest_mismatches, 1u);
  EXPECT_TRUE(WaitConverged(*router.value()));
  EXPECT_TRUE(GroupDigestsAgree(*router.value()));
  router.value()->Stop();
}

// ---------------------------------------------------------------------------
// The recovery proptest: random interleavings of
// {upsert, delete, outage, rejoin, compact, query} against a sequential
// oracle — converged replicas must answer bit-identically.
// ---------------------------------------------------------------------------

TEST(RouterRecovery, RandomInterleavingsConvergeToSequentialOracle) {
  auto model = std::make_shared<HashModel>();
  model->Initialize();
  proptest::ForAll(
      "recovery interleavings == sequential oracle",
      {.cases = 6, .min_size = 10, .max_size = 28},
      [&](Rng& rng, size_t n) {
        const uint32_t shards = 2;
        const size_t replicas = 2, k = 4, base_rows = 6;
        EngineOptions live = LiveEngineOptions();
        live.k = k;
        Fleet fleet;
        fleet.model = model;
        auto built = BuildShardSnapshots(BaseManifest(k),
                                         TestCorpus(base_rows), shards);
        if (!built.ok()) return false;
        for (size_t r = 0; r < replicas; ++r) {
          for (const Snapshot& shard : built.value()) {
            auto engine = Engine::Create(shard, model, live);
            if (!engine.ok()) return false;
            fleet.engines.push_back(std::move(engine).value());
          }
        }
        // Occasionally a tiny log, so some rejoins exercise resync.
        const size_t log_capacity = rng.Below(3) == 0 ? 3 : 64;
        auto created = Router::Create(
            std::move(fleet.engines), model,
            RecoveryRouterOptions(k, /*tick_micros=*/500, log_capacity));
        if (!created.ok()) return false;
        Router& router = *created.value();

        // Sequential oracle state: the live (global id -> sentence) map,
        // the upsert ticket, and each group's next local id.
        std::map<uint64_t, std::string> mirror;
        const auto base_sentences = Sentences(base_rows, "corpus");
        for (size_t i = 0; i < base_rows; ++i) {
          mirror[i] = base_sentences[i];
        }
        uint64_t ticket = 0;
        std::vector<uint64_t> next_local;
        for (uint32_t s = 0; s < shards; ++s) {
          next_local.push_back((core::ShardPlan{shards, base_rows})
                                   .RowsInShard(s));
        }
        std::vector<bool> killed(shards * replicas, false);
        auto killed_at = [&](uint32_t s, size_t r) -> std::vector<bool>::reference {
          return killed[s * replicas + r];
        };

        // Oracle query: exact top-k over the mirror via a freshly built
        // snapshot, remapped through the sorted global-id list.
        auto oracle_answer = [&](const std::string& sentence) {
          std::vector<uint64_t> sorted_ids;
          std::vector<std::string> rows;
          for (const auto& [id, text] : mirror) {
            sorted_ids.push_back(id);
            rows.push_back(text);
          }
          la::Matrix corpus = model->VectorizeAll(rows);
          const Snapshot oracle =
              Snapshot::Build(BaseManifest(k), std::move(corpus));
          const la::Matrix query = model->VectorizeAll({sentence});
          auto lists = oracle.QueryBatch(query, k);
          for (auto& neighbor : lists[0]) {
            neighbor.id = sorted_ids[neighbor.id];
          }
          // Re-sort by (distance, global id): the remap can reorder ties.
          std::sort(lists[0].begin(), lists[0].end(), index::CloserThan);
          return lists[0];
        };

        bool pass = true;
        for (size_t op = 0; op < n && pass; ++op) {
          switch (rng.Below(6)) {
            case 0:
            case 1: {  // upsert (weighted: streams are write-heavy)
              const std::string sentence =
                  "streamed " + std::to_string(rng.Next());
              const uint32_t owner =
                  static_cast<uint32_t>(ticket % shards);
              ++ticket;
              auto admitted = router.Upsert(sentence);
              if (!admitted.ok()) { pass = false; break; }
              const uint64_t expect_gid =
                  owner + next_local[owner]++ * shards;
              if (admitted.value() != expect_gid) { pass = false; break; }
              mirror[expect_gid] = sentence;
              break;
            }
            case 2: {  // delete a random live row
              if (mirror.empty()) break;
              auto victim = mirror.begin();
              std::advance(victim, rng.Below(mirror.size()));
              if (!router.Delete(victim->first).ok()) { pass = false; break; }
              mirror.erase(victim);
              break;
            }
            case 3: {  // outage: kill one fully-converged replica
              const uint32_t s = static_cast<uint32_t>(rng.Below(shards));
              const size_t r = rng.Below(replicas);
              if (killed_at(s, r) || killed_at(s, 1 - r)) break;
              // Only kill when the sibling is active, so the group always
              // keeps one serving replica (availability invariant).
              if (router.replica_state(s, 1 - r) != ReplicaState::kActive ||
                  router.replica_state(s, r) != ReplicaState::kActive) {
                break;
              }
              if (!router.KillReplica(s, r).ok()) { pass = false; break; }
              killed_at(s, r) = true;
              break;
            }
            case 4: {  // rejoin a killed replica (recovery heals it)
              for (uint32_t s = 0; s < shards; ++s) {
                for (size_t r = 0; r < replicas; ++r) {
                  if (killed_at(s, r)) {
                    if (!router.RejoinReplica(s, r).ok()) pass = false;
                    killed_at(s, r) = false;
                    s = shards;
                    break;
                  }
                }
              }
              break;
            }
            case 5: {  // compact an active replica, then query vs oracle
              const uint32_t s = static_cast<uint32_t>(rng.Below(shards));
              for (size_t r = 0; r < replicas; ++r) {
                if (router.replica_state(s, r) == ReplicaState::kActive) {
                  const std::string path = TempPath(
                      "proptest_compact_" + std::to_string(rng.Next()));
                  if (!router.replicas(s)[r]->Compact(path).ok()) {
                    pass = false;
                  }
                  std::filesystem::remove(path);
                  break;
                }
              }
              if (!pass || mirror.empty()) break;
              auto victim = mirror.begin();
              std::advance(victim, rng.Below(mirror.size()));
              auto submitted = router.Submit(victim->second);
              if (!submitted.ok()) { pass = false; break; }
              auto reply = submitted.value().get();
              if (!reply.ok() || reply.value().partial) { pass = false; break; }
              if (!SameResults(reply.value().neighbors,
                               oracle_answer(victim->second))) {
                pass = false;
              }
              break;
            }
          }
        }
        // Drain: rejoin everything, wait for convergence, and require the
        // fleet to agree with itself and with the sequential oracle.
        for (uint32_t s = 0; s < shards && pass; ++s) {
          for (size_t r = 0; r < replicas; ++r) {
            if (killed_at(s, r)) {
              if (!router.RejoinReplica(s, r).ok()) pass = false;
              killed_at(s, r) = false;
            }
          }
        }
        if (pass) pass = WaitConverged(router);
        if (pass) pass = static_cast<bool>(GroupDigestsAgree(router));
        if (pass) {
          for (int probe = 0; probe < 4 && pass; ++probe) {
            if (mirror.empty()) break;
            auto target = mirror.begin();
            std::advance(target, rng.Below(mirror.size()));
            auto submitted = router.Submit(target->second);
            if (!submitted.ok()) { pass = false; break; }
            auto reply = submitted.value().get();
            if (!reply.ok() || reply.value().partial) { pass = false; break; }
            pass = SameResults(reply.value().neighbors,
                               oracle_answer(target->second));
          }
        }
        router.Stop();
        return pass;
      });
}

}  // namespace
}  // namespace ember
