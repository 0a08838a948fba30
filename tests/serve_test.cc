#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/histogram.h"
#include "common/timer.h"
#include "core/vector_cache.h"
#include "la/vector_ops.h"
#include "serve/snapshot.h"

namespace ember::serve {
namespace {

// ---------------------------------------------------------------------------
// Test embedding model: deterministic, thread-safe, and ~instant, so the
// engine tests exercise queueing/batching rather than transformer math.
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
  explicit HashModel(std::string code = "HT",
                     int64_t encode_sleep_micros = 0)
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

Snapshot MakeSnapshot(IndexKind kind, size_t rows,
                      const std::string& model_code = "HT",
                      uint32_t default_k = 5) {
  HashModel model(model_code);
  model.Initialize();
  la::Matrix corpus = model.VectorizeAll(Sentences(rows, "corpus"));
  SnapshotManifest manifest;
  manifest.model_code = model_code;
  manifest.default_k = default_k;
  manifest.kind = kind;
  manifest.dataset = "unit-test";
  index::HnswOptions hnsw_options;
  hnsw_options.seed = 7;
  index::LshOptions lsh_options;
  lsh_options.seed = 7;
  return Snapshot::Build(std::move(manifest), std::move(corpus),
                         hnsw_options, lsh_options);
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ember_serve_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

void ExpectSameResults(
    const std::vector<std::vector<index::Neighbor>>& a,
    const std::vector<std::vector<index::Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q;
      EXPECT_EQ(a[q][i].distance, b[q][i].distance) << "query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot persistence
// ---------------------------------------------------------------------------

class SnapshotKindTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(SnapshotKindTest, FileRoundTripBitIdenticalIncludingEdgeSizes) {
  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(30, "query"));
  for (const size_t rows : {size_t{0}, size_t{1}, size_t{150}}) {
    const Snapshot built = MakeSnapshot(GetParam(), rows);
    const std::string path = TempPath("roundtrip");
    ASSERT_TRUE(built.SaveTo(path).ok());
    auto loaded = Snapshot::LoadFrom(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().manifest().model_code, "HT");
    EXPECT_EQ(loaded.value().manifest().rows, rows);
    EXPECT_EQ(loaded.value().manifest().kind, GetParam());
    ExpectSameResults(built.QueryBatch(queries, 5),
                      loaded.value().QueryBatch(queries, 5));
    std::filesystem::remove(path);
  }
}

TEST_P(SnapshotKindTest, EngineFromDiskMatchesFreshlyBuiltPipeline) {
  // The acceptance criterion: an engine loaded from disk returns
  // bit-identical k-NN results to the freshly built pipeline.
  const Snapshot built = MakeSnapshot(GetParam(), 120);
  const std::string path = TempPath("engine_reload");
  ASSERT_TRUE(built.SaveTo(path).ok());
  auto loaded = Snapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::filesystem::remove(path);

  const std::vector<std::string> queries = Sentences(40, "query");
  HashModel reference_model;
  reference_model.Initialize();
  const la::Matrix query_vectors = reference_model.VectorizeAll(queries);
  const auto expected = built.QueryBatch(query_vectors, 5);

  EngineOptions options;
  options.max_batch = 7;  // force multi-request batches
  options.max_wait_micros = 500;
  auto engine = Engine::Create(std::move(loaded).value(),
                               std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::future<Result<QueryReply>>> futures;
  for (const std::string& query : queries) {
    auto submitted = engine.value()->Submit(query);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    Result<QueryReply> reply = futures[q].get();
    ASSERT_TRUE(reply.ok());
    const auto& neighbors = reply.value().neighbors;
    ASSERT_EQ(neighbors.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_EQ(neighbors[i].id, expected[q][i].id) << "query " << q;
      EXPECT_EQ(neighbors[i].distance, expected[q][i].distance)
          << "query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, SnapshotKindTest,
                         ::testing::Values(IndexKind::kExact,
                                           IndexKind::kHnsw,
                                           IndexKind::kLsh),
                         [](const auto& info) {
                           return std::string(IndexKindName(info.param));
                         });

// Shared fail-closed sweep: every prefix truncation and a stride of
// single-bit flips across the image must be rejected by LoadFrom, and the
// pristine image must still load (so the rejections are real detections,
// not an unrelated I/O problem).
void SweepTruncationsAndBitFlips(const Snapshot& built,
                                 const std::string& tag) {
  const std::string path = TempPath("corruption_" + tag);
  ASSERT_TRUE(built.SaveTo(path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    image = buffer.str();
  }
  ASSERT_GT(image.size(), 100u);

  const std::string victim = TempPath("corruption_victim_" + tag);
  const auto write_victim = [&](const std::string& bytes) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncations at every granularity: header, mid-payload, mid-trailer.
  for (const size_t len :
       {size_t{0}, size_t{5}, size_t{23}, image.size() / 2,
        image.size() - 17, image.size() - 1}) {
    write_victim(image.substr(0, len));
    EXPECT_FALSE(Snapshot::LoadFrom(victim).ok())
        << tag << " truncated to " << len;
  }

  // Single-bit flips across the file (magic, header, manifest, section
  // table, matrix payload, graph) must all be caught by a checksum.
  for (size_t pos = 0; pos < image.size(); pos += image.size() / 37 + 1) {
    std::string flipped = image;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    write_victim(flipped);
    EXPECT_FALSE(Snapshot::LoadFrom(victim).ok())
        << tag << " bit flip at " << pos;
  }

  write_victim(image);
  EXPECT_TRUE(Snapshot::LoadFrom(victim).ok());
  std::filesystem::remove(path);
  std::filesystem::remove(victim);
}

TEST(SnapshotCorruptionTest, TruncationAndBitFlipsFailClosed) {
  SweepTruncationsAndBitFlips(MakeSnapshot(IndexKind::kHnsw, 80), "v2_hnsw");
}

TEST(SnapshotCorruptionTest, QuantizedV2SweepFailsClosed) {
  Snapshot built = MakeSnapshot(IndexKind::kExact, 80);
  ASSERT_TRUE(built.Quantize().ok());
  SweepTruncationsAndBitFlips(built, "v2_int8");
}

TEST(SnapshotCorruptionTest, LegacyEmbs0001FileIsRefused) {
  // The retired heap format is refused by its magic alone: neither the bare
  // magic nor a legacy magic in front of an otherwise valid image loads.
  const std::string path = TempPath("legacy_magic");
  ASSERT_TRUE(MakeSnapshot(IndexKind::kExact, 20).SaveTo(path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    image = buffer.str();
  }
  for (const std::string& bytes :
       {std::string("EMBS0001"), "EMBS0001" + image.substr(8)}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto loaded = Snapshot::LoadFrom(path);
    ASSERT_FALSE(loaded.ok()) << bytes.size() << " bytes";
    EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
        << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(SnapshotContainerTest, LoadMatchesBuildAndResavesSameBytes) {
  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(25, "query"));
  for (const IndexKind kind :
       {IndexKind::kExact, IndexKind::kHnsw, IndexKind::kLsh}) {
    const Snapshot built = MakeSnapshot(kind, 90);
    const std::string path = TempPath("fmt_saved");
    ASSERT_TRUE(built.SaveTo(path).ok());
    auto loaded = Snapshot::LoadFrom(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The freshly built snapshot is the oracle: the mmap'ed container must
    // answer every query bit-identically.
    ExpectSameResults(built.QueryBatch(queries, 5),
                      loaded.value().QueryBatch(queries, 5));

    // Provenance metrics: a loaded snapshot maps the file and times the
    // load; a built one maps nothing.
    EXPECT_GT(loaded.value().bytes_mapped(), 0u) << IndexKindName(kind);
    EXPECT_GT(loaded.value().load_micros(), 0u) << IndexKindName(kind);
    EXPECT_EQ(built.bytes_mapped(), 0u);

    // Re-saving the mmap-backed snapshot (what snapshot-convert does)
    // reproduces the original file byte for byte.
    const std::string back_path = TempPath("fmt_resaved");
    ASSERT_TRUE(loaded.value().SaveTo(back_path).ok());
    std::ifstream a(path, std::ios::binary), b(back_path, std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << IndexKindName(kind);

    std::filesystem::remove(path);
    std::filesystem::remove(back_path);
  }
}

TEST(SnapshotContainerTest, TrustedLoadSkipsPayloadChecksumButKeepsBounds) {
  const Snapshot built = MakeSnapshot(IndexKind::kExact, 60);
  const std::string path = TempPath("fmt_trusted");
  ASSERT_TRUE(built.SaveTo(path).ok());
  LoadOptions trusted;
  trusted.verify_checksum = false;
  auto loaded = Snapshot::LoadFrom(path, trusted);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded.value().bytes_mapped(), 0u);
  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(10, "query"));
  ExpectSameResults(built.QueryBatch(queries, 5),
                    loaded.value().QueryBatch(queries, 5));
  // Even in trusted mode the header is checksummed: corrupting a section
  // offset must never redirect a read.
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    image = buffer.str();
  }
  image[40] = static_cast<char>(image[40] ^ 0x01);  // table_offset bytes
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  EXPECT_FALSE(Snapshot::LoadFrom(path, trusted).ok());
  std::filesystem::remove(path);
}

TEST(SnapshotQuantizedTest, Int8SnapshotRoundTripsAndMatchesInMemory) {
  Snapshot built = MakeSnapshot(IndexKind::kExact, 120);
  ASSERT_TRUE(built.Quantize().ok());
  EXPECT_EQ(built.manifest().storage, StorageKind::kInt8);
  ASSERT_TRUE(built.Validate().ok());

  const std::string path = TempPath("quantized");
  ASSERT_TRUE(built.SaveTo(path).ok());
  auto loaded = Snapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest().storage, StorageKind::kInt8);
  ASSERT_TRUE(loaded.value().Validate().ok());

  // The mmap'ed int8 tier must reproduce the in-memory quantized scan
  // (same codes, same integer kernels, same float rescore) bit for bit.
  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(30, "query"));
  ExpectSameResults(built.QueryBatch(queries, 5),
                    loaded.value().QueryBatch(queries, 5));
  std::filesystem::remove(path);
}

TEST(SnapshotQuantizedTest, EmptyInt8SnapshotSavesLoadsAndValidates) {
  // A 0-row corpus still gets an (empty) int8 tier: an int8 live engine
  // whose rows were all deleted must compact, and an empty shard of an
  // int8 set must save.
  Snapshot built = MakeSnapshot(IndexKind::kExact, 0);
  ASSERT_TRUE(built.Quantize().ok());
  EXPECT_EQ(built.manifest().storage, StorageKind::kInt8);
  ASSERT_TRUE(built.Validate().ok());

  const std::string path = TempPath("quantized_empty");
  const Status saved = built.SaveTo(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = Snapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest().storage, StorageKind::kInt8);
  EXPECT_EQ(loaded.value().manifest().rows, 0u);
  const Status valid = loaded.value().Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  HashModel model;
  model.Initialize();
  const la::Matrix queries = model.VectorizeAll(Sentences(3, "query"));
  for (const auto& neighbors : loaded.value().QueryBatch(queries, 5)) {
    EXPECT_TRUE(neighbors.empty());
  }
  std::filesystem::remove(path);
}

TEST(SnapshotQuantizedTest, QuantizeRejectsNonExactKinds) {
  Snapshot hnsw = MakeSnapshot(IndexKind::kHnsw, 20);
  EXPECT_EQ(hnsw.Quantize().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(hnsw.manifest().storage, StorageKind::kFloat32);
}

// ---------------------------------------------------------------------------
// VectorCache hardening (atomic publish + checksummed format)
// ---------------------------------------------------------------------------

TEST(VectorCacheTest, CorruptedEntryMissesAndIsRecomputed) {
  const std::string dir = TempPath("cache_dir");
  std::filesystem::create_directories(dir);
  core::VectorCache cache(dir);
  HashModel model;
  const std::vector<std::string> sentences = Sentences(12, "cached");

  double seconds = 0;
  const la::Matrix fresh =
      cache.GetOrCompute(model, "k1", sentences, &seconds);
  EXPECT_GE(seconds, 0.0);  // computed
  double hit_seconds = 0;
  const la::Matrix hit =
      cache.GetOrCompute(model, "k1", sentences, &hit_seconds);
  EXPECT_EQ(hit_seconds, -1.0);  // served from disk
  EXPECT_TRUE(hit == fresh);

  // No temp files linger after the atomic publish.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".vec") << entry.path();
  }
  EXPECT_EQ(files, 1u);

  // Corrupt the entry every way a crashed writer or bad disk could:
  // truncation and a flipped byte. Both must miss (recompute), not crash
  // or return garbage.
  std::string entry_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entry_path = entry.path().string();
  }
  std::string image;
  {
    std::ifstream in(entry_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    image = buffer.str();
  }
  for (int mode = 0; mode < 2; ++mode) {
    std::string bad = mode == 0 ? image.substr(0, image.size() / 2) : image;
    if (mode == 1) bad[bad.size() / 3] ^= 0x40;
    {
      std::ofstream out(entry_path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    double recompute_seconds = 0;
    const la::Matrix recomputed =
        cache.GetOrCompute(model, "k1", sentences, &recompute_seconds);
    EXPECT_GE(recompute_seconds, 0.0) << "mode " << mode << " served corrupt";
    EXPECT_TRUE(recomputed == fresh) << "mode " << mode;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Engine behaviour
// ---------------------------------------------------------------------------

TEST(EngineTest, RefusesMismatchedModel) {
  auto engine =
      Engine::Create(MakeSnapshot(IndexKind::kExact, 20, "XX"),
                     std::make_shared<HashModel>("HT"), EngineOptions{});
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kInvalidArgument);
}

TEST(EngineTest, SubmitAfterStopIsRejectedNotDropped) {
  auto engine = Engine::Create(MakeSnapshot(IndexKind::kExact, 20),
                               std::make_shared<HashModel>(), EngineOptions{});
  ASSERT_TRUE(engine.ok());
  engine.value()->Stop();
  auto submitted = engine.value()->Submit("late record");
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(engine.value()->Metrics().rejected, 1u);
}

TEST(EngineTest, ExpiredDeadlinesAreShedBeforeEmbedding) {
  // A slow model makes the first batch occupy the worker while stale
  // requests pile up behind it; they must come back DeadlineExceeded.
  EngineOptions options;
  options.max_batch = 1;
  options.max_wait_micros = 0;
  auto engine =
      Engine::Create(MakeSnapshot(IndexKind::kExact, 20),
                     std::make_shared<HashModel>("HT", 20000), options);
  ASSERT_TRUE(engine.ok());
  auto first = engine.value()->Submit("in flight");
  ASSERT_TRUE(first.ok());
  std::vector<std::future<Result<QueryReply>>> stale;
  for (int i = 0; i < 5; ++i) {
    auto submitted = engine.value()->Submit(
        "stale " + std::to_string(i),
        SteadyNow() - std::chrono::milliseconds(1));
    ASSERT_TRUE(submitted.ok());
    stale.push_back(std::move(submitted).value());
  }
  EXPECT_TRUE(first.value().get().ok());
  for (auto& future : stale) {
    const Result<QueryReply> reply = future.get();
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), Status::Code::kDeadlineExceeded);
  }
  const EngineMetrics metrics = engine.value()->Metrics();
  EXPECT_EQ(metrics.expired, 5u);
  EXPECT_EQ(metrics.completed, 1u);
}

TEST(EngineTest, FullQueueRejectsImmediately) {
  EngineOptions options;
  options.max_batch = 1;
  options.max_wait_micros = 0;
  options.max_queue = 4;
  auto engine =
      Engine::Create(MakeSnapshot(IndexKind::kExact, 20),
                     std::make_shared<HashModel>("HT", 5000), options);
  ASSERT_TRUE(engine.ok());
  size_t accepted = 0, rejected = 0;
  std::vector<std::future<Result<QueryReply>>> futures;
  for (int i = 0; i < 64; ++i) {
    auto submitted = engine.value()->Submit("r" + std::to_string(i));
    if (submitted.ok()) {
      ++accepted;
      futures.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), Status::Code::kUnavailable);
      ++rejected;
    }
  }
  // With a 5 ms encode the worker cannot drain 64 instant submissions
  // through a 4-deep queue.
  EXPECT_GT(rejected, 0u);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  const EngineMetrics metrics = engine.value()->Metrics();
  EXPECT_EQ(metrics.submitted, accepted);
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.completed, accepted);
}

TEST(EngineTest, PerRequestResultsIndependentOfBatchComposition) {
  // The §9 determinism contract: the same record must return identical
  // neighbors whether it rides in a big mixed batch or alone.
  const Snapshot snapshot = MakeSnapshot(IndexKind::kExact, 100);
  const std::vector<std::string> queries = Sentences(20, "query");
  HashModel reference_model;
  reference_model.Initialize();
  const auto expected =
      snapshot.QueryBatch(reference_model.VectorizeAll(queries), 5);

  for (const size_t max_batch : {size_t{1}, size_t{20}}) {
    EngineOptions options;
    options.max_batch = max_batch;
    options.max_wait_micros = max_batch == 1 ? 0 : 2000;
    auto engine = Engine::Create(snapshot, std::make_shared<HashModel>(),
                                 options);
    ASSERT_TRUE(engine.ok());
    std::vector<std::future<Result<QueryReply>>> futures;
    for (const std::string& query : queries) {
      auto submitted = engine.value()->Submit(query);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    for (size_t q = 0; q < futures.size(); ++q) {
      Result<QueryReply> reply = futures[q].get();
      ASSERT_TRUE(reply.ok());
      ASSERT_EQ(reply.value().neighbors.size(), expected[q].size());
      for (size_t i = 0; i < expected[q].size(); ++i) {
        EXPECT_EQ(reply.value().neighbors[i].id, expected[q][i].id);
        EXPECT_EQ(reply.value().neighbors[i].distance,
                  expected[q][i].distance);
      }
    }
  }
}

TEST(EngineStressTest, MultiProducerNoLostNoDuplicatedAccounting) {
  // 4 producers hammer a deliberately tiny queue with 2 batcher workers.
  // Invariants under fire: every Submit either returns a future that
  // completes (no lost requests) or an Unavailable status (reported, not
  // dropped), and the engine's counters reconcile exactly with the
  // producers' own books.
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 250;
  EngineOptions options;
  options.max_batch = 8;
  options.max_wait_micros = 200;
  options.max_queue = 32;
  options.workers = 2;
  auto engine = Engine::Create(MakeSnapshot(IndexKind::kExact, 64),
                               std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());

  std::atomic<uint64_t> accepted{0}, rejected{0}, completed_ok{0},
      expired{0}, wrong{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        const bool with_deadline = i % 5 == 0;
        auto submitted = engine.value()->Submit(
            "p" + std::to_string(p) + "i" + std::to_string(i),
            with_deadline ? SteadyNow() + std::chrono::milliseconds(200)
                          : kNoDeadline);
        if (!submitted.ok()) {
          rejected.fetch_add(1);
          continue;
        }
        accepted.fetch_add(1);
        const Result<QueryReply> reply = submitted.value().get();
        if (reply.ok()) {
          // 5 valid, distinct, sorted neighbors from the 64-row corpus.
          const auto& neighbors = reply.value().neighbors;
          bool valid = neighbors.size() == 5;
          for (size_t n = 0; valid && n < neighbors.size(); ++n) {
            valid = neighbors[n].id < 64 &&
                    (n == 0 ||
                     neighbors[n - 1].distance <= neighbors[n].distance);
          }
          if (valid) {
            completed_ok.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        } else if (reply.status().code() ==
                   Status::Code::kDeadlineExceeded) {
          expired.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  engine.value()->Stop();

  // Every reconciliation below is order-independent: with the EDF queue a
  // deadline-tagged request may drain before earlier deadline-free ones, so
  // nothing here may assume FIFO completion order — only that each accepted
  // request settles exactly once in exactly one outcome bucket.
  const EngineMetrics metrics = engine.value()->Metrics();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(metrics.submitted, accepted.load());
  EXPECT_EQ(metrics.rejected, rejected.load());
  EXPECT_EQ(metrics.completed, completed_ok.load());
  EXPECT_EQ(metrics.expired, expired.load());
  EXPECT_EQ(metrics.failed, 0u);
  // The counter identity with zero in-flight after Stop():
  // submitted == completed + expired + failed.
  EXPECT_EQ(metrics.completed + metrics.expired + metrics.failed,
            metrics.submitted);
  // The histograms saw every accepted request exactly once.
  EXPECT_EQ(metrics.queue_micros.count, metrics.submitted);
  EXPECT_EQ(metrics.total_micros.count, metrics.completed);
}

TEST(EngineStressTest, AdmissionCounterIdentityUnderConcurrentTenants) {
  // Multi-tenant producers against a token-bucket-limited engine: the
  // engine-wide identity must extend to
  //   attempts == submitted + rejected + throttled
  //   submitted == completed + expired + failed        (after Stop)
  // and each per-tenant ledger row must satisfy the same identities and
  // sum back to the engine-wide counters.
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 200;
  EngineOptions options;
  options.max_batch = 8;
  options.max_wait_micros = 200;
  options.max_queue = 64;
  options.workers = 2;
  // "hot" is deliberately under-provisioned so throttles actually happen;
  // "cold" has no quota and must never be throttled.
  options.quotas = {{"hot", 50.0, 4.0}};
  auto engine = Engine::Create(MakeSnapshot(IndexKind::kExact, 64),
                               std::make_shared<HashModel>(), options);
  ASSERT_TRUE(engine.ok());

  std::atomic<uint64_t> accepted{0}, refused{0}, throttled{0}, settled{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        SubmitOptions submit;
        submit.tenant = (p + i) % 2 == 0 ? "hot" : "cold";
        auto submitted = engine.value()->Submit(
            "p" + std::to_string(p) + "i" + std::to_string(i), submit);
        if (!submitted.ok()) {
          if (submitted.status().message().find("over quota") !=
              std::string::npos) {
            throttled.fetch_add(1);
          } else {
            refused.fetch_add(1);
          }
          continue;
        }
        accepted.fetch_add(1);
        (void)submitted.value().get();
        settled.fetch_add(1);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  engine.value()->Stop();

  const EngineMetrics metrics = engine.value()->Metrics();
  EXPECT_EQ(accepted.load() + refused.load() + throttled.load(),
            kProducers * kPerProducer);
  EXPECT_EQ(metrics.submitted, accepted.load());
  EXPECT_EQ(metrics.rejected, refused.load());
  EXPECT_EQ(metrics.throttled, throttled.load());
  EXPECT_GT(metrics.throttled, 0u);
  EXPECT_EQ(metrics.completed + metrics.expired + metrics.failed,
            metrics.submitted);
  EXPECT_EQ(settled.load(), metrics.submitted);

  // Per-tenant ledger: same identities, and the rows sum to the whole.
  uint64_t tenant_submitted = 0, tenant_throttled = 0, tenant_rejected = 0;
  bool saw_cold = false;
  for (const TenantCounters& tenant : metrics.tenants) {
    EXPECT_EQ(tenant.completed + tenant.expired + tenant.failed,
              tenant.submitted)
        << "tenant " << tenant.tenant;
    if (tenant.tenant == "cold") {
      saw_cold = true;
      EXPECT_EQ(tenant.throttled, 0u);  // quota-free tenants never throttle
    }
    tenant_submitted += tenant.submitted;
    tenant_throttled += tenant.throttled;
    tenant_rejected += tenant.rejected;
  }
  EXPECT_TRUE(saw_cold);
  EXPECT_EQ(tenant_submitted, metrics.submitted);
  EXPECT_EQ(tenant_throttled, metrics.throttled);
  EXPECT_EQ(tenant_rejected, metrics.rejected);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.Mean(), 500.5, 1e-9);
  // Quarter-octave buckets: ~19% relative resolution.
  EXPECT_NEAR(snap.Percentile(0.5), 500.0, 120.0);
  EXPECT_NEAR(snap.Percentile(0.99), 990.0, 200.0);
  EXPECT_LE(snap.Percentile(1.0), snap.max + 1e-9);
}

TEST(HistogramTest, SubtractLeavesWhatWasRecordedInBetween) {
  LatencyHistogram histogram;
  for (const double v : {9000.0, 14000.0}) histogram.Record(v);
  const HistogramSnapshot before = histogram.Snapshot();
  for (const double v : {1900.0, 2010.0, 2080.0}) histogram.Record(v);
  HistogramSnapshot delta = histogram.Snapshot();
  delta.Subtract(before);
  LatencyHistogram expected;
  for (const double v : {1900.0, 2010.0, 2080.0}) expected.Record(v);
  const HistogramSnapshot want = expected.Snapshot();
  EXPECT_EQ(delta.counts, want.counts);
  EXPECT_EQ(delta.count, 3u);
  EXPECT_DOUBLE_EQ(delta.sum, want.sum);
  // The earlier 14000 cannot bound the delta: max drops to the top
  // non-empty bucket's upper bound, at or above every sample left.
  EXPECT_GE(delta.max, 2080.0);
  EXPECT_LE(delta.max, LatencyHistogram::BucketUpperBound(
                           LatencyHistogram::BucketOf(2080.0)));
  EXPECT_LE(delta.Percentile(0.99), delta.max);
}

TEST(HistogramTest, EdgeValuesClampIntoRange) {
  LatencyHistogram histogram;
  histogram.Record(0);
  histogram.Record(-5);
  histogram.Record(1e12);  // beyond the top bucket
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[HistogramSnapshot::kBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(snap.max, 1e12);
  // Percentile never exceeds the observed max even for the open-ended
  // top bucket.
  EXPECT_LE(snap.Percentile(0.999), 1e12);
}

// Regression: edge cases must return defined values (PR 5). An empty
// histogram has no percentile but must not crash or invent one; a single
// sample IS every percentile; an all-zero histogram must never report a
// positive latency interpolated out of bucket 0.
TEST(HistogramTest, EmptyHistogramPercentileIsZero) {
  const HistogramSnapshot snap = LatencyHistogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, SingleSampleIsEveryPercentile) {
  LatencyHistogram histogram;
  histogram.Record(123.0);
  const HistogramSnapshot snap = histogram.Snapshot();
  for (const double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Percentile(p), 123.0) << "p=" << p;
  }
}

TEST(HistogramTest, AllZeroSamplesReportZeroPercentiles) {
  LatencyHistogram histogram;
  for (int i = 0; i < 10; ++i) histogram.Record(0.0);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  // Interpolation inside bucket 0 (upper bound ~1.19) must not leak a
  // positive value past the observed max of 0.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 0.0);
}

TEST(HistogramTest, AllMassInLastBucketInterpolatesTowardMax) {
  LatencyHistogram histogram;
  // 2^24 is the last bucket's lower edge; everything above clamps into it.
  const double giant = 1e9;
  for (int i = 0; i < 100; ++i) histogram.Record(giant);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.counts[HistogramSnapshot::kBuckets - 1], 100u);
  const double p99 = snap.Percentile(0.99);
  // Defined, ordered, and never beyond the observed max; the open-ended
  // bucket interpolates toward max instead of collapsing to 2^24.
  EXPECT_GE(p99, std::exp2(24.0) * 0.99);
  EXPECT_LE(p99, giant);
  EXPECT_GT(p99, snap.Percentile(0.10));
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), giant);
}

TEST(HistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(1000);
  HistogramSnapshot merged = a.Snapshot();
  merged.Add(b.Snapshot());
  EXPECT_EQ(merged.count, 2u);
  EXPECT_DOUBLE_EQ(merged.sum, 1010.0);
  EXPECT_DOUBLE_EQ(merged.max, 1000.0);
}

}  // namespace
}  // namespace ember::serve
