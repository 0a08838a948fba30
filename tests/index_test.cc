#include "index/exact_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "proptest.h"
#include "index/hnsw_index.h"
#include "index/lsh_index.h"
#include "index/overlap_blocker.h"
#include "la/vector_ops.h"

namespace ember::index {
namespace {

la::Matrix RandomUnitRows(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  m.FillGaussian(rng, 1.f);
  for (size_t r = 0; r < rows; ++r) la::NormalizeInPlace(m.Row(r), cols);
  return m;
}

la::Matrix RandomUnitRowsFrom(Rng& rng, size_t rows, size_t cols) {
  la::Matrix m(rows, cols);
  m.FillGaussian(rng, 1.f);
  for (size_t r = 0; r < rows; ++r) la::NormalizeInPlace(m.Row(r), cols);
  return m;
}

/// Reference scan: the definitional top-k (1 - dot against every corpus
/// row, stable-sorted by (distance, id)), written independently of the
/// index implementations so agreement is meaningful.
std::vector<Neighbor> NaiveTopK(const la::Matrix& data, const float* query,
                                size_t k) {
  std::vector<Neighbor> all;
  all.reserve(data.rows());
  for (size_t r = 0; r < data.rows(); ++r) {
    all.push_back({static_cast<uint32_t>(r),
                   1.f - la::Dot(query, data.Row(r), data.cols())});
  }
  std::sort(all.begin(), all.end(), CloserThan);
  if (all.size() > k) all.resize(k);
  return all;
}

// Property: the nearest neighbor of a vector that IS in the corpus is that
// vector itself, at distance ~0 — for every corpus row, across randomly
// sized/shaped corpora. (Generalizes the old fixed 50x32 example.)
TEST(ExactIndexPropertyTest, Top1OfCorpusVectorIsItself) {
  proptest::Config config;
  config.cases = 60;
  config.max_size = 80;
  proptest::ForAll("exact top-1 of a corpus vector is itself", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 8 + rng.Below(25);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    ExactIndex idx;
    idx.Build(data);
    for (size_t r = 0; r < data.rows(); ++r) {
      const auto neighbors = idx.Query(data.Row(r), 1);
      if (neighbors.size() != 1) return false;
      if (neighbors[0].id != r) return false;
      if (std::abs(neighbors[0].distance) > 1e-5f) return false;
    }
    return true;
  });
}

// Metamorphic property: QueryBatch at a smaller k is exactly the prefix of
// QueryBatch at a larger k — growing k may only extend the result list,
// never reorder or change it. Subsumes the old ascending-distance and
// k-respected examples (a prefix-consistent family with the naive scan at
// the top k is automatically both).
TEST(ExactIndexPropertyTest, QueryBatchPrefixMonotoneInK) {
  proptest::Config config;
  config.cases = 40;
  config.min_size = 1;
  config.max_size = 120;
  proptest::ForAll("QueryBatch(k) monotone in k", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 4 + rng.Below(29);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries =
        RandomUnitRowsFrom(rng, 1 + rng.Below(20), cols);
    ExactIndex idx;
    idx.Build(data);
    const size_t k_hi = 1 + rng.Below(2 * n);
    const size_t k_lo = 1 + rng.Below(k_hi);
    const auto hi = idx.QueryBatch(queries, k_hi);
    const auto lo = idx.QueryBatch(queries, k_lo);
    for (size_t q = 0; q < queries.rows(); ++q) {
      if (hi[q].size() != std::min(k_hi, n)) return false;
      if (lo[q].size() != std::min(k_lo, n)) return false;
      for (size_t i = 0; i < lo[q].size(); ++i) {
        if (lo[q][i].id != hi[q][i].id) return false;
        if (lo[q][i].distance != hi[q][i].distance) return false;
      }
      for (size_t i = 1; i < hi[q].size(); ++i) {
        if (CloserThan(hi[q][i], hi[q][i - 1])) return false;
      }
    }
    return true;
  });
}

// 200 random corpora: the naive definitional scan, the blocked single-query
// path, and the GemmBt batch path must agree bitwise (ids AND float
// distances) — the batch tiling is an optimization, never an approximation.
// (Replaces the old single-example QueryBatchMatchesSingleQueries.)
TEST(ExactIndexPropertyTest, BruteForceAndExactIndexAgreeOn200Corpora) {
  proptest::Config config;
  config.cases = 200;
  config.min_size = 1;
  config.max_size = 90;
  proptest::ForAll("naive == Query == QueryBatch on random corpora", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 3 + rng.Below(30);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries =
        RandomUnitRowsFrom(rng, 1 + rng.Below(8), cols);
    const size_t k = 1 + rng.Below(n + 3);
    ExactIndex idx;
    idx.Build(data);
    const auto batch = idx.QueryBatch(queries, k);
    if (batch.size() != queries.rows()) return false;
    for (size_t q = 0; q < queries.rows(); ++q) {
      const auto naive = NaiveTopK(data, queries.Row(q), k);
      const auto single = idx.Query(queries.Row(q), k);
      if (batch[q].size() != naive.size()) return false;
      if (single.size() != naive.size()) return false;
      for (size_t i = 0; i < naive.size(); ++i) {
        if (batch[q][i].id != naive[i].id) return false;
        if (batch[q][i].distance != naive[i].distance) return false;
        if (single[i].id != naive[i].id) return false;
        if (single[i].distance != naive[i].distance) return false;
      }
    }
    return true;
  });
}

// Batches of hundreds or thousands of queries scan in wider query tiles than
// small ones; every answer must still equal the single-query path bit for
// bit (ids AND distances). The corpus spans two full data blocks and a
// partial one, and 37 columns leave a lane tail.
TEST(ExactIndexTest, LargeBatchesMatchSingleQueries) {
  const size_t cols = 37;
  const la::Matrix data = RandomUnitRows(600, cols, 11);
  ExactIndex idx;
  idx.Build(data);
  for (const size_t batch : {size_t{700}, size_t{3001}}) {
    const la::Matrix queries = RandomUnitRows(batch, cols, 12 + batch);
    const auto results = idx.QueryBatch(queries, 5);
    ASSERT_EQ(results.size(), batch);
    for (size_t q = 0; q < batch; ++q) {
      const auto single = idx.Query(queries.Row(q), 5);
      ASSERT_EQ(results[q].size(), single.size()) << "batch " << batch;
      for (size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(results[q][i].id, single[i].id) << "batch " << batch;
        ASSERT_EQ(results[q][i].distance, single[i].distance)
            << "batch " << batch;
      }
    }
  }
}

// The int8 scan tier is an approximation with a float rescore on top, so
// the contract is statistical: across many random corpora, rescored
// quantized top-10 must recover at least 99% of the definitional top-10
// ids. (The rescore width of 4k makes a true neighbor falling outside the
// candidate set the only loss mode, and int8 error on unit vectors is far
// smaller than typical neighbor gaps.)
TEST(ExactIndexPropertyTest, QuantizedTopKRecallAtLeast99Percent) {
  size_t hits = 0, total = 0;
  proptest::Config config;
  config.cases = 60;
  config.min_size = 12;
  config.max_size = 120;
  proptest::ForAll("quantized rescored top-10 recall >= 0.99", config,
                   [&](Rng& rng, size_t n) {
    const size_t cols = 16 + rng.Below(64);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries =
        RandomUnitRowsFrom(rng, 1 + rng.Below(6), cols);
    const size_t k = std::min<size_t>(10, n);
    ExactIndex idx;
    idx.Build(data);
    idx.Quantize();
    if (!idx.quantized()) return false;
    const auto approx = idx.QueryBatch(queries, k);
    const auto exact = BruteForceTopK(data, queries, k);
    for (size_t q = 0; q < queries.rows(); ++q) {
      if (approx[q].size() != exact[q].size()) return false;
      std::set<uint32_t> truth;
      for (const Neighbor& nb : exact[q]) truth.insert(nb.id);
      for (const Neighbor& nb : approx[q]) {
        // Rescored distances are exact float recomputations.
        const float expect =
            1.f - la::Dot(queries.Row(q), data.Row(nb.id), cols);
        if (nb.distance != expect) return false;
        hits += truth.count(nb.id);
      }
      total += exact[q].size();
    }
    return true;
  });
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.99)
      << hits << "/" << total;
}

// The quantized scan must give the same answer through the single-query
// and batched paths: same integer kernel results, same rescore, bit for
// bit — parallel tiling is never allowed to change results.
TEST(ExactIndexPropertyTest, QuantizedSingleQueryMatchesBatch) {
  proptest::Config config;
  config.cases = 40;
  config.min_size = 1;
  config.max_size = 90;
  proptest::ForAll("quantized Query == QueryBatch", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 4 + rng.Below(40);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries =
        RandomUnitRowsFrom(rng, 1 + rng.Below(20), cols);
    const size_t k = 1 + rng.Below(n + 2);
    ExactIndex idx;
    idx.Build(data);
    idx.Quantize();
    const auto batch = idx.QueryBatch(queries, k);
    for (size_t q = 0; q < queries.rows(); ++q) {
      const auto single = idx.Query(queries.Row(q), k);
      if (single.size() != batch[q].size()) return false;
      for (size_t i = 0; i < single.size(); ++i) {
        if (single[i].id != batch[q][i].id) return false;
        if (single[i].distance != batch[q][i].distance) return false;
      }
    }
    return true;
  });
}

// Rebuilding an index drops the quantized tier: the codes describe the old
// corpus and must never be consulted for the new one.
TEST(ExactIndexTest, BuildResetsQuantizedTier) {
  ExactIndex idx;
  idx.Build(RandomUnitRows(20, 16, 7));
  idx.Quantize();
  EXPECT_TRUE(idx.quantized());
  idx.Build(RandomUnitRows(10, 16, 9));
  EXPECT_FALSE(idx.quantized());
}

// Every index kind must report distances that are literally
// 1 - dot(query, corpus[id]) for the ids it returns: results are claims
// about the corpus, re-checkable from the returned id alone.
TEST(IndexPropertyTest, ReportedDistancesMatchRecomputation) {
  proptest::Config config;
  config.cases = 30;
  config.min_size = 2;
  config.max_size = 64;
  proptest::ForAll("distance == 1 - dot(query, data[id])", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 8 + rng.Below(17);
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries =
        RandomUnitRowsFrom(rng, 1 + rng.Below(4), cols);
    const size_t k = 1 + rng.Below(n);
    ExactIndex exact;
    exact.Build(data);
    HnswOptions hnsw_options;
    hnsw_options.seed = rng.Next();
    HnswIndex hnsw(hnsw_options);
    hnsw.Build(data);
    LshOptions lsh_options;
    lsh_options.seed = rng.Next();
    LshIndex lsh(lsh_options);
    lsh.Build(data);
    const auto check = [&](const std::vector<std::vector<Neighbor>>& all) {
      for (size_t q = 0; q < all.size(); ++q) {
        for (const Neighbor& nb : all[q]) {
          if (nb.id >= data.rows()) return false;
          const float expect =
              1.f - la::Dot(queries.Row(q), data.Row(nb.id), cols);
          if (nb.distance != expect) return false;
        }
      }
      return true;
    };
    return check(exact.QueryBatch(queries, k)) &&
           check(hnsw.QueryBatch(queries, k)) &&
           check(lsh.QueryBatch(queries, k));
  });
}

TEST(ExactIndexTest, TiesBrokenByAscendingId) {
  // Three identical vectors: all distances equal, ids must come in order.
  la::Matrix data(3, 4);
  for (size_t r = 0; r < 3; ++r) data.At(r, 0) = 1.f;
  ExactIndex idx;
  idx.Build(data);
  const auto neighbors = idx.Query(data.Row(0), 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].id, 0u);
  EXPECT_EQ(neighbors[1].id, 1u);
  EXPECT_EQ(neighbors[2].id, 2u);
}

// HNSW metamorphic property: with k capped at ef_search, raising k only
// extends the beam's returned prefix, so recall against a FIXED exact truth
// set is nondecreasing in k.
TEST(HnswIndexPropertyTest, RecallMonotoneInK) {
  proptest::Config config;
  config.cases = 15;
  config.min_size = 20;
  config.max_size = 200;
  proptest::ForAll("hnsw recall monotone in k", config,
                   [](Rng& rng, size_t n) {
    const size_t cols = 16;
    const la::Matrix data = RandomUnitRowsFrom(rng, n, cols);
    const la::Matrix queries = RandomUnitRowsFrom(rng, 5, cols);
    const size_t k_max = std::min<size_t>(16, n);
    ExactIndex exact;
    exact.Build(data);
    const auto truth = exact.QueryBatch(queries, k_max);
    HnswOptions options;
    options.seed = rng.Next();
    HnswIndex hnsw(options);
    hnsw.Build(data);
    double last_recall = -1.0;
    for (size_t k = 1; k <= k_max; k *= 2) {
      const auto approx = hnsw.QueryBatch(queries, k);
      size_t hits = 0;
      for (size_t q = 0; q < queries.rows(); ++q) {
        std::set<uint32_t> truth_ids;
        for (const Neighbor& nb : truth[q]) truth_ids.insert(nb.id);
        for (const Neighbor& nb : approx[q]) hits += truth_ids.count(nb.id);
      }
      const double recall =
          static_cast<double>(hits) /
          static_cast<double>(truth.size() * truth[0].size());
      if (recall < last_recall) return false;
      last_recall = recall;
    }
    return true;
  });
}

TEST(HnswIndexTest, HighRecallAgainstExact) {
  const la::Matrix data = RandomUnitRows(1000, 32, 6);
  ExactIndex exact;
  exact.Build(data);
  HnswOptions options;
  options.seed = 7;
  HnswIndex hnsw(options);
  hnsw.Build(data);

  const la::Matrix queries = RandomUnitRows(50, 32, 8);
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto truth = exact.Query(queries.Row(q), 10);
    const auto approx = hnsw.Query(queries.Row(q), 10);
    ASSERT_EQ(approx.size(), 10u);
    std::set<uint32_t> truth_ids;
    for (const Neighbor& n : truth) truth_ids.insert(n.id);
    for (const Neighbor& n : approx) hits += truth_ids.count(n.id);
    total += truth.size();
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.85);
}

TEST(HnswIndexTest, DeterministicAcrossRebuilds) {
  const la::Matrix data = RandomUnitRows(300, 16, 9);
  const la::Matrix queries = RandomUnitRows(10, 16, 10);
  HnswOptions options;
  options.seed = 11;
  HnswIndex a(options), b(options);
  a.Build(data);
  b.Build(data);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto na = a.Query(queries.Row(q), 5);
    const auto nb = b.Query(queries.Row(q), 5);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i].id, nb[i].id);
  }
}

TEST(HnswIndexTest, MoveBuildEquivalentToCopyBuild) {
  // Build(Matrix&&) must produce the exact same graph and results as the
  // copying build — it only changes how the vectors arrive.
  const la::Matrix data = RandomUnitRows(300, 16, 12);
  la::Matrix movable = data;
  HnswOptions options;
  options.seed = 13;
  HnswIndex copied(options), moved(options);
  copied.Build(data);
  moved.Build(std::move(movable));
  ASSERT_EQ(moved.data().rows(), data.rows());
  const la::Matrix queries = RandomUnitRows(20, 16, 14);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto a = copied.Query(queries.Row(q), 5);
    const auto b = moved.Query(queries.Row(q), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(HnswIndexTest, RepeatedQueriesReuseVisitedSetCleanly) {
  // The epoch-stamped visited set is reused across queries (and across
  // indexes of different sizes on the same thread). Interleaving queries
  // against a large and a small index must not leak visited state.
  const la::Matrix big_data = RandomUnitRows(500, 16, 15);
  const la::Matrix small_data = RandomUnitRows(60, 16, 16);
  HnswOptions options;
  options.seed = 17;
  HnswIndex big(options), small(options);
  big.Build(big_data);
  small.Build(small_data);
  const la::Matrix queries = RandomUnitRows(10, 16, 18);
  std::vector<std::vector<Neighbor>> first;
  for (size_t q = 0; q < queries.rows(); ++q) {
    first.push_back(big.Query(queries.Row(q), 5));
    small.Query(queries.Row(q), 5);
  }
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto again = big.Query(queries.Row(q), 5);
    ASSERT_EQ(again.size(), first[q].size());
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].id, first[q][i].id) << "query " << q;
    }
  }
}

TEST(VisitedSetTest, EpochClearAndWraparound) {
  VisitedSet visited;
  visited.Clear(8);
  EXPECT_FALSE(visited.TestAndSet(3));
  EXPECT_TRUE(visited.TestAndSet(3));
  EXPECT_FALSE(visited.TestAndSet(7));
  visited.Clear(8);  // O(1): bumps the epoch, no refill
  EXPECT_FALSE(visited.TestAndSet(3));
  // Growing resets everything, shrinking logically hides the tail.
  visited.Clear(16);
  EXPECT_FALSE(visited.TestAndSet(15));
  visited.Clear(4);
  EXPECT_FALSE(visited.TestAndSet(3));
}

TEST(LshIndexTest, ReturnsKExactRankedCandidates) {
  const la::Matrix data = RandomUnitRows(500, 32, 12);
  LshIndex idx;
  idx.Build(data);
  const la::Matrix queries = RandomUnitRows(10, 32, 13);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto neighbors = idx.Query(queries.Row(q), 10);
    ASSERT_EQ(neighbors.size(), 10u);
    for (size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance);
    }
  }
}

TEST(HnswIndexTest, AttachFlatRejectsEachBrokenGraphInvariant) {
  // AttachFlat is the only guard on mmap'ed graph bytes when a snapshot is
  // loaded without its checksum, so every invariant the search relies on
  // is broken one at a time on a valid Flatten() image. Each broken input
  // must be refused and must leave the (previously attached) index empty.
  HnswIndex built;
  built.Build(RandomUnitRows(200, 16, 25));
  const HnswIndex::FlatGraph pristine = built.Flatten();
  const uint32_t rows = static_cast<uint32_t>(built.size());
  ASSERT_GE(built.max_level(), 1u);
  // A node with links on level 1, and a node that exists only on level 0.
  uint32_t upper = rows, ground = rows;
  for (uint32_t node = 0; node < rows; ++node) {
    const uint64_t list = pristine.entry_base[node] + 1;
    if (upper == rows && pristine.levels[node] >= 2 &&
        pristine.starts[list + 1] > pristine.starts[list]) {
      upper = node;
    }
    if (ground == rows && pristine.levels[node] == 1) ground = node;
  }
  ASSERT_LT(upper, rows);
  ASSERT_LT(ground, rows);

  struct Input {
    HnswIndex::FlatGraph flat;
    uint32_t entry;
    size_t max_level;
  };
  const auto attach = [&](HnswIndex& index, const Input& in) {
    return index.AttachFlat(
        la::Matrix::View(built.data().data(), rows, built.data().cols()),
        built.options(), in.entry, in.max_level, in.flat.levels.data(),
        in.flat.entry_base.data(), in.flat.starts.data(),
        in.flat.starts.size(), in.flat.adj.data(), in.flat.adj.size());
  };
  const Input valid{pristine, built.entry(), built.max_level()};

  // Control: the pristine image attaches and answers bit-identically.
  HnswIndex control;
  ASSERT_TRUE(attach(control, valid));
  const la::Matrix queries = RandomUnitRows(8, 16, 26);
  const auto expected = built.QueryBatch(queries, 5);
  const auto actual = control.QueryBatch(queries, 5);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size());
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, actual[q][i].id);
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance);
    }
  }

  std::vector<std::pair<const char*, Input>> broken;
  const auto add = [&](const char* what, const auto& mutate) {
    Input in = valid;
    mutate(in);
    broken.emplace_back(what, std::move(in));
  };
  add("link target >= rows", [&](Input& in) { in.flat.adj[0] = rows; });
  add("link to a node without that level", [&](Input& in) {
    in.flat.adj[in.flat.starts[in.flat.entry_base[upper] + 1]] = ground;
  });
  add("level count 0", [](Input& in) { in.flat.levels[3] = 0; });
  add("level count above 64", [](Input& in) {
    // Node 3 gains empty lists up to 65 levels with the prefix sums and
    // offsets kept consistent, so only the level ceiling can refuse it.
    const uint32_t extra = 65 - in.flat.levels[3];
    const uint64_t next = in.flat.entry_base[4];
    in.flat.starts.insert(in.flat.starts.begin() + next, extra,
                          in.flat.starts[next]);
    in.flat.levels[3] = 65;
    for (size_t n = 4; n < in.flat.entry_base.size(); ++n) {
      in.flat.entry_base[n] += extra;
    }
  });
  add("non-monotone starts",
      [](Input& in) { in.flat.starts[1] = in.flat.starts[2] + 1; });
  add("starts not ending at adj size",
      [](Input& in) { in.flat.starts.back() -= 1; });
  add("entry_base[0] != 0", [](Input& in) { in.flat.entry_base[0] = 1; });
  add("entry_base not the prefix sum of levels",
      [](Input& in) { in.flat.entry_base[5] += 1; });
  add("entry point out of range", [&](Input& in) { in.entry = rows; });
  add("entry point below max_level", [&](Input& in) { in.entry = ground; });

  for (const auto& [what, in] : broken) {
    HnswIndex index;
    ASSERT_TRUE(attach(index, valid)) << what;
    EXPECT_FALSE(attach(index, in)) << what;
    EXPECT_EQ(index.size(), 0u) << what;
    EXPECT_EQ(index.data().cols(), 0u) << what;
  }
}

TEST(OverlapBlockerTest, RanksSharedRareTokensFirst) {
  OverlapBlocker blocker;
  blocker.Build({"alpha beta gamma", "alpha beta", "delta epsilon",
                 "gamma zeta"});
  const auto candidates = blocker.Query("alpha beta gamma", 2);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0], 0u);  // shares all three tokens
  const auto none = blocker.Query("unrelated words", 5);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace ember::index
