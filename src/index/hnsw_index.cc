#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include <cstring>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/vector_ops.h"
#include "obs/trace.h"

namespace ember::index {

namespace {

/// Max-heap comparator (worst on top) for the result set.
bool WorseOnTop(const Neighbor& a, const Neighbor& b) {
  return CloserThan(a, b);
}

/// Min-heap comparator (best on top) for the expansion frontier.
bool BestOnTop(const Neighbor& a, const Neighbor& b) {
  return CloserThan(b, a);
}

/// Per-thread visited scratch for the const query path. Shared across
/// HnswIndex instances (Clear resizes on demand); safe because queries
/// never nest on one thread, and value-irrelevant because the set is
/// cleared before every search.
VisitedSet& QueryVisited() {
  thread_local VisitedSet visited;
  return visited;
}

}  // namespace

float HnswIndex::DistanceTo(const float* query, uint32_t node) const {
  return 1.f - la::Dot(query, data_.Row(node), data_.cols());
}

std::vector<uint32_t>& HnswIndex::NeighborsOf(uint32_t node, size_t level) {
  return links_[node][level];
}

const std::vector<uint32_t>& HnswIndex::NeighborsOf(uint32_t node,
                                                    size_t level) const {
  return links_[node][level];
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             Neighbor entry, size_t ef,
                                             size_t level,
                                             VisitedSet& visited,
                                             SearchStats* stats) const {
  visited.Clear(data_.rows());
  visited.TestAndSet(entry.id);
  std::vector<Neighbor> frontier = {entry};  // min-heap
  std::vector<Neighbor> best = {entry};      // max-heap, capped at ef
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), BestOnTop);
    const Neighbor current = frontier.back();
    frontier.pop_back();
    if (best.size() >= ef && CloserThan(best.front(), current)) break;
    if (stats != nullptr) ++stats->hops;
    for (const uint32_t next : Links(current.id, level)) {
      if (visited.TestAndSet(next)) continue;
      if (stats != nullptr) ++stats->distance_evals;
      const Neighbor candidate{next, DistanceTo(query, next)};
      if (best.size() < ef || CloserThan(candidate, best.front())) {
        frontier.push_back(candidate);
        std::push_heap(frontier.begin(), frontier.end(), BestOnTop);
        best.push_back(candidate);
        std::push_heap(best.begin(), best.end(), WorseOnTop);
        if (best.size() > ef) {
          std::pop_heap(best.begin(), best.end(), WorseOnTop);
          best.pop_back();
        }
      }
    }
  }
  std::sort(best.begin(), best.end(), CloserThan);
  return best;
}

void HnswIndex::Insert(uint32_t node, size_t node_level) {
  const float* vec = data_.Row(node);
  Neighbor entry{entry_, DistanceTo(vec, entry_)};

  // Greedy descent through levels above the node's top level.
  for (size_t level = max_level_; level > node_level; --level) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const uint32_t next : Links(entry.id, level)) {
        const float d = DistanceTo(vec, next);
        if (d < entry.distance) {
          entry = {next, d};
          improved = true;
        }
      }
    }
  }

  // Connect on [min(node_level, max_level_) .. 0].
  for (size_t level = std::min(node_level, max_level_) + 1; level-- > 0;) {
    const std::vector<Neighbor> found =
        SearchLayer(vec, entry, options_.ef_construction, level,
                    build_visited_);
    const size_t cap = level == 0 ? 2 * options_.m : options_.m;
    std::vector<uint32_t>& mine = NeighborsOf(node, level);
    for (const Neighbor& n : found) {
      if (mine.size() >= cap) break;
      mine.push_back(n.id);
      std::vector<uint32_t>& theirs = NeighborsOf(n.id, level);
      theirs.push_back(node);
      if (theirs.size() > cap) {
        // Keep the cap closest links of the overfull node (simple pruning).
        std::vector<Neighbor> ranked;
        ranked.reserve(theirs.size());
        for (const uint32_t t : theirs) {
          ranked.push_back({t, DistanceTo(data_.Row(n.id), t)});
        }
        std::sort(ranked.begin(), ranked.end(), CloserThan);
        theirs.clear();
        for (size_t i = 0; i < cap; ++i) theirs.push_back(ranked[i].id);
      }
    }
    entry = found.front();
  }

  if (node_level > max_level_) {
    max_level_ = node_level;
    entry_ = node;
  }
}

void HnswIndex::LinkRows(size_t first) {
  const double level_mult = 1.0 / std::log(static_cast<double>(options_.m));
  Rng rng(SplitMix64(options_.seed ^ 0x6a57ULL));
  // One Uniform() per already-linked node: fast-forwarding the stream makes
  // node n draw the same level whether it arrived in the original Build or
  // in a later AddBatch.
  for (size_t i = 0; i < first; ++i) rng.Uniform();
  for (uint32_t node = first; node < data_.rows(); ++node) {
    double u = rng.Uniform();
    if (u <= 1e-12) u = 1e-12;
    const size_t node_level = static_cast<size_t>(-std::log(u) * level_mult);
    links_[node].assign(node_level + 1, {});
    if (node == 0) {
      max_level_ = node_level;
      continue;
    }
    Insert(node, node_level);
  }
}

void HnswIndex::Build(la::Matrix data) {
  obs::Span span("index/hnsw_build");
  span.AddCount("rows", data.rows());
  data_ = std::move(data);
  links_.assign(data_.rows(), {});
  flat_ = FlatLinks();
  if (data_.rows() == 0) return;
  entry_ = 0;
  max_level_ = 0;
  LinkRows(0);
}

void HnswIndex::Thaw() {
  if (flat_.active) {
    const size_t rows = data_.rows();
    std::vector<std::vector<std::vector<uint32_t>>> links(rows);
    for (uint32_t node = 0; node < rows; ++node) {
      links[node].resize(flat_.levels[node]);
      for (size_t level = 0; level < flat_.levels[node]; ++level) {
        const LinkView view = Links(node, level);
        links[node][level].assign(view.begin(), view.end());
      }
    }
    links_ = std::move(links);
    flat_ = FlatLinks();
  }
  if (data_.is_view()) {
    la::Matrix owned(data_.rows(), data_.cols());
    std::memcpy(owned.data(), data_.data(),
                data_.rows() * data_.cols() * sizeof(float));
    data_ = std::move(owned);
  }
}

void HnswIndex::AddBatch(const la::Matrix& rows) {
  Thaw();
  if (rows.rows() == 0) return;
  const size_t old_rows = data_.rows();
  const size_t cols = old_rows > 0 ? data_.cols() : rows.cols();
  EMBER_CHECK(rows.cols() == cols);
  la::Matrix grown(old_rows + rows.rows(), cols);
  if (old_rows > 0) {
    std::memcpy(grown.data(), data_.data(), old_rows * cols * sizeof(float));
  }
  std::memcpy(grown.Row(old_rows), rows.data(),
              rows.rows() * cols * sizeof(float));
  data_ = std::move(grown);
  links_.resize(data_.rows());
  if (old_rows == 0) {
    entry_ = 0;
    max_level_ = 0;
  }
  LinkRows(old_rows);
}

std::vector<Neighbor> HnswIndex::Query(const float* query, size_t k,
                                       SearchStats* stats) const {
  if (data_.rows() == 0) return {};
  Neighbor entry{entry_, DistanceTo(query, entry_)};
  if (stats != nullptr) ++stats->distance_evals;
  for (size_t level = max_level_; level > 0; --level) {
    bool improved = true;
    while (improved) {
      improved = false;
      if (stats != nullptr) ++stats->hops;
      for (const uint32_t next : Links(entry.id, level)) {
        const float d = DistanceTo(query, next);
        if (stats != nullptr) ++stats->distance_evals;
        if (d < entry.distance) {
          entry = {next, d};
          improved = true;
        }
      }
    }
  }
  std::vector<Neighbor> best =
      SearchLayer(query, entry, std::max(k, options_.ef_search), 0,
                  QueryVisited(), stats);
  if (best.size() > k) best.resize(k);
  return best;
}

std::vector<std::vector<Neighbor>> HnswIndex::QueryBatch(
    const la::Matrix& queries, size_t k) const {
  obs::Span span("index/hnsw_query_batch");
  span.AddCount("queries", queries.rows());
  const obs::SpanContext parent = span.context();
  std::vector<std::vector<Neighbor>> results(queries.rows());
  ParallelForEach(0, queries.rows(), 0, [&](size_t q) {
    // Per-query spans are keyed by the query index, and the search-work
    // counters ride on the span; with tracing off the stats pointer is
    // null and Query's counting branches never fire.
    if (obs::Tracer::Enabled()) {
      obs::Span query_span("index/hnsw_query", parent, q);
      SearchStats stats;
      results[q] = Query(queries.Row(q), k, &stats);
      query_span.AddCount("hops", stats.hops);
      query_span.AddCount("distance_evals", stats.distance_evals);
    } else {
      results[q] = Query(queries.Row(q), k);
    }
  });
  return results;
}

namespace {
/// Level-count ceiling on attach: with level_mult = 1/ln(2) the chance of a
/// node drawing level 64 is ~2^-64, so anything above it is corruption.
constexpr uint64_t kMaxLevels = 64;
}  // namespace

bool HnswIndex::ValidateGraph() const {
  const size_t rows = data_.rows();
  if (!flat_.active && links_.size() != rows) return false;
  if (rows == 0) return true;
  if (entry_ >= rows || LevelCount(entry_) == 0 ||
      max_level_ >= LevelCount(entry_)) {
    return false;
  }
  for (uint32_t node = 0; node < rows; ++node) {
    const size_t levels = LevelCount(node);
    if (levels == 0) return false;
    for (size_t level = 0; level < levels; ++level) {
      for (const uint32_t target : Links(node, level)) {
        if (target >= rows || LevelCount(target) <= level) return false;
      }
    }
  }
  return true;
}

HnswIndex::FlatGraph HnswIndex::Flatten() const {
  FlatGraph flat;
  const size_t rows = data_.rows();
  flat.levels.reserve(rows);
  flat.entry_base.reserve(rows + 1);
  flat.entry_base.push_back(0);
  for (uint32_t node = 0; node < rows; ++node) {
    const size_t levels = LevelCount(node);
    flat.levels.push_back(static_cast<uint32_t>(levels));
    flat.entry_base.push_back(flat.entry_base.back() + levels);
  }
  flat.starts.reserve(flat.entry_base.back() + 1);
  flat.starts.push_back(0);
  for (uint32_t node = 0; node < rows; ++node) {
    for (size_t level = 0; level < LevelCount(node); ++level) {
      const LinkView view = Links(node, level);
      flat.adj.insert(flat.adj.end(), view.begin(), view.end());
      flat.starts.push_back(flat.adj.size());
    }
  }
  return flat;
}

bool HnswIndex::AttachFlat(la::Matrix data, const HnswOptions& options,
                           uint32_t entry, size_t max_level,
                           const uint32_t* levels, const uint64_t* entry_base,
                           const uint64_t* starts, uint64_t starts_count,
                           const uint32_t* adj, uint64_t adj_count) {
  *this = HnswIndex();
  const size_t rows = data.rows();
  // Structural validation before a single pointer is trusted: the CSR
  // arrays come straight out of an mmap'ed file, so every invariant the
  // search paths rely on is checked here against the flat encoding.
  // Anything off leaves the index empty (fail closed).
  if (entry_base[0] != 0) return false;
  for (size_t node = 0; node < rows; ++node) {
    const uint32_t count = levels[node];
    if (count == 0 || count > kMaxLevels) return false;
    if (entry_base[node + 1] != entry_base[node] + count) return false;
  }
  if (starts_count != entry_base[rows] + 1) return false;
  if (starts[0] != 0 || starts[starts_count - 1] != adj_count) return false;
  for (uint64_t i = 0; i + 1 < starts_count; ++i) {
    if (starts[i] > starts[i + 1]) return false;
  }
  for (uint64_t i = 0; i < adj_count; ++i) {
    if (adj[i] >= rows) return false;
  }
  if (rows > 0 && (entry >= rows || max_level >= levels[entry])) return false;
  // Cross-level check (level-l links target nodes that exist on level l)
  // runs through the accessors, so activate the flat view first; on failure
  // the index is reset to empty below.
  data_ = std::move(data);
  options_ = options;
  entry_ = entry;
  max_level_ = max_level;
  flat_ = FlatLinks{true, levels, entry_base, starts, adj};
  for (uint32_t node = 0; node < rows; ++node) {
    for (size_t level = 0; level < levels[node]; ++level) {
      for (const uint32_t target : Links(node, level)) {
        if (levels[target] <= level) {
          *this = HnswIndex();
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace ember::index
