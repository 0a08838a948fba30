#ifndef EMBER_INDEX_HNSW_INDEX_H_
#define EMBER_INDEX_HNSW_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/neighbor.h"
#include "la/matrix.h"

namespace ember::index {

/// HNSW build/search parameters (Malkov & Yashunin defaults scaled to
/// ember's dataset sizes).
struct HnswOptions {
  size_t m = 16;               // neighbors kept per node above level 0
  size_t ef_construction = 100;
  size_t ef_search = 64;
  uint64_t seed = 1;
};

/// Work counters for one HNSW search, filled when the caller asks (the
/// traced QueryBatch path attaches them as span counters). Counting is
/// opt-in: a null stats pointer keeps the hot loop increment-free.
struct SearchStats {
  uint64_t hops = 0;            // nodes expanded (greedy steps + beam pops)
  uint64_t distance_evals = 0;  // la::Dot calls against the corpus
};

/// Epoch-stamped visited set (the hnswlib VisitedList trick): clearing
/// between searches is one epoch increment instead of an O(n) allocation +
/// memset, so the buffer is reused across every SearchLayer of a query and
/// across queries on the same thread.
class VisitedSet {
 public:
  /// Makes ids [0, n) unvisited. Allocates only when growing past the
  /// largest n seen; otherwise O(1) except on (u32) epoch wraparound.
  void Clear(size_t n) {
    if (stamps_.size() < n) stamps_.assign(n, 0);
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// Marks id visited; returns whether it already was.
  bool TestAndSet(uint32_t id) {
    if (stamps_[id] == epoch_) return true;
    stamps_[id] = epoch_;
    return false;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

/// Hierarchical Navigable Small World graph over normalized vectors.
/// Build is sequential and deterministic in (data, options). Search is
/// const and thread-safe; QueryBatch parallelizes over queries and is
/// bit-identical at every thread count (per-query results depend only on
/// the graph and the query; visited buffers are per-thread scratch that
/// never influences values).
class HnswIndex {
 public:
  HnswIndex() = default;
  explicit HnswIndex(const HnswOptions& options) : options_(options) {}

  /// Takes the data by value: pass an lvalue to copy (the index always owns
  /// its vectors), or std::move the matrix in to avoid doubling peak memory
  /// on large builds.
  void Build(la::Matrix data);

  size_t size() const { return data_.rows(); }

  /// The indexed vectors (e.g. for self-join querying after a move-in
  /// Build).
  const la::Matrix& data() const { return data_; }

  const HnswOptions& options() const { return options_; }
  uint32_t entry() const { return entry_; }
  size_t max_level() const { return max_level_; }

  /// The graph re-laid-out as one flat CSR: `levels[n]` level-lists per
  /// node, `entry_base` the exclusive prefix sum of those counts (rows + 1
  /// entries), `starts[entry_base[n] + l]` the adjacency offset of node n's
  /// level-l list (entry_base[rows] + 1 entries total), and `adj` the
  /// concatenated neighbor ids. This is the shape the EMBS0002 container
  /// stores, because four aligned POD arrays can be mmap'ed and searched in
  /// place where nested vectors cannot.
  struct FlatGraph {
    std::vector<uint32_t> levels;
    std::vector<uint64_t> entry_base;
    std::vector<uint64_t> starts;
    std::vector<uint32_t> adj;
  };
  FlatGraph Flatten() const;

  /// Adopts a flat CSR graph over externally-owned arrays (the mmap'ed
  /// snapshot path; the caller keeps the arrays alive). Validates every
  /// structural invariant the search paths rely on — level counts in
  /// [1, 64], prefix-sum consistency, offsets monotone and in bounds, every
  /// link target in bounds with a list on that level, entry point on
  /// max_level — and fails closed: on any violation the index is left
  /// empty and false is returned. With the snapshot checksum skipped
  /// (trusted load) this is the only guard on the graph bytes.
  bool AttachFlat(la::Matrix data, const HnswOptions& options, uint32_t entry,
                  size_t max_level, const uint32_t* levels,
                  const uint64_t* entry_base, const uint64_t* starts,
                  uint64_t starts_count, const uint32_t* adj,
                  uint64_t adj_count);

  /// Converts the index to mutable owned storage: a flat-attached (mmap'ed)
  /// graph is materialized into nested heap links and view-backed vectors
  /// are copied into an owned matrix — the copy-on-write guard in front of
  /// every online insert. No-op when the index already owns nested storage.
  /// The streaming tier clones a serving snapshot's graph, thaws the clone,
  /// and mutates only the clone while readers keep the frozen original
  /// (RCU; DESIGN.md §14).
  void Thaw();

  /// Online insert: appends `rows` vectors and links each into the graph.
  /// Levels continue the exact seeded stream Build draws from, so
  /// Build(A) + AddBatch(B) produces a graph bit-identical to
  /// Build(A concat B) — incremental insertion is testable against the
  /// batch rebuild oracle. Thaws the index first; NOT thread-safe against
  /// concurrent queries on the same object (mutate a private copy).
  void AddBatch(const la::Matrix& rows);

  /// `stats`, when non-null, accumulates the search's hop/distance-eval
  /// counts (it is not reset: callers aggregate across queries).
  std::vector<Neighbor> Query(const float* query, size_t k,
                              SearchStats* stats = nullptr) const;

  std::vector<std::vector<Neighbor>> QueryBatch(const la::Matrix& queries,
                                                size_t k) const;

  /// Re-checks the graph invariants the search paths rely on (entry point
  /// and every link target in bounds, adjacency lists present on every
  /// level they are referenced from). AttachFlat() already enforces these;
  /// the serving layer re-runs them before trusting a hot-reloaded snapshot
  /// or adopting an online-built graph.
  bool ValidateGraph() const;

 private:
  /// Bounds-known view of one node's level-l adjacency list, independent of
  /// which storage backs it. All const search/save/validate paths read the
  /// graph only through Links()/LevelCount(), which is what lets one search
  /// implementation serve both heap-built and mmap-attached indexes.
  struct LinkView {
    const uint32_t* data = nullptr;
    size_t count = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + count; }
  };
  LinkView Links(uint32_t node, size_t level) const {
    if (flat_.active) {
      const uint64_t base = flat_.entry_base[node] + level;
      return {flat_.adj + flat_.starts[base],
              static_cast<size_t>(flat_.starts[base + 1] -
                                  flat_.starts[base])};
    }
    const std::vector<uint32_t>& v = links_[node][level];
    return {v.data(), v.size()};
  }
  size_t LevelCount(uint32_t node) const {
    return flat_.active ? flat_.levels[node] : links_[node].size();
  }

  float DistanceTo(const float* query, uint32_t node) const;
  /// Beam search on one level starting from `entry`; returns up to `ef`
  /// closest nodes, ascending. `visited` is caller-provided scratch.
  std::vector<Neighbor> SearchLayer(const float* query, Neighbor entry,
                                    size_t ef, size_t level,
                                    VisitedSet& visited,
                                    SearchStats* stats = nullptr) const;
  void Insert(uint32_t node, size_t node_level);
  /// Draws levels for and links nodes [first, rows) — the shared tail of
  /// Build and AddBatch. Skips the first `first` draws of the seeded level
  /// stream, which is what makes incremental insertion bit-identical to a
  /// batch rebuild.
  void LinkRows(size_t first);
  std::vector<uint32_t>& NeighborsOf(uint32_t node, size_t level);
  const std::vector<uint32_t>& NeighborsOf(uint32_t node, size_t level) const;

  HnswOptions options_;
  la::Matrix data_;
  /// links_[node][level] -> neighbor ids; node exists on [0, levels(node)].
  /// Mutable nested storage used by Build/Insert/Thaw; empty when the
  /// graph is flat-attached.
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  /// Read-only CSR pointers when the graph was AttachFlat'ed (EMBS0002
  /// mmap path); the snapshot owns the backing arrays.
  struct FlatLinks {
    bool active = false;
    const uint32_t* levels = nullptr;
    const uint64_t* entry_base = nullptr;
    const uint64_t* starts = nullptr;
    const uint32_t* adj = nullptr;
  };
  FlatLinks flat_;
  uint32_t entry_ = 0;
  size_t max_level_ = 0;
  /// Scratch for the sequential Build/Insert path (queries use a
  /// per-thread set instead).
  VisitedSet build_visited_;
};

}  // namespace ember::index

#endif  // EMBER_INDEX_HNSW_INDEX_H_
