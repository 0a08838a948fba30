#ifndef EMBER_INDEX_LSH_INDEX_H_
#define EMBER_INDEX_LSH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/neighbor.h"
#include "la/matrix.h"

namespace ember {
class BinaryReader;
class BinaryWriter;
}  // namespace ember

namespace ember::index {

struct LshOptions {
  size_t tables = 8;
  size_t bits = 12;
  uint64_t seed = 1;
};

/// Random-hyperplane (SimHash) LSH for cosine similarity. Candidates are
/// gathered from the query's bucket in every table and re-ranked exactly;
/// when the buckets yield fewer than k candidates the query falls back to
/// an exact scan, so callers always receive min(k, size()) results.
class LshIndex {
 public:
  LshIndex() = default;
  explicit LshIndex(const LshOptions& options) : options_(options) {}

  /// Takes the data by value: pass an lvalue to copy, or std::move the
  /// matrix in to avoid doubling peak memory.
  void Build(la::Matrix data);

  size_t size() const { return data_.rows(); }

  /// Build parameters. The hyperplanes derive deterministically from
  /// options_.seed, so a rebuild with these options over the same data
  /// reproduces the tables bit-identically (what compaction relies on).
  const LshOptions& options() const { return options_; }

  /// The indexed vectors (e.g. for self-join querying after a move-in
  /// Build).
  const la::Matrix& data() const { return data_; }

  std::vector<Neighbor> Query(const float* query, size_t k) const;

  std::vector<std::vector<Neighbor>> QueryBatch(const la::Matrix& queries,
                                                size_t k) const;

  const la::Matrix& planes() const { return planes_; }

  /// Everything but the two matrices: a versioned options + buckets blob.
  /// The EMBS0002 container stores data and hyperplanes as aligned
  /// mmap-able sections and keeps only this residue as an opaque aux blob
  /// (the bucket maps are pointer-heavy and rebuild as heap structures
  /// either way).
  void SaveAux(BinaryWriter& writer) const;

  /// Counterpart of SaveAux: adopts externally-provided data/planes
  /// matrices (typically zero-copy views over an mmap'ed snapshot) and
  /// reads options + buckets from the aux blob. Fail-closed: returns false
  /// and leaves the index empty on a truncated or corrupt blob (bucket ids
  /// bounded, no duplicate hashes) or when the matrix shapes disagree with
  /// the options.
  bool LoadAux(BinaryReader& reader, la::Matrix data, la::Matrix planes);

 private:
  uint32_t HashOf(const float* vector, size_t table) const;

  LshOptions options_;
  la::Matrix data_;
  la::Matrix planes_;  // (tables * bits) x dim
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> buckets_;
};

}  // namespace ember::index

#endif  // EMBER_INDEX_LSH_INDEX_H_
