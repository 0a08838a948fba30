#ifndef EMBER_INDEX_EXACT_INDEX_H_
#define EMBER_INDEX_EXACT_INDEX_H_

#include <vector>

#include "index/neighbor.h"
#include "la/matrix.h"
#include "la/quantize.h"

namespace ember::index {

/// Brute-force top-k of every `queries` row against the rows of `data`
/// (ascending cosine distance, ties by ascending id), parallelized over
/// query tiles. This is ExactIndex::QueryBatch without the ownership — the
/// serving layer's degraded mode scans another index's corpus matrix with
/// it, bit-identically to a real ExactIndex over the same data.
std::vector<std::vector<Neighbor>> BruteForceTopK(const la::Matrix& data,
                                                  const la::Matrix& queries,
                                                  size_t k);

/// Brute-force cosine index. Scoring is cache-blocked: batched queries tile
/// (query block x data block) through the GemmBt micro-kernel, which
/// accumulates every score in exactly the scalar Dot() order — so the
/// blocked path returns bit-identical results to the naive per-pair scan,
/// and QueryBatch is bit-identical at every thread count (each query owns
/// its result slot; the data scan order never changes).
class ExactIndex {
 public:
  /// Takes the data by value: pass an lvalue to copy, or std::move the
  /// matrix in to avoid doubling peak memory.
  void Build(la::Matrix data);

  size_t size() const { return data_.rows(); }
  size_t dim() const { return data_.cols(); }

  /// The indexed vectors (e.g. for self-join querying after a move-in
  /// Build).
  const la::Matrix& data() const { return data_; }

  /// Builds the int8 scan tier from the indexed float vectors. Queries then
  /// run the scan over 4x-smaller codes and rescore the top candidates with
  /// the float rows, keeping recall@k effectively lossless (see DESIGN.md
  /// §12 for the error model).
  void Quantize();

  /// Attaches a prebuilt quantized scan tier (the mmap'ed EMBS0002 path).
  /// Shape must match the indexed data; the caller keeps view storage alive.
  void AttachQuantized(la::QuantizedMatrix quantized);

  /// True once Quantize or AttachQuantized ran, also over 0 rows (an empty
  /// tier is still a tier: an int8 manifest needs one to save and validate).
  bool quantized() const { return has_quantized_; }
  const la::QuantizedMatrix& quantized_matrix() const { return quantized_; }

  /// Top-k by ascending cosine distance, ties by ascending id. Returns
  /// min(k, size()) neighbors.
  std::vector<Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries, parallelized over per-query chunks of the global
  /// thread pool with one top-k heap per query.
  std::vector<std::vector<Neighbor>> QueryBatch(const la::Matrix& queries,
                                                size_t k) const;

 private:
  std::vector<std::vector<Neighbor>> QueryBatchQuantized(
      const la::Matrix& queries, size_t k) const;

  la::Matrix data_;
  la::QuantizedMatrix quantized_;
  bool has_quantized_ = false;
};

}  // namespace ember::index

#endif  // EMBER_INDEX_EXACT_INDEX_H_
