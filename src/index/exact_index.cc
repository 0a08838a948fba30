#include "index/exact_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "la/vector_ops.h"
#include "obs/trace.h"

namespace ember::index {

namespace {

/// Data rows per scoring block: 256 rows x 768 floats ≈ 768 KB streamed
/// against a query tile that stays L1/L2-resident.
constexpr size_t kDataBlock = 256;
/// Queries per GemmBt tile in QueryBatch; the float scan widens its tiles
/// for large batches, up to kMaxQueryTile queries (one GemmBtStrided row
/// tile), while keeping at least kTargetTiles tiles to share out.
constexpr size_t kQueryBlock = 16;
constexpr size_t kMaxQueryTile = 96;
constexpr size_t kTargetTiles = 32;

/// Fixed-capacity top-k tracker: max-heap on the CloserThan order, so the
/// root is the current worst kept neighbor.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(uint32_t id, float distance) {
    const Neighbor candidate{id, distance};
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), CloserThan);
    } else if (CloserThan(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), CloserThan);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), CloserThan);
    }
  }

  std::vector<Neighbor> Sorted() && {
    std::sort(heap_.begin(), heap_.end(), CloserThan);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<Neighbor> heap_;
};

/// Candidates kept from the int8 scan before float rescoring. Wide enough
/// that a code-level tie or sub-scale score swap cannot push a true top-k
/// member out of the rescore set in practice (recall@10 >= 0.99 is enforced
/// by test and experiment).
size_t RescoreWidth(size_t k, size_t rows) {
  return std::min(rows, std::max(4 * k, static_cast<size_t>(32)));
}

/// Re-scores `approx` candidates with exact float dots and keeps the best
/// k. The final order is the usual total (distance, id) order, so the
/// result is independent of the candidate order coming in.
std::vector<Neighbor> RescoreWithFloat(const la::Matrix& data,
                                       const float* query,
                                       std::vector<Neighbor> approx,
                                       size_t k) {
  for (Neighbor& n : approx) {
    n.distance = 1.f - la::Dot(query, data.Row(n.id), data.cols());
  }
  std::sort(approx.begin(), approx.end(), CloserThan);
  if (approx.size() > k) approx.resize(k);
  return approx;
}

}  // namespace

void ExactIndex::Build(la::Matrix data) {
  obs::Span span("index/exact_build");
  span.AddCount("rows", data.rows());
  data_ = std::move(data);
  quantized_ = la::QuantizedMatrix();
  has_quantized_ = false;
}

void ExactIndex::Quantize() {
  obs::Span span("index/exact_quantize");
  span.AddCount("rows", data_.rows());
  quantized_ = la::QuantizedMatrix::Quantize(data_);
  has_quantized_ = true;
}

void ExactIndex::AttachQuantized(la::QuantizedMatrix quantized) {
  EMBER_CHECK(quantized.rows() == data_.rows() &&
              quantized.cols() == data_.cols());
  quantized_ = std::move(quantized);
  has_quantized_ = true;
}

std::vector<Neighbor> ExactIndex::Query(const float* query, size_t k) const {
  const size_t kept = std::min(k, data_.rows());
  if (quantized()) {
    // Int8 scan tier: quantize the query once, score every row through the
    // exact-integer kernel, keep a wide top-W by approximate distance, then
    // rescore W candidates with float dots. Scan order and kernels match
    // the batch path exactly, so single and batched queries agree
    // bit-for-bit.
    std::vector<int8_t> codes(data_.cols());
    la::QuantParams qp;
    la::QuantizeRow(query, data_.cols(), codes.data(), &qp);
    TopK top(RescoreWidth(kept, data_.rows()));
    for (size_t start = 0; start < data_.rows(); start += kDataBlock) {
      const size_t end = std::min(start + kDataBlock, data_.rows());
      for (size_t r = start; r < end; ++r) {
        const int32_t d =
            la::DotI8(codes.data(), quantized_.Row(r), data_.cols());
        top.Offer(static_cast<uint32_t>(r),
                  1.f - la::ApproxDot(qp, quantized_.Params(r), d,
                                      data_.cols()));
      }
    }
    return RescoreWithFloat(data_, query, std::move(top).Sorted(), kept);
  }
  TopK top(kept);
  // Blocked in-place scan: the same kernel and row order as the tiled batch
  // path, so results match bit-for-bit.
  const size_t cols = data_.cols();
  std::vector<float> scores(kDataBlock);
  for (size_t start = 0; start < data_.rows(); start += kDataBlock) {
    const size_t end = std::min(start + kDataBlock, data_.rows());
    la::GemmBtStrided(query, 1, cols, data_.Row(start), end - start, cols,
                      cols, scores.data(), end - start);
    for (size_t r = start; r < end; ++r) {
      top.Offer(static_cast<uint32_t>(r), 1.f - scores[r - start]);
    }
  }
  return std::move(top).Sorted();
}

std::vector<std::vector<Neighbor>> ExactIndex::QueryBatch(
    const la::Matrix& queries, size_t k) const {
  if (quantized()) return QueryBatchQuantized(queries, k);
  return BruteForceTopK(data_, queries, k);
}

std::vector<std::vector<Neighbor>> ExactIndex::QueryBatchQuantized(
    const la::Matrix& queries, size_t k) const {
  EMBER_CHECK(queries.cols() == data_.cols() || data_.rows() == 0);
  obs::Span span("index/exact_query_batch_i8");
  span.AddCount("queries", queries.rows());
  span.AddCount("corpus_rows", data_.rows());
  const obs::SpanContext parent = span.context();
  std::vector<std::vector<Neighbor>> results(queries.rows());
  if (data_.rows() == 0) return results;
  const size_t kept = std::min(k, data_.rows());
  const size_t width = RescoreWidth(kept, data_.rows());
  const size_t cols = data_.cols();

  // Same tiling as the float path, but the inner panes run GemmBtI8Strided
  // straight over the (possibly mmap'ed) code rows — no block copies, a
  // quarter of the memory traffic. Integer scores expand to approximate
  // float dots via the per-row QuantParams; the top `width` per query are
  // then rescored against the float rows.
  ParallelFor(0, queries.rows(), kQueryBlock, [&](size_t qb, size_t qe) {
    obs::Span chunk("index/exact_score_chunk_i8", parent, qb);
    chunk.AddCount("queries", qe - qb);
    for (size_t q0 = qb; q0 < qe; q0 += kQueryBlock) {
      const size_t q1 = std::min(q0 + kQueryBlock, qe);
      const size_t tile_rows = q1 - q0;
      std::vector<int8_t> tile(tile_rows * cols);
      std::vector<la::QuantParams> tile_params(tile_rows);
      for (size_t q = q0; q < q1; ++q) {
        la::QuantizeRow(queries.Row(q), cols, tile.data() + (q - q0) * cols,
                        &tile_params[q - q0]);
      }
      std::vector<TopK> tops;
      tops.reserve(tile_rows);
      for (size_t q = q0; q < q1; ++q) tops.emplace_back(width);

      std::vector<int32_t> scores;
      for (size_t start = 0; start < data_.rows(); start += kDataBlock) {
        const size_t end = std::min(start + kDataBlock, data_.rows());
        const size_t block_rows = end - start;
        scores.assign(tile_rows * block_rows, 0);
        la::GemmBtI8Strided(tile.data(), tile_rows, cols,
                            quantized_.codes() + start * cols, block_rows,
                            cols, cols, scores.data(), block_rows);
        for (size_t q = q0; q < q1; ++q) {
          const int32_t* row = scores.data() + (q - q0) * block_rows;
          const la::QuantParams& qp = tile_params[q - q0];
          TopK& top = tops[q - q0];
          for (size_t r = start; r < end; ++r) {
            top.Offer(static_cast<uint32_t>(r),
                      1.f - la::ApproxDot(qp, quantized_.Params(r),
                                          row[r - start], cols));
          }
        }
      }
      for (size_t q = q0; q < q1; ++q) {
        results[q] = RescoreWithFloat(data_, queries.Row(q),
                                      std::move(tops[q - q0]).Sorted(), kept);
      }
    }
  });
  return results;
}

std::vector<std::vector<Neighbor>> BruteForceTopK(const la::Matrix& data,
                                                  const la::Matrix& queries,
                                                  size_t k) {
  EMBER_CHECK(queries.cols() == data.cols() || data.rows() == 0);
  obs::Span span("index/exact_query_batch");
  span.AddCount("queries", queries.rows());
  span.AddCount("corpus_rows", data.rows());
  const obs::SpanContext parent = span.context();
  std::vector<std::vector<Neighbor>> results(queries.rows());
  if (data.rows() == 0) return results;
  const size_t kept = std::min(k, data.rows());

  // Parallel over query tiles; each tile writes only its own result slots.
  // Within a tile, scores come from GemmBtStrided run in place over the
  // query rows and each (possibly mmap'ed) data block — bit-identical to
  // Dot() per pair — and are consumed in ascending data order. Large
  // batches take wider tiles (a pure function of the batch size) so each
  // data block is streamed once for up to kMaxQueryTile queries.
  const size_t cols = data.cols();
  const size_t tile = std::clamp<size_t>(
      (queries.rows() + kTargetTiles - 1) / kTargetTiles, kQueryBlock,
      kMaxQueryTile);
  ParallelFor(0, queries.rows(), tile, [&](size_t q0, size_t q1) {
    obs::Span chunk("index/exact_score_chunk", parent, q0);
    chunk.AddCount("queries", q1 - q0);
    std::vector<float> scores((q1 - q0) * kDataBlock);
    std::vector<TopK> tops;
    tops.reserve(q1 - q0);
    for (size_t q = q0; q < q1; ++q) tops.emplace_back(kept);

    for (size_t start = 0; start < data.rows(); start += kDataBlock) {
      const size_t end = std::min(start + kDataBlock, data.rows());
      const size_t block_rows = end - start;
      la::GemmBtStrided(queries.Row(q0), q1 - q0, cols, data.Row(start),
                        block_rows, cols, cols, scores.data(), block_rows);
      for (size_t q = q0; q < q1; ++q) {
        const float* row = scores.data() + (q - q0) * block_rows;
        TopK& top = tops[q - q0];
        for (size_t r = start; r < end; ++r) {
          top.Offer(static_cast<uint32_t>(r), 1.f - row[r - start]);
        }
      }
    }
    for (size_t q = q0; q < q1; ++q) {
      results[q] = std::move(tops[q - q0]).Sorted();
    }
  });
  return results;
}

}  // namespace ember::index
