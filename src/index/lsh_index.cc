#include "index/lsh_index.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/vector_ops.h"
#include "obs/trace.h"

namespace ember::index {

uint32_t LshIndex::HashOf(const float* vector, size_t table) const {
  uint32_t code = 0;
  for (size_t b = 0; b < options_.bits; ++b) {
    const float* plane = planes_.Row(table * options_.bits + b);
    code = (code << 1) |
           (la::Dot(vector, plane, data_.cols()) >= 0.f ? 1u : 0u);
  }
  return code;
}

void LshIndex::Build(la::Matrix data) {
  obs::Span span("index/lsh_build");
  span.AddCount("rows", data.rows());
  data_ = std::move(data);
  buckets_.assign(options_.tables, {});
  if (data_.rows() == 0) return;
  planes_ = la::Matrix(options_.tables * options_.bits, data_.cols());
  Rng rng(SplitMix64(options_.seed ^ 0x15aULL));
  planes_.FillGaussian(rng, 1.f);
  for (uint32_t r = 0; r < data_.rows(); ++r) {
    for (size_t t = 0; t < options_.tables; ++t) {
      buckets_[t][HashOf(data_.Row(r), t)].push_back(r);
    }
  }
}

std::vector<Neighbor> LshIndex::Query(const float* query, size_t k) const {
  if (data_.rows() == 0) return {};
  const size_t kept = std::min(k, data_.rows());
  std::vector<uint32_t> candidates;
  for (size_t t = 0; t < options_.tables; ++t) {
    const auto it = buckets_[t].find(HashOf(query, t));
    if (it == buckets_[t].end()) continue;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.size() < kept) {
    // Bucket miss: exact fallback keeps the k-per-query contract.
    candidates.resize(data_.rows());
    for (uint32_t r = 0; r < data_.rows(); ++r) candidates[r] = r;
  }
  std::vector<Neighbor> ranked;
  ranked.reserve(candidates.size());
  for (const uint32_t r : candidates) {
    ranked.push_back({r, 1.f - la::Dot(query, data_.Row(r), data_.cols())});
  }
  std::sort(ranked.begin(), ranked.end(), CloserThan);
  ranked.resize(kept);
  return ranked;
}

std::vector<std::vector<Neighbor>> LshIndex::QueryBatch(
    const la::Matrix& queries, size_t k) const {
  obs::Span span("index/lsh_query_batch");
  span.AddCount("queries", queries.rows());
  const obs::SpanContext parent = span.context();
  std::vector<std::vector<Neighbor>> results(queries.rows());
  ParallelFor(0, queries.rows(), 0, [&](size_t lo, size_t hi) {
    obs::Span chunk("index/lsh_query_chunk", parent, lo);
    chunk.AddCount("queries", hi - lo);
    for (size_t q = lo; q < hi; ++q) {
      results[q] = Query(queries.Row(q), k);
    }
  });
  return results;
}

namespace {

constexpr uint32_t kLshFormatVersion = 1;

using BucketTables =
    std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>>;

void WriteBuckets(BinaryWriter& writer, const BucketTables& buckets) {
  writer.WriteU64(buckets.size());
  for (const auto& table : buckets) {
    // Sorted by hash so the byte image is deterministic regardless of the
    // unordered_map's iteration order (snapshots of equal indexes are
    // byte-equal, which the round-trip tests exploit).
    std::vector<uint32_t> hashes;
    hashes.reserve(table.size());
    for (const auto& [hash, ids] : table) hashes.push_back(hash);
    std::sort(hashes.begin(), hashes.end());
    writer.WriteU64(hashes.size());
    for (const uint32_t hash : hashes) {
      writer.WriteU32(hash);
      writer.WritePodVector(table.at(hash));
    }
  }
}

bool ReadBuckets(BinaryReader& reader, size_t expected_tables, size_t rows,
                 BucketTables* out) {
  const uint64_t tables = reader.ReadU64();
  if (!reader.ok() || tables != expected_tables ||
      tables > reader.remaining()) {  // each table costs >= 1 byte
    reader.Fail();
    return false;
  }
  BucketTables buckets(tables);
  for (auto& table : buckets) {
    const uint64_t entries = reader.ReadU64();
    if (!reader.ok() || entries > reader.remaining() / sizeof(uint32_t)) {
      reader.Fail();
      return false;
    }
    table.reserve(entries);
    for (uint64_t e = 0; e < entries; ++e) {
      const uint32_t hash = reader.ReadU32();
      std::vector<uint32_t> ids = reader.ReadPodVector<uint32_t>();
      for (const uint32_t id : ids) {
        if (id >= rows) {
          reader.Fail();
          return false;
        }
      }
      if (!table.emplace(hash, std::move(ids)).second) {
        reader.Fail();  // duplicate bucket hash
        return false;
      }
    }
  }
  if (!reader.ok()) return false;
  *out = std::move(buckets);
  return true;
}

}  // namespace

void LshIndex::SaveAux(BinaryWriter& writer) const {
  writer.WriteU32(kLshFormatVersion);
  writer.WriteU64(options_.tables);
  writer.WriteU64(options_.bits);
  writer.WriteU64(options_.seed);
  WriteBuckets(writer, buckets_);
}

bool LshIndex::LoadAux(BinaryReader& reader, la::Matrix data,
                       la::Matrix planes) {
  *this = LshIndex();
  if (reader.ReadU32() != kLshFormatVersion) {
    reader.Fail();
    return false;
  }
  LshOptions options;
  options.tables = reader.ReadU64();
  options.bits = reader.ReadU64();
  options.seed = reader.ReadU64();
  if (!reader.ok()) return false;
  // Shape cross-checks: the plane matrix must cover tables * bits
  // hyperplanes of the data's dimensionality whenever the index is
  // non-empty.
  if (data.rows() > 0 && (planes.rows() != options.tables * options.bits ||
                          planes.cols() != data.cols())) {
    reader.Fail();
    return false;
  }
  BucketTables buckets;
  if (!ReadBuckets(reader, options.tables, data.rows(), &buckets)) {
    return false;
  }
  options_ = options;
  data_ = std::move(data);
  planes_ = std::move(planes);
  buckets_ = std::move(buckets);
  return true;
}

}  // namespace ember::index
