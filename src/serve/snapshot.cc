#include "serve/snapshot.h"

#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"

namespace ember::serve {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kExact:
      return "exact";
    case IndexKind::kHnsw:
      return "hnsw";
    case IndexKind::kLsh:
      return "lsh";
  }
  return "unknown";
}

Result<IndexKind> IndexKindFromString(const std::string& text) {
  if (text == "exact") return IndexKind::kExact;
  if (text == "hnsw") return IndexKind::kHnsw;
  if (text == "lsh") return IndexKind::kLsh;
  return Status::InvalidArgument("unknown index kind '" + text + "'");
}

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kFloat32:
      return "f32";
    case StorageKind::kInt8:
      return "int8";
  }
  return "unknown";
}

Result<StorageKind> StorageKindFromString(const std::string& text) {
  if (text == "f32") return StorageKind::kFloat32;
  if (text == "int8") return StorageKind::kInt8;
  return Status::InvalidArgument("unknown storage kind '" + text + "'");
}

Snapshot Snapshot::Build(SnapshotManifest manifest, la::Matrix corpus,
                         const index::HnswOptions& hnsw_options,
                         const index::LshOptions& lsh_options) {
  EMBER_CHECK(manifest.storage == StorageKind::kFloat32 ||
              manifest.kind == IndexKind::kExact);
  Snapshot snapshot;
  manifest.rows = corpus.rows();
  manifest.dim = static_cast<uint32_t>(corpus.cols());
  snapshot.manifest_ = std::move(manifest);
  switch (snapshot.manifest_.kind) {
    case IndexKind::kExact:
      snapshot.exact_.Build(std::move(corpus));
      if (snapshot.manifest_.storage == StorageKind::kInt8) {
        snapshot.exact_.Quantize();
      }
      break;
    case IndexKind::kHnsw:
      snapshot.hnsw_ = index::HnswIndex(hnsw_options);
      snapshot.hnsw_.Build(std::move(corpus));
      break;
    case IndexKind::kLsh:
      snapshot.lsh_ = index::LshIndex(lsh_options);
      snapshot.lsh_.Build(std::move(corpus));
      break;
  }
  return snapshot;
}

Status Snapshot::Quantize() {
  if (manifest_.kind != IndexKind::kExact) {
    return Status::InvalidArgument(
        std::string("int8 storage requires an exact snapshot, not ") +
        IndexKindName(manifest_.kind));
  }
  exact_.Quantize();
  manifest_.storage = StorageKind::kInt8;
  return Status::Ok();
}

Result<Snapshot> Snapshot::LoadWithRetry(const std::string& path,
                                         const RetryPolicy& policy,
                                         uint64_t* retries) {
  Result<Snapshot> loaded = Status::Internal("snapshot load never attempted");
  RetryStatus(
      policy, HashBytes(path.data(), path.size()),
      [&] {
        loaded = LoadFrom(path);
        return loaded.status();
      },
      retries);
  return loaded;
}

Result<Snapshot> Snapshot::AdoptHnsw(SnapshotManifest manifest,
                                     index::HnswIndex hnsw) {
  if (!hnsw.ValidateGraph()) {
    return Status::Internal(
        "AdoptHnsw: graph invariants violated; refusing to serve it");
  }
  Snapshot snapshot;
  manifest.kind = IndexKind::kHnsw;
  manifest.storage = StorageKind::kFloat32;
  manifest.rows = hnsw.size();
  manifest.dim = static_cast<uint32_t>(hnsw.data().cols());
  snapshot.manifest_ = std::move(manifest);
  snapshot.hnsw_ = std::move(hnsw);
  return snapshot;
}

Result<index::HnswIndex> Snapshot::ThawedHnsw() const {
  if (manifest_.kind != IndexKind::kHnsw) {
    return Status::InvalidArgument(
        std::string("ThawedHnsw on a ") + IndexKindName(manifest_.kind) +
        " snapshot");
  }
  index::HnswIndex copy = hnsw_;
  // Thaw while `this` (and its mmap, if any) is alive: afterwards the copy
  // owns every byte it reads.
  copy.Thaw();
  return copy;
}

const la::Matrix& Snapshot::data() const {
  switch (manifest_.kind) {
    case IndexKind::kHnsw:
      return hnsw_.data();
    case IndexKind::kLsh:
      return lsh_.data();
    case IndexKind::kExact:
      break;
  }
  return exact_.data();
}

Status Snapshot::Validate() const {
  EMBER_FAILPOINT("snapshot/validate");
  const la::Matrix& corpus = data();
  if (corpus.rows() != manifest_.rows) {
    return Status::Internal("snapshot validation: index holds " +
                            std::to_string(corpus.rows()) +
                            " rows but the manifest claims " +
                            std::to_string(manifest_.rows));
  }
  if (manifest_.rows > 0 && corpus.cols() != manifest_.dim) {
    return Status::Internal("snapshot validation: index dim " +
                            std::to_string(corpus.cols()) +
                            " != manifest dim " +
                            std::to_string(manifest_.dim));
  }
  if (manifest_.shard_count == 0 ||
      manifest_.shard_id >= manifest_.shard_count ||
      manifest_.row_offset != manifest_.shard_id) {
    return Status::Internal(
        "snapshot validation: incoherent shard plan (shard " +
        std::to_string(manifest_.shard_id) + " of " +
        std::to_string(manifest_.shard_count) + ", row_offset " +
        std::to_string(manifest_.row_offset) + ")");
  }
  if (manifest_.kind == IndexKind::kHnsw && !hnsw_.ValidateGraph()) {
    return Status::Internal("snapshot validation: HNSW graph invariants"
                            " violated");
  }
  const bool want_i8 = manifest_.storage == StorageKind::kInt8;
  if (want_i8 && manifest_.kind != IndexKind::kExact) {
    return Status::Internal("snapshot validation: int8 storage on a "
                            "non-exact index");
  }
  if (manifest_.kind == IndexKind::kExact && exact_.quantized() != want_i8) {
    return Status::Internal(
        std::string("snapshot validation: manifest claims ") +
        StorageKindName(manifest_.storage) + " storage but the index " +
        (exact_.quantized() ? "has" : "lacks") + " a quantized tier");
  }
  return Status::Ok();
}

std::vector<std::vector<index::Neighbor>> Snapshot::QueryBatch(
    const la::Matrix& queries, size_t k) const {
  switch (manifest_.kind) {
    case IndexKind::kHnsw:
      return hnsw_.QueryBatch(queries, k);
    case IndexKind::kLsh:
      return lsh_.QueryBatch(queries, k);
    case IndexKind::kExact:
      break;
  }
  return exact_.QueryBatch(queries, k);
}

std::vector<std::vector<index::Neighbor>> Snapshot::FallbackQueryBatch(
    const la::Matrix& queries, size_t k) const {
  return index::BruteForceTopK(data(), queries, k);
}

}  // namespace ember::serve
