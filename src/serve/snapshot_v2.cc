/// The EMBS0002 snapshot container: every matrix payload and the HNSW
/// adjacency stored as 64-byte-aligned sections with explicit offsets, so
/// LoadFrom can mmap the file and serve straight out of the mapping — no
/// deserialization, no heap copy, lazy page-in, and N processes share one
/// physical copy of the corpus through the page cache.
///
///   offset 0   magic "EMBS0002"                                (8 bytes)
///   offset 8   header                                          (56 bytes)
///                u32 version (= 2)
///                u32 section_count
///                u64 file_length
///                u64 manifest_offset, u64 manifest_length
///                u64 table_offset
///                u64 payload_checksum   FNV-1a over [64, file_length)
///                u64 header_checksum    FNV-1a over [0, 56)
///   ...        manifest blob (manifest v3 fields + storage u32)
///   ...        section table: section_count x {u64 id, offset, length}
///   ...        section payloads, each 64-byte-aligned, zero-padded between
///
/// Fail-closed validation order on load: magic (any other file is
/// refused), header checksum (covers every field the rest of the parse
/// trusts), version, file_length == mapped size (truncation), payload
/// checksum (bit flips; skippable via LoadOptions for the O(1) trusted
/// path), then per-section alignment and bounds before any pointer is
/// formed, then per-kind structural checks (AttachFlat / LoadAux / shape
/// cross-checks) before the snapshot serves.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/mmap_file.h"
#include "common/status.h"
#include "la/matrix.h"
#include "la/quantize.h"
#include "serve/snapshot.h"

namespace ember::serve {

namespace {

constexpr char kMagicV2[8] = {'E', 'M', 'B', 'S', '0', '0', '0', '2'};
constexpr uint32_t kFormatVersionV2 = 2;
// v2 added the shard-plan fields (shard_id/shard_count/row_offset); v3
// added the mutation-log position (mutation_seq). The reader is strict:
// older files fail closed instead of silently loading with guessed fields —
// rebuild the snapshot (they are derived artifacts).
constexpr uint32_t kManifestVersion = 3;
constexpr size_t kHeaderBytes = 64;     // magic + HeaderV2
constexpr size_t kAlign = la::kMatrixAlign;
/// Generous ceiling (a snapshot uses at most 7 sections today); anything
/// larger is corruption, and bounding it keeps the table parse O(1).
constexpr uint32_t kMaxSections = 64;

// Section ids. Gaps between groups leave room for future per-kind
// sections without renumbering.
constexpr uint64_t kSecCorpusF32 = 1;     // rows x dim f32, row-major
constexpr uint64_t kSecCorpusI8 = 2;      // rows x dim int8 codes
constexpr uint64_t kSecQuantParams = 3;   // rows x la::QuantParams
constexpr uint64_t kSecHnswMeta = 10;     // options + entry + max_level blob
constexpr uint64_t kSecHnswLevels = 11;   // u32 per node
constexpr uint64_t kSecHnswEntryBase = 12;  // u64 x (rows + 1), prefix sum
constexpr uint64_t kSecHnswStarts = 13;   // u64 x (entry_base[rows] + 1)
constexpr uint64_t kSecHnswAdj = 14;      // u32 flat adjacency
constexpr uint64_t kSecLshPlanes = 20;    // (tables * bits) x dim f32
constexpr uint64_t kSecLshAux = 21;       // options + buckets blob (SaveAux)

struct HeaderV2 {
  uint32_t version = kFormatVersionV2;
  uint32_t section_count = 0;
  uint64_t file_length = 0;
  uint64_t manifest_offset = 0;
  uint64_t manifest_length = 0;
  uint64_t table_offset = 0;
  uint64_t payload_checksum = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(HeaderV2) == kHeaderBytes - 8,
              "magic + header must be exactly 64 bytes");

struct SectionEntry {
  uint64_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};
static_assert(sizeof(SectionEntry) == 24, "SectionEntry is an on-disk POD");

constexpr size_t Align64(size_t offset) {
  return (offset + kAlign - 1) & ~(kAlign - 1);
}

/// The manifest blob: versioned fields, then the storage kind u32.
void WriteManifest(BinaryWriter& writer, const SnapshotManifest& manifest) {
  writer.WriteU32(kManifestVersion);
  writer.WriteString(manifest.model_code);
  writer.WriteU32(manifest.dim);
  writer.WriteU32(manifest.default_k);
  writer.WriteU32(static_cast<uint32_t>(manifest.kind));
  writer.WriteU64(manifest.rows);
  writer.WriteString(manifest.dataset);
  writer.WriteU32(manifest.shard_id);
  writer.WriteU32(manifest.shard_count);
  writer.WriteU64(manifest.row_offset);
  writer.WriteU64(manifest.mutation_seq);
  writer.WriteU32(static_cast<uint32_t>(manifest.storage));
}

/// Counterpart of WriteManifest; requires the blob fully consumed.
bool ReadManifest(BinaryReader& reader, SnapshotManifest& manifest) {
  if (reader.ReadU32() != kManifestVersion) return false;
  manifest.model_code = reader.ReadString();
  manifest.dim = reader.ReadU32();
  manifest.default_k = reader.ReadU32();
  const uint32_t kind = reader.ReadU32();
  manifest.rows = reader.ReadU64();
  manifest.dataset = reader.ReadString();
  manifest.shard_id = reader.ReadU32();
  manifest.shard_count = reader.ReadU32();
  manifest.row_offset = reader.ReadU64();
  manifest.mutation_seq = reader.ReadU64();
  const uint32_t storage = reader.ReadU32();
  if (!reader.ok() || reader.remaining() != 0 ||
      kind > static_cast<uint32_t>(IndexKind::kLsh) ||
      storage > static_cast<uint32_t>(StorageKind::kInt8)) {
    return false;
  }
  // Shard-plan coherence is part of the format: only the round-robin plan
  // exists, under which row_offset is exactly the shard id.
  if (manifest.shard_count == 0 ||
      manifest.shard_id >= manifest.shard_count ||
      manifest.row_offset != manifest.shard_id) {
    return false;
  }
  manifest.kind = static_cast<IndexKind>(kind);
  manifest.storage = static_cast<StorageKind>(storage);
  return true;
}

}  // namespace

Status Snapshot::SaveTo(const std::string& path) const {
  EMBER_FAILPOINT("snapshot/save");
  // 1. Gather payloads. Pointer/length pairs reference storage that stays
  // alive until the image is assembled (index internals, or the local
  // blobs/flat holders below).
  struct Section {
    uint64_t id = 0;
    const void* data = nullptr;
    uint64_t length = 0;
  };
  std::vector<Section> sections;

  std::string manifest_blob;
  {
    BinaryWriter writer;
    WriteManifest(writer, manifest_);
    manifest_blob = writer.buffer();
  }

  const la::Matrix& corpus = data();
  sections.push_back({kSecCorpusF32, corpus.data(),
                      corpus.rows() * corpus.cols() * sizeof(float)});

  index::HnswIndex::FlatGraph flat;
  std::string hnsw_meta, lsh_aux;
  switch (manifest_.kind) {
    case IndexKind::kExact:
      if (manifest_.storage == StorageKind::kInt8) {
        if (!exact_.quantized()) {
          return Status::Internal(
              "int8 manifest with no quantized tier; call Quantize() first");
        }
        const la::QuantizedMatrix& q = exact_.quantized_matrix();
        sections.push_back({kSecCorpusI8, q.codes(), q.rows() * q.cols()});
        sections.push_back(
            {kSecQuantParams, q.params(), q.rows() * sizeof(la::QuantParams)});
      }
      break;
    case IndexKind::kHnsw: {
      BinaryWriter writer;
      writer.WriteU64(hnsw_.options().m);
      writer.WriteU64(hnsw_.options().ef_construction);
      writer.WriteU64(hnsw_.options().ef_search);
      writer.WriteU64(hnsw_.options().seed);
      writer.WriteU32(hnsw_.entry());
      writer.WriteU64(hnsw_.max_level());
      hnsw_meta = writer.buffer();
      flat = hnsw_.Flatten();
      sections.push_back({kSecHnswMeta, hnsw_meta.data(), hnsw_meta.size()});
      sections.push_back({kSecHnswLevels, flat.levels.data(),
                          flat.levels.size() * sizeof(uint32_t)});
      sections.push_back({kSecHnswEntryBase, flat.entry_base.data(),
                          flat.entry_base.size() * sizeof(uint64_t)});
      sections.push_back({kSecHnswStarts, flat.starts.data(),
                          flat.starts.size() * sizeof(uint64_t)});
      sections.push_back({kSecHnswAdj, flat.adj.data(),
                          flat.adj.size() * sizeof(uint32_t)});
      break;
    }
    case IndexKind::kLsh: {
      sections.push_back(
          {kSecLshPlanes, lsh_.planes().data(),
           lsh_.planes().rows() * lsh_.planes().cols() * sizeof(float)});
      BinaryWriter writer;
      lsh_.SaveAux(writer);
      lsh_aux = writer.buffer();
      sections.push_back({kSecLshAux, lsh_aux.data(), lsh_aux.size()});
      break;
    }
  }

  // 2. Lay out the file: header, manifest, section table, then payloads,
  // every payload at a 64-byte boundary.
  const uint64_t manifest_offset = kHeaderBytes;
  const uint64_t table_offset = Align64(manifest_offset + manifest_blob.size());
  std::vector<SectionEntry> table(sections.size());
  uint64_t cursor = Align64(table_offset + sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i] = {sections[i].id, cursor, sections[i].length};
    cursor = Align64(cursor + sections[i].length);
  }
  const uint64_t file_length = cursor;

  // 3. Assemble (padding stays zero) and patch the checksums last.
  std::string image(file_length, '\0');
  std::memcpy(image.data(), kMagicV2, sizeof(kMagicV2));
  if (!manifest_blob.empty()) {
    std::memcpy(image.data() + manifest_offset, manifest_blob.data(),
                manifest_blob.size());
  }
  if (!table.empty()) {
    std::memcpy(image.data() + table_offset, table.data(),
                table.size() * sizeof(SectionEntry));
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].length > 0) {
      std::memcpy(image.data() + table[i].offset, sections[i].data,
                  sections[i].length);
    }
  }
  HeaderV2 header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.file_length = file_length;
  header.manifest_offset = manifest_offset;
  header.manifest_length = manifest_blob.size();
  header.table_offset = table_offset;
  header.payload_checksum =
      Fnv1a64(image.data() + kHeaderBytes, file_length - kHeaderBytes);
  std::memcpy(image.data() + 8, &header, sizeof(header));
  header.header_checksum = Fnv1a64(image.data(), kHeaderBytes - 8);
  std::memcpy(image.data() + 8, &header, sizeof(header));

  return WriteBytesAtomic(path, image);
}

Result<Snapshot> Snapshot::LoadFrom(const std::string& path,
                                    const LoadOptions& options) {
  EMBER_FAILPOINT("snapshot/load");
  const auto start = std::chrono::steady_clock::now();
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  const char* base = file.value().data();
  const size_t size = file.value().size();
  const auto corrupt = [&path](const std::string& why) {
    return Status::IoError(path + ": " + why);
  };

  if (size < sizeof(kMagicV2) ||
      std::memcmp(base, kMagicV2, sizeof(kMagicV2)) != 0) {
    return corrupt(
        "bad magic: not an EMBS0002 snapshot (the EMBS0001 heap format is "
        "no longer read; rebuild the snapshot)");
  }
  // Header first: its own checksum covers every field the rest of the
  // parse trusts, so a flipped bit in an offset cannot redirect a read.
  if (size < kHeaderBytes) return corrupt("truncated header");
  HeaderV2 header;
  std::memcpy(&header, base + 8, sizeof(header));
  if (header.header_checksum != Fnv1a64(base, kHeaderBytes - 8)) {
    return corrupt("header checksum mismatch");
  }
  if (header.version != kFormatVersionV2) {
    return corrupt("unsupported EMBS0002 version");
  }
  if (header.file_length != size) {
    return corrupt("length mismatch (torn write?)");
  }
  if (options.verify_checksum &&
      header.payload_checksum !=
          Fnv1a64(base + kHeaderBytes, size - kHeaderBytes)) {
    return corrupt("checksum mismatch");
  }
  if (header.manifest_offset < kHeaderBytes ||
      header.manifest_offset > size ||
      header.manifest_length > size - header.manifest_offset) {
    return corrupt("manifest out of bounds");
  }
  if (header.section_count > kMaxSections ||
      header.table_offset < kHeaderBytes || header.table_offset > size ||
      header.section_count * sizeof(SectionEntry) >
          size - header.table_offset) {
    return corrupt("section table out of bounds");
  }

  Snapshot snapshot;
  {
    BinaryReader reader(std::string_view(base + header.manifest_offset,
                                         header.manifest_length));
    if (!ReadManifest(reader, snapshot.manifest_)) {
      return corrupt("corrupt snapshot manifest");
    }
  }
  const SnapshotManifest& manifest = snapshot.manifest_;
  if (manifest.storage == StorageKind::kInt8 &&
      manifest.kind != IndexKind::kExact) {
    return corrupt("int8 storage on a non-exact index");
  }
  const uint64_t rows = manifest.rows;
  const uint64_t dim = manifest.dim;
  if (rows > 0 && dim == 0) return corrupt("zero dim with nonzero rows");

  // Every section must be 64-byte-aligned and inside the file before a
  // single view pointer is formed.
  std::vector<SectionEntry> table(header.section_count);
  if (!table.empty()) {
    std::memcpy(table.data(), base + header.table_offset,
                table.size() * sizeof(SectionEntry));
  }
  for (const SectionEntry& entry : table) {
    if (entry.offset % kAlign != 0 || entry.offset < kHeaderBytes ||
        entry.offset > size || entry.length > size - entry.offset) {
      return corrupt("section out of bounds");
    }
    for (const SectionEntry& other : table) {
      if (&other != &entry && other.id == entry.id) {
        return corrupt("duplicate section id");
      }
    }
  }
  const auto find = [&table](uint64_t id) -> const SectionEntry* {
    for (const SectionEntry& entry : table) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  };
  /// Pointer to a section that must exist with exactly `length` bytes.
  const auto require = [&](uint64_t id, uint64_t length) -> const char* {
    const SectionEntry* entry = find(id);
    if (entry == nullptr || entry->length != length) return nullptr;
    return base + entry->offset;
  };

  if (dim != 0 && rows > UINT64_MAX / dim / sizeof(float)) {
    return corrupt("corpus shape overflow");
  }
  // `rows <= size / 4` from here on (the f32 section length check), so the
  // per-kind element-count arithmetic below cannot overflow u64.
  const uint64_t f32_len = rows * dim * sizeof(float);
  const char* f32 = require(kSecCorpusF32, f32_len);
  if (f32 == nullptr) return corrupt("missing or misshapen corpus section");
  // A fire models a corrupt index payload behind valid checksums.
  const Status index_fp = fail::Check("index/load");
  if (!index_fp.ok()) return index_fp;
  la::Matrix corpus = la::Matrix::View(
      reinterpret_cast<const float*>(f32), rows, dim);

  switch (manifest.kind) {
    case IndexKind::kExact: {
      snapshot.exact_.Build(std::move(corpus));
      if (manifest.storage == StorageKind::kInt8) {
        const char* codes = require(kSecCorpusI8, rows * dim);
        const char* params =
            require(kSecQuantParams, rows * sizeof(la::QuantParams));
        if (codes == nullptr || params == nullptr) {
          return corrupt("missing or misshapen quantized sections");
        }
        snapshot.exact_.AttachQuantized(la::QuantizedMatrix::View(
            reinterpret_cast<const int8_t*>(codes),
            reinterpret_cast<const la::QuantParams*>(params), rows, dim));
      }
      break;
    }
    case IndexKind::kHnsw: {
      const SectionEntry* meta = find(kSecHnswMeta);
      const char* levels = require(kSecHnswLevels, rows * sizeof(uint32_t));
      const char* entry_base =
          require(kSecHnswEntryBase, (rows + 1) * sizeof(uint64_t));
      const SectionEntry* starts = find(kSecHnswStarts);
      const SectionEntry* adj = find(kSecHnswAdj);
      if (meta == nullptr || levels == nullptr || entry_base == nullptr ||
          starts == nullptr || starts->length % sizeof(uint64_t) != 0 ||
          starts->length == 0 || adj == nullptr ||
          adj->length % sizeof(uint32_t) != 0) {
        return corrupt("missing or misshapen HNSW graph sections");
      }
      BinaryReader reader(
          std::string_view(base + meta->offset, meta->length));
      index::HnswOptions hnsw_options;
      hnsw_options.m = reader.ReadU64();
      hnsw_options.ef_construction = reader.ReadU64();
      hnsw_options.ef_search = reader.ReadU64();
      hnsw_options.seed = reader.ReadU64();
      const uint32_t entry = reader.ReadU32();
      const uint64_t max_level = reader.ReadU64();
      if (!reader.ok() || reader.remaining() != 0) {
        return corrupt("corrupt HNSW meta section");
      }
      if (!snapshot.hnsw_.AttachFlat(
              std::move(corpus), hnsw_options, entry, max_level,
              reinterpret_cast<const uint32_t*>(levels),
              reinterpret_cast<const uint64_t*>(entry_base),
              reinterpret_cast<const uint64_t*>(base + starts->offset),
              starts->length / sizeof(uint64_t),
              reinterpret_cast<const uint32_t*>(base + adj->offset),
              adj->length / sizeof(uint32_t))) {
        return corrupt("HNSW graph invariants violated");
      }
      break;
    }
    case IndexKind::kLsh: {
      const SectionEntry* planes = find(kSecLshPlanes);
      const SectionEntry* aux = find(kSecLshAux);
      if (planes == nullptr || aux == nullptr ||
          (dim == 0 ? planes->length != 0
                    : planes->length % (dim * sizeof(float)) != 0)) {
        return corrupt("missing or misshapen LSH sections");
      }
      const uint64_t plane_rows =
          dim == 0 ? 0 : planes->length / (dim * sizeof(float));
      la::Matrix plane_view = la::Matrix::View(
          reinterpret_cast<const float*>(base + planes->offset), plane_rows,
          dim);
      BinaryReader reader(std::string_view(base + aux->offset, aux->length));
      if (!snapshot.lsh_.LoadAux(reader, std::move(corpus),
                                 std::move(plane_view)) ||
          reader.remaining() != 0) {
        return corrupt("corrupt LSH aux section");
      }
      break;
    }
  }

  // The indexes now hold raw views into the mapping; pin it for the life
  // of every copy of this snapshot.
  snapshot.mapping_ = std::make_shared<MmapFile>(std::move(file.value()));
  snapshot.bytes_mapped_ = size;
  snapshot.load_micros_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return snapshot;
}

}  // namespace ember::serve
