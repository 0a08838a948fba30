#ifndef EMBER_SERVE_SNAPSHOT_H_
#define EMBER_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/retry.h"
#include "common/status.h"
#include "index/exact_index.h"
#include "index/hnsw_index.h"
#include "index/lsh_index.h"
#include "index/neighbor.h"
#include "la/matrix.h"

namespace ember::serve {

/// Which NNS index a snapshot carries (Section 4.2's blocking back ends).
enum class IndexKind : uint32_t { kExact = 0, kHnsw = 1, kLsh = 2 };

const char* IndexKindName(IndexKind kind);
Result<IndexKind> IndexKindFromString(const std::string& text);

/// How the corpus vectors are stored for scanning. kInt8 keeps the float
/// rows too (rescoring needs them), but the scan tier reads only the 4x
/// smaller int8 codes — under mmap the float pages are simply never
/// touched until a rescore asks for them.
enum class StorageKind : uint32_t { kFloat32 = 0, kInt8 = 1 };

const char* StorageKindName(StorageKind kind);
Result<StorageKind> StorageKindFromString(const std::string& text);

/// Knobs for LoadFrom. The default is maximally paranoid.
struct LoadOptions {
  /// Verify the full-payload FNV-1a checksum on open (fail-closed against
  /// bit flips). Turning it off skips the only O(file-size) pass in the
  /// load path — that is the O(1) cold-start mode for files this process
  /// just wrote or already verified. Header checksum, file-length and
  /// section bounds checks always run regardless.
  bool verify_checksum = true;
};

/// Provenance and defaults bundled with the serialized index. The engine
/// refuses to serve a snapshot with a model/dim that does not match its
/// query-side embedding model, so a stale snapshot fails loudly at startup
/// instead of silently returning garbage neighbors.
struct SnapshotManifest {
  std::string model_code;  // embedding model that produced the vectors
  uint32_t dim = 0;        // embedding dimensionality
  uint32_t default_k = 10; // per-query neighbor count the service defaults to
  IndexKind kind = IndexKind::kExact;
  uint64_t rows = 0;       // corpus size
  std::string dataset;     // free-form provenance tag (e.g. "D2@0.25")
  /// Scan-tier storage. Only kExact snapshots can carry kInt8.
  StorageKind storage = StorageKind::kFloat32;
  /// Shard plan (DESIGN.md §13). An unsharded snapshot is the degenerate
  /// 1-shard plan (shard_id 0, shard_count 1, row_offset 0). Shard s of N
  /// under the round-robin partitioner (core/sharding.h) holds the global
  /// rows {s, s+N, s+2N, ...}, so row_offset == shard_id and a local row j
  /// maps back to global id `row_offset + j * shard_count`. The Router
  /// refuses shard sets whose manifests disagree on the plan.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  uint64_t row_offset = 0;
  /// Mutation-log position this snapshot covers (DESIGN.md §15): the group
  /// sequence number of the last mutation folded in. A compacted snapshot
  /// shipped for replica resync carries it so the receiver knows exactly
  /// where log replay must resume; 0 for bases built offline.
  uint64_t mutation_seq = 0;
};

/// A built blocking pipeline frozen into one loadable unit: the manifest
/// plus exactly one index, which owns (or, when mmap'ed, views) the corpus
/// embedding matrix. The on-disk container is the checksummed,
/// section-aligned "EMBS0002" layout that LoadFrom maps read-only and
/// serves in place — no copy, lazy page-in, and N processes share one
/// physical copy of the corpus. It is written atomically; LoadFrom fails
/// closed on a wrong magic, truncation or bit flips, and a loaded snapshot
/// answers QueryBatch bit-identically to the freshly built pipeline it was
/// saved from (for float storage; int8 storage rescores to recall@10 >=
/// 0.99 of the float oracle).
class Snapshot {
 public:
  Snapshot() = default;

  /// Builds the index named by `manifest.kind` over `corpus` (pass the
  /// matrix by value and move it in to avoid doubling peak memory).
  /// `manifest.rows` and `manifest.dim` are overwritten from the corpus.
  static Snapshot Build(SnapshotManifest manifest, la::Matrix corpus,
                        const index::HnswOptions& hnsw_options = {},
                        const index::LshOptions& lsh_options = {});

  /// Builds the int8 scan tier (kExact snapshots only) and flips the
  /// manifest to StorageKind::kInt8; SaveTo then persists both tiers.
  Status Quantize();

  /// Writes the EMBS0002 container. SaveTo and LoadFrom are defined in
  /// snapshot_v2.cc, next to the layout they share.
  Status SaveTo(const std::string& path) const;

  /// Maps an EMBS0002 file read-only and serves it in place. Any other
  /// file — too short, or with another magic — is refused with a non-ok
  /// Status.
  static Result<Snapshot> LoadFrom(const std::string& path,
                                   const LoadOptions& options = {});

  /// LoadFrom under a retry policy, always with the paranoid LoadOptions
  /// default: the swap boundaries that use it (hot reload, compaction
  /// commit) must never trust bytes about to replace a serving corpus
  /// (DESIGN.md §14). Transient load failures (I/O blips, injected faults)
  /// back off and retry; corrupt-payload failures are still surfaced after
  /// the attempt budget. `retries`, when non-null, receives the number of
  /// retries actually taken.
  static Result<Snapshot> LoadWithRetry(const std::string& path,
                                        const RetryPolicy& policy,
                                        uint64_t* retries = nullptr);

  /// Wraps an online-built HNSW graph (Thaw + AddBatch) as a serving
  /// snapshot — the delta-absorption publish path of the streaming tier.
  /// rows/dim are overwritten from the index; fails closed when the graph
  /// invariants do not hold.
  static Result<Snapshot> AdoptHnsw(SnapshotManifest manifest,
                                    index::HnswIndex hnsw);

  /// kHnsw only: a deep, mutable (thawed) copy of the graph, safe to
  /// AddBatch into while this snapshot keeps serving the frozen original.
  Result<index::HnswIndex> ThawedHnsw() const;

  const SnapshotManifest& manifest() const { return manifest_; }
  size_t size() const { return manifest_.rows; }

  /// Build parameters of the carried HNSW graph (meaningful for kHnsw
  /// snapshots; compaction reuses them when rebuilding a merged base).
  const index::HnswOptions& hnsw_options() const { return hnsw_.options(); }

  /// Build parameters of the carried LSH tables (meaningful for kLsh
  /// snapshots). The hyperplanes are derived deterministically from the
  /// seed, so rebuilding with these options reproduces the index exactly —
  /// what lets compaction and resync rebuild LSH bases faithfully.
  const index::LshOptions& lsh_options() const { return lsh_.options(); }

  /// Wall-clock cost of the last LoadFrom that produced this snapshot
  /// (microseconds), and the bytes mmap'ed by it (0 for snapshots built in
  /// memory). Exported by the engine as
  /// ember_serve_snapshot_load_micros / ember_serve_snapshot_bytes_mapped.
  uint64_t load_micros() const { return load_micros_; }
  uint64_t bytes_mapped() const { return bytes_mapped_; }

  /// The corpus matrix owned by whichever index is active (the degraded
  /// serving path brute-force scans it directly).
  const la::Matrix& data() const;

  /// Re-validates the loaded snapshot: manifest vs index row/dim agreement
  /// plus the HNSW graph invariants (entry point and link targets in
  /// bounds). LoadFrom enforces all of this already; the serving engine runs
  /// it again before trusting a hot-reloaded snapshot, and the
  /// "snapshot/validate" failpoint injects failures here.
  Status Validate() const;

  /// Top-k against whichever index the snapshot carries. Thread-safe.
  std::vector<std::vector<index::Neighbor>> QueryBatch(
      const la::Matrix& queries, size_t k) const;

  /// Degraded-mode top-k: an exact brute-force scan over data(), bypassing
  /// the index structure entirely — the answer of last resort when the
  /// primary index is suspect. For kExact snapshots this is bit-identical
  /// to QueryBatch; for kHnsw/kLsh it returns the true exact neighbors
  /// (a recall upgrade at a latency cost). Thread-safe.
  std::vector<std::vector<index::Neighbor>> FallbackQueryBatch(
      const la::Matrix& queries, size_t k) const;

 private:
  SnapshotManifest manifest_;
  // Exactly one is populated, per manifest_.kind.
  index::ExactIndex exact_;
  index::HnswIndex hnsw_;
  index::LshIndex lsh_;
  /// Backing mapping when loaded from disk: the indexes hold raw views
  /// into it, so it is shared (Snapshot stays copyable; the last copy
  /// munmaps). Null for snapshots built in memory.
  std::shared_ptr<MmapFile> mapping_;
  uint64_t load_micros_ = 0;
  uint64_t bytes_mapped_ = 0;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_SNAPSHOT_H_
