#ifndef EMBER_SERVE_ENGINE_H_
#define EMBER_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/timer.h"
#include "embed/embedding_model.h"
#include "index/neighbor.h"
#include "recover/digest.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/circuit_breaker.h"
#include "serve/snapshot.h"
#include "stream/live_corpus.h"

namespace ember::serve {

/// Coarse engine health, surfaced in EngineMetrics (DESIGN.md §10):
///   kServing  — normal operation
///   kDegraded — last batch answered by the exact-scan fallback
///   kTripped  — circuit breaker open; Submits are short-circuited
///   kLoading  — a hot snapshot reload is validating/warming
enum class Health : uint32_t {
  kServing = 0,
  kDegraded = 1,
  kTripped = 2,
  kLoading = 3,
};

const char* HealthName(Health health);

struct EngineOptions {
  /// Per-query neighbor count; 0 uses the snapshot manifest's default_k.
  size_t k = 0;
  /// Bounded queue capacity. A full queue REJECTS new submissions
  /// immediately (backpressure) — Submit never blocks the caller.
  size_t max_queue = 1024;
  /// Batching policy: a worker drains as soon as `max_batch` requests are
  /// queued, or when the oldest queued request has waited `max_wait_micros`,
  /// whichever comes first. Larger windows amortize the embed/query batch
  /// cost; smaller windows cut tail latency at low load.
  size_t max_batch = 32;
  int64_t max_wait_micros = 2000;
  /// Batcher threads. Each drains whole batches, so >1 mainly helps when
  /// embedding and index search can overlap on spare cores.
  size_t workers = 1;
  /// Bounded attempts around the embed stage: transient failures back off
  /// (deterministic seeded jitter) and retry before the batch is failed.
  RetryPolicy embed_retry;
  /// Circuit breaker over batch outcomes: after `trip_ratio` of the recent
  /// window fails, Submit answers kUnavailable in O(1) instead of queueing
  /// doomed work behind a failing stage.
  BreakerOptions breaker;
  /// Degraded mode: when the primary index query stage fails, answer from
  /// an exact brute-force scan of the snapshot's corpus matrix instead of
  /// failing the batch. OFF fails the batch with the stage error.
  bool allow_degraded = true;
  /// Live corpus mode (DESIGN.md §14): wrap the snapshot in a
  /// stream::LiveCorpus so Upsert/Delete are accepted through the batcher
  /// and queries merge base + delta with tombstone filtering. OFF keeps the
  /// frozen-snapshot engine bit-for-bit unchanged.
  bool live = false;
  /// Queue drain order (DESIGN.md §16). kEdf drains the most urgent queued
  /// request first; deadline-free and equal-deadline requests keep arrival
  /// order, so a workload without deadlines behaves exactly like kFifo.
  QueuePolicy queue_policy = QueuePolicy::kEdf;
  /// Per-tenant admission quotas. Empty (the default) disables the token
  /// bucket gate entirely; tenants without a listed quota are never
  /// throttled.
  std::vector<TenantQuota> quotas;
};

/// A completed query: top-k corpus neighbors of the submitted record, from
/// an Engine or a Router. `partial` is set only by a Router, when at least
/// one shard group contributed nothing (every replica down) and the router
/// was configured to degrade rather than fail.
struct QueryReply {
  std::vector<index::Neighbor> neighbors;
  bool partial = false;
};

/// A completed mutation: the global id the row was admitted (or deleted)
/// under.
struct MutateReply {
  uint64_t id = 0;
};

/// Donor-side coordinates of a compaction, handed to a resyncing replica
/// alongside the snapshot file (DESIGN.md §15): the ascending id map of the
/// compacted rows, the donor's id counter (so replayed upserts reproduce
/// its id assignments), and the donor-local mutation sequence the snapshot
/// covers. In-process hand-off today; a networked resync would ship this as
/// a sidecar next to the snapshot.
struct ResyncState {
  std::vector<uint64_t> ids;
  uint64_t next_id = 0;
  uint64_t upto_seq = 0;
};

/// The batcher's counters (BatcherMetrics: the counter identity, rejected,
/// throttled, queue/total/batch-size histograms, per-tenant rows) plus the
/// engine's stage counters and histograms, readable at any time. Retries,
/// fallbacks, trips and short circuits are rate counters outside the
/// identity (a short-circuited submit never enters the queue).
struct EngineMetrics : BatcherMetrics {
  // Resilience counters (PR 4).
  Health health = Health::kServing;
  uint64_t retries = 0;          // embed attempts beyond each batch's first
  uint64_t fallbacks = 0;        // requests answered by the degraded scan
  uint64_t breaker_trips = 0;    // closed/half-open -> open transitions
  uint64_t short_circuits = 0;   // Submits refused fast while tripped
  uint64_t reloads = 0;          // successful hot snapshot swaps
  uint64_t reload_failures = 0;  // rejected reloads (old snapshot kept)

  // Streaming counters (PR 8). Upserts/deletes participate in the counter
  // identity above exactly like queries (submitted -> completed/expired/
  // failed); mutation_failures additionally breaks out the failed ones.
  uint64_t upserts = 0;              // mutations applied to the delta tier
  uint64_t deletes = 0;              // tombstones published
  uint64_t mutation_failures = 0;    // upserts/deletes refused fail-closed
  uint64_t compactions = 0;          // base rewrites hot-swapped in
  uint64_t compaction_failures = 0;  // compactions rolled back
  uint64_t absorbs = 0;              // HNSW delta absorptions published

  HistogramSnapshot embed_micros;  // per batch: vectorization
  HistogramSnapshot query_micros;  // per batch: index search
  HistogramSnapshot mutate_micros;  // per batch: delta/tombstone application
  HistogramSnapshot postprocess_micros;  // per batch: reply assembly/futures
};

/// Long-lived online ER query engine in the inference-server style:
/// producers Submit() single records with optional deadlines into its
/// serve::Batcher; each drained batch is vectorized through the model's
/// parallel VectorizeAll, answered by one QueryBatch against the snapshot,
/// and its futures completed.
///
/// Resilience (DESIGN.md §10): the embed stage retries under
/// options.embed_retry; a circuit breaker trips on persistent batch
/// failures and short-circuits Submits; a failing primary index degrades to
/// the exact-scan fallback; and ReloadSnapshot swaps a validated + warmed
/// replacement under an RCU-style shared_ptr without dropping in-flight
/// queries.
///
/// Determinism caveat (DESIGN.md §9): batch composition varies under load,
/// but per-request results never do — each embedding row depends only on
/// its own record and each query only on the frozen index, so a record
/// returns the same neighbors whether it shared a batch or rode alone.
class Engine {
 public:
  /// Takes ownership of the snapshot and shares the query-side model
  /// (Initialize() is forced here, before any worker can race it). Fails
  /// with InvalidArgument when the model's code/dim disagree with the
  /// snapshot manifest. Workers start immediately on success.
  static Result<std::unique_ptr<Engine>> Create(
      Snapshot snapshot, std::shared_ptr<embed::EmbeddingModel> model,
      const EngineOptions& options);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Non-blocking submit of one record. On acceptance returns the future
  /// that will carry the top-k neighbors (or DeadlineExceeded if shed).
  /// Admission (DESIGN.md §9): the tenant's token bucket first (over quota:
  /// Unavailable, counted throttled), then the circuit breaker, then the
  /// queue bound — a refused submit returns Unavailable immediately;
  /// backpressure and fail-fast are reported, never dropped. A bare
  /// SteadyTime converts to SubmitOptions, so `Submit(record, deadline)` is
  /// the untenanted form.
  Result<std::future<Result<QueryReply>>> Submit(
      std::string record, const SubmitOptions& opts = {});

  /// Non-blocking submit of one already-embedded query vector — the sharded
  /// Router's fan-out path (DESIGN.md §13): the router embeds a record once
  /// and each shard engine skips its embed stage for that request. Same
  /// admission rules and reply semantics as Submit; fails with
  /// InvalidArgument when the vector's dimensionality does not match the
  /// engine's model.
  Result<std::future<Result<QueryReply>>> SubmitEmbedded(
      std::vector<float> embedding, const SubmitOptions& opts = {});

  /// Live mode only: admits one record into the live corpus through the
  /// same micro-batcher as queries (embedded in the batch's embed stage,
  /// applied in arrival order before the batch's queries run). The future
  /// carries the global id the row was admitted under. Same admission rules
  /// as Submit; InvalidArgument when the engine is not live.
  Result<std::future<Result<MutateReply>>> Upsert(
      std::string record, const SubmitOptions& opts = {});

  /// Pre-embedded upsert (the Router's mutation fan-out path).
  Result<std::future<Result<MutateReply>>> UpsertEmbedded(
      std::vector<float> embedding, const SubmitOptions& opts = {});

  /// Live mode only: publishes a tombstone for `global_id` through the
  /// batcher. NotFound (via the future) when the id is unknown or already
  /// dead.
  Result<std::future<Result<MutateReply>>> Delete(
      uint64_t global_id, const SubmitOptions& opts = {});

  /// Live mode only: rewrites base + delta − tombstones into a merged
  /// EMBS0002 snapshot at `path` and hot-swaps it in as the new base via
  /// the same validate+warm pipeline as ReloadSnapshot. Serving continues
  /// throughout; on ANY failure (write, validation, install race) the old
  /// base + delta keep serving, the partial file is removed, and the error
  /// is returned. Serialized with other compactions and absorbs. When
  /// `resync` is non-null it receives the plan coordinates a sibling
  /// replica needs to adopt the written snapshot via ResyncFrom (the
  /// recovery donor path, DESIGN.md §15).
  Status Compact(const std::string& path, ResyncState* resync = nullptr);

  /// Live mode only: wholesale state adoption from a sibling's compacted
  /// snapshot — the recovery resync path (DESIGN.md §15). Loads `path`
  /// through the exact same trust pipeline as a hot reload (checksums,
  /// model compat, Validate, warm probe), then replaces base + delta +
  /// tombstones with the donor's state via LiveCorpus::AdoptBase. On ANY
  /// failure the current tiers keep serving and the error is returned.
  Status ResyncFrom(const std::string& path, std::vector<uint64_t> ids,
                    uint64_t next_id);

  /// Order-independent corpus digest for anti-entropy comparison across
  /// replicas (DESIGN.md §15). Live engines answer in O(1) from the
  /// incrementally maintained fold; frozen engines compute once per served
  /// snapshot and cache it. The fail-closed `recover/digest` failpoint
  /// fires first, so an injected fault yields an error — never a wrong
  /// digest.
  Result<recover::CorpusDigest> Digest() const;

  /// Live mode, HNSW bases only: folds the delta tier into a copy of the
  /// base graph via online insert (RCU copy-on-write publish) without
  /// touching disk. Tombstones remain as an overlay until a full Compact.
  Status AbsorbDelta();

  /// Live-corpus shape (all-zero when the engine is not live).
  stream::LiveStats LiveStats() const;

  bool live() const { return live_ != nullptr; }

  /// Hot snapshot reload: loads `path` (retrying transient failures under
  /// `policy`), validates it against the manifest, the engine's model, and
  /// the index invariants, warms it with a probe query, then swaps it in
  /// atomically. In-flight and concurrent batches keep the snapshot they
  /// already hold (shared_ptr pin), so no query ever observes a torn swap.
  /// On ANY failure the old snapshot keeps serving and the error is
  /// returned — a corrupt replacement costs nothing but the attempt.
  /// Serialized: concurrent reloads run one at a time. Safe under load.
  Status ReloadSnapshot(const std::string& path,
                        const RetryPolicy& policy = {});

  /// Coarse health: kLoading while a reload is validating, kTripped while
  /// the breaker is open, kDegraded while the fallback is answering,
  /// kServing otherwise.
  Health health() const;

  /// Stops accepting new work, drains every queued request (expired ones
  /// are shed, the rest are answered), and joins the workers. Idempotent;
  /// also run by the destructor.
  void Stop();

  /// Point-in-time metrics (concurrent-safe; counters are monotone).
  EngineMetrics Metrics() const;

  /// The `engine=` label value this instance exports under in the global
  /// obs::Registry (engines self-register a metrics collector on Create
  /// and unregister on Stop).
  const std::string& instance() const { return instance_; }

  /// The currently served snapshot, pinned: a reload may swap the engine
  /// past it, but the returned pointer stays valid for as long as the
  /// caller holds it.
  std::shared_ptr<const Snapshot> snapshot() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct Request : QueuedRequest {
    enum class Kind : uint8_t { kQuery = 0, kUpsert = 1, kDelete = 2 };
    Kind kind = Kind::kQuery;
    std::string record;
    /// Populated instead of `record` on the SubmitEmbedded path.
    std::vector<float> embedding;
    bool pre_embedded = false;
    /// kDelete only: the global id to tombstone.
    uint64_t delete_id = 0;
    /// Exactly one promise is armed, per kind.
    std::promise<Result<QueryReply>> promise;
    std::promise<Result<MutateReply>> mutate_promise;

    /// Fails the request through whichever promise its kind armed.
    void Fail(const Status& status) {
      if (kind == Kind::kQuery) {
        promise.set_value(status);
      } else {
        mutate_promise.set_value(status);
      }
    }
  };

  Engine(Snapshot snapshot, std::shared_ptr<embed::EmbeddingModel> model,
         const EngineOptions& options);

  /// The batch stage: embed, mutate, query, complete.
  void ProcessBatch(std::vector<Request>& live, const BatchInfo& batch);
  /// Common admission of every submit path: stamps the deadline and
  /// tenant, then the token bucket (at opts.admit_time), the breaker gate,
  /// and the queue.
  Status Enqueue(Request request, const SubmitOptions& opts);
  /// Mutation-path admission: arms the mutate promise, refuses when the
  /// engine is not live, then shares Enqueue.
  Result<std::future<Result<MutateReply>>> EnqueueMutation(
      Request request, const SubmitOptions& opts);
  /// Validates a snapshot against the engine's embedding model (same checks
  /// as Create) — shared by Create and ReloadSnapshot.
  static Status CheckModelCompatible(const SnapshotManifest& manifest,
                                     const embed::EmbeddingModel& model);
  /// The shared trust pipeline in front of every base swap: load under the
  /// retry policy (ALWAYS with the paranoid LoadOptions default — bytes
  /// about to serve are never trusted), check model compatibility, run
  /// Validate(), then warm-probe the index. Used by ReloadSnapshot and the
  /// compaction commit, so a compacted base clears the exact same bar as a
  /// hot reload.
  Result<std::shared_ptr<const Snapshot>> LoadValidated(
      const std::string& path, const RetryPolicy& policy);

  std::shared_ptr<const Snapshot> snapshot_;  // swapped by ReloadSnapshot
  mutable std::mutex snapshot_mu_;            // guards snapshot_ and k_
  /// Non-null iff options.live: the mutable overlay every batch reads and
  /// writes through. The base inside it is what snapshot() returns.
  std::shared_ptr<stream::LiveCorpus> live_;
  std::shared_ptr<embed::EmbeddingModel> model_;
  EngineOptions options_;
  std::atomic<size_t> k_{10};

  std::string instance_;  // registry label, "0", "1", ... per process
  uint64_t collector_id_ = 0;
  std::atomic<bool> collector_registered_{false};

  CircuitBreaker breaker_;
  std::mutex reload_mu_;  // serializes ReloadSnapshot callers
  std::mutex compaction_mu_;  // serializes Compact/Absorb/Resync callers
  /// Frozen-engine digest cache (live engines answer from the corpus).
  mutable std::mutex digest_mu_;
  mutable std::shared_ptr<const Snapshot> digest_snapshot_;
  mutable recover::CorpusDigest digest_cache_;
  std::atomic<bool> reloading_{false};
  std::atomic<bool> degraded_{false};

  // Stage counters are atomics: Metrics() must stay cheap enough to call
  // from a live load generator.
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> fallbacks_{0};
  std::atomic<uint64_t> short_circuits_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> reload_failures_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> mutation_failures_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compaction_failures_{0};
  std::atomic<uint64_t> absorbs_{0};
  LatencyHistogram embed_micros_;
  LatencyHistogram query_micros_;
  LatencyHistogram mutate_micros_;
  LatencyHistogram postprocess_micros_;
  Batcher<Request> batcher_;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_ENGINE_H_
