#ifndef EMBER_SERVE_ROUTER_H_
#define EMBER_SERVE_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/timer.h"
#include "embed/embedding_model.h"
#include "index/neighbor.h"
#include "la/matrix.h"
#include "recover/mutation_log.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace ember::serve {

/// K-way merge of per-shard top-k lists, each already sorted by CloserThan
/// (ascending distance, ties by ascending id). Returns the global top-k.
/// Deterministic and exact: CloserThan is a total order once ids are
/// globally unique, and a round-robin shard set partitions the corpus, so
/// the merged list is bit-identical to the unsharded scan's — every
/// (id, distance) pair is computed by the same scalar-order dot product
/// regardless of which shard holds the row (DESIGN.md §13).
std::vector<index::Neighbor> MergeTopK(
    const std::vector<std::vector<index::Neighbor>>& per_shard, size_t k);

/// Builds N shard snapshots from one corpus under the round-robin plan:
/// shard s gets global rows {s, s+N, ...}, its manifest gains
/// shard_id=s/shard_count=N/row_offset=s, and rows/dim are overwritten from
/// its partition (storage/kind/index options apply per shard).
Result<std::vector<Snapshot>> BuildShardSnapshots(
    SnapshotManifest base, const la::Matrix& corpus, uint32_t shard_count,
    const index::HnswOptions& hnsw_options = {},
    const index::LshOptions& lsh_options = {});

/// Loads a shard set fail-closed: every file must load cleanly, declare the
/// same shard_count (== the number of paths), agree on the model
/// fingerprint (model_code + dim), index kind, storage and default_k, and
/// the shard_ids must cover 0..N-1 exactly once (duplicates refused).
/// Returns the snapshots sorted by shard_id.
Result<std::vector<Snapshot>> LoadShardSet(
    const std::vector<std::string>& paths, const LoadOptions& options = {});

struct RouterOptions {
  /// Per-query neighbor count; 0 uses the shard manifests' default_k.
  size_t k = 0;
  /// Router admission queue bound (same backpressure contract as Engine).
  size_t max_queue = 1024;
  /// Router-side batching window: one drained batch embeds once and fans
  /// out together.
  size_t max_batch = 32;
  int64_t max_wait_micros = 2000;
  /// Router batcher threads (each embeds + scatters + merges whole batches).
  size_t workers = 1;
  /// Retry policy around the router's embed-once stage.
  RetryPolicy embed_retry;
  /// When a whole shard group is down, complete requests from the surviving
  /// shards with QueryReply.partial=true instead of failing them. OFF
  /// fails such requests with Unavailable.
  bool allow_partial = true;
  /// Recovery worker cadence (DESIGN.md §15): every tick it quarantines
  /// tripped replicas, cross-checks replica digests (anti-entropy), and
  /// replays or resyncs quarantined replicas back to kActive. 0 disables
  /// the worker (replicas then stay quarantined until healed externally).
  int64_t recover_tick_micros = 10'000;
  /// Per-shard-group mutation log ring capacity. A replica that falls more
  /// than this many mutations behind can no longer catch up by replay and
  /// takes the snapshot-resync path instead.
  size_t log_capacity = 4096;
  /// Directory for resync snapshot hand-off files; empty uses the system
  /// temp directory.
  std::string recovery_dir;
  /// Queue drain order (DESIGN.md §16): kEdf drains the most urgent queued
  /// request first; deadline-free traffic behaves exactly like kFifo.
  QueuePolicy queue_policy = QueuePolicy::kEdf;
  /// Per-tenant admission quotas at the router's Submit; empty disables
  /// the token bucket gate.
  std::vector<TenantQuota> quotas;
};

/// Router-side replica lifecycle (DESIGN.md §15). Only kActive replicas
/// receive query or mutation traffic and count toward group liveness:
///   kActive      — in rotation, applying the mutation stream
///   kQuarantined — out of rotation, awaiting recovery (missed a mutation,
///                  failed the digest probe, tripped its breaker, or was
///                  readmitted after an admin kill)
///   kCatchingUp  — the recovery worker is replaying/resyncing it now
///   kKilled      — administratively down (KillReplica); recovery ignores
///                  it until RejoinReplica readmits it as kQuarantined
enum class ReplicaState : uint32_t {
  kActive = 0,
  kQuarantined = 1,
  kCatchingUp = 2,
  kKilled = 3,
};

const char* ReplicaStateName(ReplicaState state);

/// Former name of the router's reply, which is now QueryReply.
using RouterReply = QueryReply;

/// The batcher's counters (BatcherMetrics: the counter identity, rejected,
/// throttled, queue/total/batch-size histograms, per-tenant rows) plus the
/// router's fan-out, mutation and recovery counters, readable at any time.
/// `shard_micros[s][r]` observes per-replica round trips as seen from the
/// router's gather loop (fan-out start to that replica's future resolving).
struct RouterMetrics : BatcherMetrics {
  uint64_t retries = 0;          // embed attempts beyond each batch's first
  uint64_t partial = 0;          // replies completed with a missing shard
  uint64_t shards_degraded = 0;  // (request, shard group) pairs unanswered
  uint64_t sibling_retries = 0;  // replica fail-overs (submit or gather)
  uint64_t upserts = 0;              // rows admitted to an owning shard
  uint64_t deletes = 0;              // tombstones routed to an owning shard
  uint64_t mutation_failures = 0;    // mutations refused fail-closed
  uint64_t mutation_divergence = 0;  // replicas disagreed on a mutation

  // Recovery counters (PR 9, DESIGN.md §15).
  uint64_t quarantines = 0;         // replicas pulled from rotation
  uint64_t catchups = 0;            // replicas healed by log replay
  uint64_t resyncs = 0;             // replicas healed by snapshot resync
  uint64_t replayed_mutations = 0;  // log records re-applied during catch-up
  uint64_t digest_mismatches = 0;   // anti-entropy probes that found a liar

  HistogramSnapshot embed_micros;   // per batch: embed-once
  HistogramSnapshot fanout_micros;  // per batch: scatter submits
  HistogramSnapshot gather_micros;  // per batch: waiting on shard futures
  HistogramSnapshot merge_micros;   // per batch: k-way merges + completion
  std::vector<std::vector<HistogramSnapshot>> shard_micros;  // [shard][rep]
  /// Per-replica recovery gauges: the last group mutation seq each replica
  /// has applied, and its lifecycle state. [shard][replica].
  std::vector<std::vector<uint64_t>> last_applied_seq;
  std::vector<std::vector<ReplicaState>> replica_states;
};

/// Scatter-gather front end over sharded Engines (DESIGN.md §13): producers
/// Submit() records; a router worker drains a micro-batch, embeds it ONCE,
/// fans each embedding to one replica of every shard group via
/// Engine::SubmitEmbedded, gathers the per-shard top-k, remaps local ids to
/// global space and k-way heap-merges them with the CloserThan tie-break —
/// so exact shard sets answer bit-identically to one unsharded engine.
///
/// Replicas and health (the PR4 signals, per replica): each shard group
/// holds R interchangeable engines. The router rotates across them,
/// preferring replicas whose health() is not kTripped; a refused or failed
/// replica fails over to its siblings (sibling_retries). Every 16th pick
/// per group ignores health so an open breaker keeps receiving the probe
/// traffic its half-open recovery needs. Only when NO replica of a group
/// answers does the reply degrade: partial=true + shards_degraded, or an
/// Unavailable failure when allow_partial is off.
///
/// In-process today, ownership-clean for a process boundary later: the
/// router owns its engines, talks to them only through Submit*/health()/
/// Metrics(), and never touches their snapshots beyond the manifest.
class Router {
 public:
  /// Takes ownership of the engines (any order; replicas of shard s are the
  /// engines whose snapshot manifest has shard_id == s) and shares the
  /// embed-once model. Fails closed on an incoherent fleet: mismatched
  /// shard_count or model fingerprint, a shard group with no replicas,
  /// replicas disagreeing on rows/kind/storage, a model that does not match
  /// the manifests, or per-shard row counts that contradict the round-robin
  /// plan. Workers start immediately on success.
  static Result<std::unique_ptr<Router>> Create(
      std::vector<std::unique_ptr<Engine>> engines,
      std::shared_ptr<embed::EmbeddingModel> model,
      const RouterOptions& options);

  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Non-blocking submit of one record. Same admission as the Engine's,
  /// minus the breaker (DESIGN.md §9): the tenant's token bucket (over
  /// quota: Unavailable, counted throttled), then the queue bound
  /// (Unavailable on a full queue or stopped router, never blocking).
  Result<std::future<Result<QueryReply>>> Submit(
      std::string record, const SubmitOptions& opts = {});

  /// Routes one upsert to its owning shard group (round-robin mutation
  /// ticket) and applies it on EVERY replica of that group, serialized per
  /// group so all replicas assign the same local id. Returns the global id
  /// (shard + local * shard_count — the inverse of the query-path remap).
  /// Synchronous (blocks on the replica futures) and fail-closed: when no
  /// replica of the owning group accepts — the group is fully down — the
  /// mutation is refused with Unavailable and nothing was admitted
  /// anywhere. Requires live engines (EngineOptions.live).
  Result<uint64_t> Upsert(const std::string& record);

  /// Routes a delete to the shard that owns `global_id` under the
  /// round-robin plan (shard = id % N, local = id / N) and publishes the
  /// tombstone on every replica of that group. Same fail-closed contract as
  /// Upsert; NotFound when the id is unknown to the owning shard.
  Status Delete(uint64_t global_id);

  /// Administratively removes a replica from rotation (any state ->
  /// kKilled): it stops receiving queries and mutations and the recovery
  /// worker leaves it alone — the outage half of a kill/rejoin drill. A
  /// kill landing while the recovery worker has the replica mid-heal
  /// (kCatchingUp) sticks: every recovery transition is a CAS that treats
  /// the kill as an external claim and backs off.
  Status KillReplica(uint32_t shard, size_t replica);

  /// Readmits a killed replica as kQuarantined: the recovery worker replays
  /// the mutation-log suffix it missed (or snapshot-resyncs when the ring
  /// has dropped past its position) and only then returns it to rotation.
  Status RejoinReplica(uint32_t shard, size_t replica);

  ReplicaState replica_state(uint32_t shard, size_t replica) const;

  /// Last group mutation seq the replica has applied (the catch-up gauge).
  uint64_t last_applied_seq(uint32_t shard, size_t replica) const;

  /// Highest mutation seq assigned by `shard`'s group log.
  uint64_t log_last_seq(uint32_t shard) const;

  /// True when every replica of every group is kActive — no quarantine,
  /// catch-up, or admin kill outstanding. What the kill/rejoin drills and
  /// the proptest poll for before comparing answers.
  bool Converged() const;

  /// Coarse fleet health: kServing while every shard group has at least one
  /// kActive replica whose breaker is not open, kDegraded otherwise.
  /// Quarantined/killed replicas do not count toward liveness.
  Health health() const;

  /// Stops the router workers (draining the queue), then every engine.
  void Stop();

  RouterMetrics Metrics() const;

  /// The `router=` label this instance exports under in the obs::Registry.
  const std::string& instance() const { return instance_; }

  uint32_t shard_count() const {
    return static_cast<uint32_t>(groups_.size());
  }
  size_t replica_count(uint32_t shard) const {
    return groups_[shard].engines.size();
  }
  /// The replica engines of `shard` (router retains ownership).
  const std::vector<std::unique_ptr<Engine>>& replicas(uint32_t shard) const {
    return groups_[shard].engines;
  }

  const RouterOptions& options() const { return options_; }

 private:
  struct Request : QueuedRequest {
    std::string record;
    std::promise<Result<QueryReply>> promise;

    void Fail(const Status& status) { promise.set_value(status); }
  };

  /// Per-replica recovery bookkeeping. Heap-pinned (unique_ptr storage)
  /// because atomics must not move; mutated by the mutation path under the
  /// group lock and by the recovery worker via CAS transitions.
  struct ReplicaMeta {
    std::atomic<uint32_t> state{
        static_cast<uint32_t>(ReplicaState::kActive)};
    /// Last group mutation seq this replica applied.
    std::atomic<uint64_t> last_applied{0};
    /// The replica returned an id that contradicts the group's winner (or
    /// failed the digest probe): its state is untrusted and catch-up must
    /// take the resync path, never replay.
    std::atomic<bool> divergent{false};
  };

  /// One shard's replica group plus the shared plan facts every replica's
  /// manifest agreed on at Create time.
  struct ShardGroup {
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<std::unique_ptr<ReplicaMeta>> meta;
    uint64_t row_offset = 0;
    /// Round-robin replica rotation ticket (per group, so one hot shard
    /// cannot skew its siblings' load).
    std::atomic<uint64_t> rotation{0};
    /// Serializes mutations within the group: replicas must see upserts in
    /// one order or their local id assignments diverge. Also taken by the
    /// recovery worker at digest probes, replay hand-off, and resync, so
    /// those see a quiescent cut of the mutation stream.
    std::mutex mutate_mu;
    /// Sequenced record of every accepted mutation (DESIGN.md §15); the
    /// replay source for catch-up. Created in the Router ctor (capacity
    /// comes from options).
    std::unique_ptr<recover::MutationLog> log;
    /// Router-tracked live row count (under mutate_mu): the digest probe's
    /// tie-breaker when two replicas disagree and neither holds a majority.
    uint64_t expected_rows = 0;
  };

  Router(std::vector<ShardGroup> groups,
         std::shared_ptr<embed::EmbeddingModel> model,
         const RouterOptions& options);

  /// The batch stage: embed once, fan out, gather, merge, complete.
  void ProcessBatch(std::vector<Request>& live, const BatchInfo& batch);
  /// Shared broadcast tail of Upsert/Delete (DESIGN.md §15). Under the
  /// group lock: appends `record` to the mutation log FIRST (fail-closed —
  /// an unlogged mutation is refused), applies it to every kActive replica,
  /// quarantines replicas that miss it (only when a sibling succeeded —
  /// unanimous refusal means the replicas agree) or return a divergent id,
  /// rolls the log back when zero replicas accepted, and otherwise commits
  /// the record with the winner's id — only then does it become visible to
  /// catch-up replay.
  Result<uint64_t> BroadcastMutation(
      ShardGroup& group, recover::MutationRecord record,
      const std::function<Result<std::future<Result<MutateReply>>>(Engine&)>&
          apply);
  /// Replica visit order for one pick: rotation offset over the kActive
  /// replicas only (quarantined/killed replicas receive ZERO query
  /// traffic), tripped ones moved (stably) to the back — except on probe
  /// ticks, which keep the plain rotation so open breakers still see
  /// traffic.
  std::vector<size_t> ReplicaOrder(ShardGroup& group) const;

  /// kActive -> kQuarantined (no-op otherwise). `divergent` marks the
  /// replica's state untrusted, forcing the resync path.
  void Quarantine(ShardGroup& group, size_t replica, bool divergent,
                  const char* reason);
  void RecoveryLoop();
  void RecoveryTick();
  /// Anti-entropy probe of one group: compares the digests of its kActive
  /// replicas under the group lock and quarantines the minority under a
  /// strict-majority vote (expected_rows may break a no-majority tie only
  /// when it singles out exactly one content class; otherwise no verdict).
  /// Fail-closed per the recover/digest failpoint — a replica whose digest
  /// errs is skipped, never judged.
  void ProbeGroupDigests(size_t group_index);
  /// Heals one quarantined replica (replay or resync). Returns true when
  /// the replica was returned to rotation.
  bool TryHeal(size_t group_index, size_t replica);
  /// Final heal step, caller MUST hold group.mutate_mu: records the
  /// caught-up position (log.last_seq()) and CASes kCatchingUp -> kActive.
  /// Returns false when an external transition (admin kill) claimed the
  /// replica mid-heal — the kill sticks and the replica stays out of
  /// rotation.
  bool Activate(ShardGroup& group, ReplicaMeta& meta);
  /// Log-replay catch-up: bulk rounds off-lock, final tail + activation
  /// under the group lock so nothing slips between them.
  bool ReplayReplica(ShardGroup& group, size_t replica);
  /// Snapshot resync: under the group lock, a kActive live donor Compacts
  /// to a hand-off file and the target adopts it via Engine::ResyncFrom,
  /// then activates before the lock is released.
  bool ResyncReplica(ShardGroup& group, size_t group_index, size_t replica);
  /// Applies `records` to `engine` in order, verifying upsert id agreement;
  /// advances meta.last_applied per record. Flags divergence on mismatch.
  Status ApplyRecords(Engine& engine, ReplicaMeta& meta,
                      const std::vector<recover::MutationRecord>& records);

  std::vector<ShardGroup> groups_;
  std::shared_ptr<embed::EmbeddingModel> model_;
  RouterOptions options_;
  uint32_t shard_count_ = 1;
  size_t k_ = 10;

  std::string instance_;
  uint64_t collector_id_ = 0;
  std::atomic<bool> collector_registered_{false};

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> partial_{0};
  std::atomic<uint64_t> shards_degraded_{0};
  std::atomic<uint64_t> sibling_retries_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> mutation_failures_{0};
  std::atomic<uint64_t> mutation_divergence_{0};
  std::atomic<uint64_t> quarantines_{0};
  std::atomic<uint64_t> catchups_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> replayed_mutations_{0};
  std::atomic<uint64_t> digest_mismatches_{0};
  /// Names resync hand-off files uniquely within this router.
  std::atomic<uint64_t> resync_file_counter_{0};
  /// Recovery worker (started by the ctor when recover_tick_micros > 0).
  std::thread recovery_worker_;
  std::mutex recovery_mu_;
  std::condition_variable recovery_cv_;
  bool recovery_stop_ = false;
  /// Round-robin owner ticket for upserts (mutations spread across groups
  /// the same way the corpus rows do).
  std::atomic<uint64_t> mutation_ticket_{0};
  LatencyHistogram embed_micros_;
  LatencyHistogram fanout_micros_;
  LatencyHistogram gather_micros_;
  LatencyHistogram merge_micros_;
  /// [shard][replica] round-trip histograms (LatencyHistogram is atomic and
  /// therefore pinned in place — hence unique_ptr storage).
  std::vector<std::vector<std::unique_ptr<LatencyHistogram>>> shard_micros_;
  Batcher<Request> batcher_;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_ROUTER_H_
