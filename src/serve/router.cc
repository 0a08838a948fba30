#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <queue>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/sharding.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace ember::serve {

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kActive: return "active";
    case ReplicaState::kQuarantined: return "quarantined";
    case ReplicaState::kCatchingUp: return "catching_up";
    case ReplicaState::kKilled: return "killed";
  }
  return "unknown";
}

namespace {

/// Every 16th pick per shard group ignores replica health, so a replica
/// whose breaker is open keeps receiving the trickle of probe traffic its
/// half-open recovery path needs.
constexpr uint64_t kProbeEvery = 16;

constexpr BatcherNames kRouterNames = {
    "router",       "ember_router",        "router/admit",
    "router/batch", "router/dequeue_shed", "router/request"};

std::vector<obs::Sample> RouterMetricsToSamples(const RouterMetrics& metrics,
                                                const std::string& instance) {
  const obs::Labels labels = {{"router", instance}};
  std::vector<obs::Sample> samples;
  auto counter = [&](const char* name, const char* help, uint64_t value) {
    obs::Sample sample;
    sample.name = name;
    sample.help = help;
    sample.kind = obs::MetricKind::kCounter;
    sample.labels = labels;
    sample.value = static_cast<double>(value);
    samples.push_back(std::move(sample));
  };
  auto histogram = [&](const char* name, const char* help,
                       const HistogramSnapshot& snapshot, obs::Labels extra) {
    obs::Sample sample;
    sample.name = name;
    sample.help = help;
    sample.kind = obs::MetricKind::kHistogram;
    sample.labels = std::move(extra);
    sample.labels.insert(labels.begin(), labels.end());
    sample.histogram = snapshot;
    samples.push_back(std::move(sample));
  };
  AppendBatcherSamples(metrics, kRouterNames.metric_prefix, labels, samples);
  counter("ember_router_retries_total", "Embed retry attempts",
          metrics.retries);
  counter("ember_router_partial_total",
          "Replies merged with at least one shard group missing",
          metrics.partial);
  counter("ember_router_shards_degraded_total",
          "(request, shard group) pairs no replica answered",
          metrics.shards_degraded);
  counter("ember_router_sibling_retries_total",
          "Replica fail-overs during fan-out or gather",
          metrics.sibling_retries);
  counter("ember_router_upserts_total",
          "Upserts admitted by their owning shard group", metrics.upserts);
  counter("ember_router_deletes_total",
          "Deletes published by their owning shard group", metrics.deletes);
  counter("ember_router_mutation_failures_total",
          "Mutations refused fail-closed (owning group down)",
          metrics.mutation_failures);
  counter("ember_router_mutation_divergence_total",
          "Mutations whose replicas disagreed or partially failed",
          metrics.mutation_divergence);
  counter("ember_router_quarantines_total",
          "Replicas pulled from rotation pending recovery",
          metrics.quarantines);
  counter("ember_router_catchups_total",
          "Replicas healed by mutation-log replay", metrics.catchups);
  counter("ember_router_resyncs_total",
          "Replicas healed by snapshot resync", metrics.resyncs);
  counter("ember_router_replayed_mutations_total",
          "Log records re-applied during catch-up",
          metrics.replayed_mutations);
  counter("ember_router_digest_mismatches_total",
          "Anti-entropy digest probes that caught a divergent replica",
          metrics.digest_mismatches);
  for (size_t s = 0; s < metrics.last_applied_seq.size(); ++s) {
    for (size_t r = 0; r < metrics.last_applied_seq[s].size(); ++r) {
      obs::Sample sample;
      sample.name = "ember_router_replica_last_applied_seq";
      sample.help = "Last group mutation seq the replica has applied";
      sample.kind = obs::MetricKind::kGauge;
      sample.labels = {{"router", instance},
                       {"shard", std::to_string(s)},
                       {"replica", std::to_string(r)}};
      sample.value = static_cast<double>(metrics.last_applied_seq[s][r]);
      samples.push_back(std::move(sample));
    }
  }
  histogram("ember_router_embed_micros", "Embed-once time per batch",
            metrics.embed_micros, {});
  histogram("ember_router_fanout_micros", "Scatter submit time per batch",
            metrics.fanout_micros, {});
  histogram("ember_router_gather_micros",
            "Shard future wait time per batch", metrics.gather_micros, {});
  histogram("ember_router_merge_micros",
            "K-way merge + completion time per batch", metrics.merge_micros,
            {});
  for (size_t s = 0; s < metrics.shard_micros.size(); ++s) {
    for (size_t r = 0; r < metrics.shard_micros[s].size(); ++r) {
      histogram("ember_router_shard_micros",
                "Per-replica round trip observed from the router's gather",
                metrics.shard_micros[s][r],
                {{"shard", std::to_string(s)},
                 {"replica", std::to_string(r)}});
    }
  }
  return samples;
}

}  // namespace

std::vector<index::Neighbor> MergeTopK(
    const std::vector<std::vector<index::Neighbor>>& per_shard, size_t k) {
  // Heads of the still-live lists; the heap pops the globally closest head.
  // CloserThan never compares equal elements across lists (ids are unique
  // after global remap), so the pop order — and therefore the result — is
  // independent of shard count and arrival order.
  struct Head {
    size_t list;
    size_t pos;
  };
  auto after = [&](const Head& a, const Head& b) {
    // priority_queue keeps the LARGEST on top, so "a after b" = b closer.
    return index::CloserThan(per_shard[b.list][b.pos],
                             per_shard[a.list][a.pos]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  for (size_t l = 0; l < per_shard.size(); ++l) {
    if (!per_shard[l].empty()) heap.push({l, 0});
  }
  std::vector<index::Neighbor> merged;
  merged.reserve(k);
  while (merged.size() < k && !heap.empty()) {
    Head head = heap.top();
    heap.pop();
    merged.push_back(per_shard[head.list][head.pos]);
    if (++head.pos < per_shard[head.list].size()) heap.push(head);
  }
  return merged;
}

Result<std::vector<Snapshot>> BuildShardSnapshots(
    SnapshotManifest base, const la::Matrix& corpus, uint32_t shard_count,
    const index::HnswOptions& hnsw_options,
    const index::LshOptions& lsh_options) {
  if (shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  std::vector<la::Matrix> parts = core::PartitionRoundRobin(corpus,
                                                            shard_count);
  std::vector<Snapshot> shards;
  shards.reserve(shard_count);
  for (uint32_t s = 0; s < shard_count; ++s) {
    SnapshotManifest manifest = base;
    manifest.shard_id = s;
    manifest.shard_count = shard_count;
    manifest.row_offset = s;
    shards.push_back(Snapshot::Build(std::move(manifest), std::move(parts[s]),
                                     hnsw_options, lsh_options));
  }
  return shards;
}

Result<std::vector<Snapshot>> LoadShardSet(
    const std::vector<std::string>& paths, const LoadOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument("shard set has no files");
  }
  std::vector<Snapshot> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    Result<Snapshot> loaded = Snapshot::LoadFrom(path, options);
    if (!loaded.ok()) {
      return Status::IoError("shard '" + path +
                             "': " + loaded.status().ToString());
    }
    shards.push_back(std::move(loaded.value()));
  }
  const SnapshotManifest& first = shards.front().manifest();
  if (first.shard_count != shards.size()) {
    return Status::InvalidArgument(
        "shard set has " + std::to_string(shards.size()) +
        " files but the manifests declare " +
        std::to_string(first.shard_count) + " shards");
  }
  std::vector<bool> seen(shards.size(), false);
  for (size_t i = 0; i < shards.size(); ++i) {
    const SnapshotManifest& m = shards[i].manifest();
    if (m.shard_count != first.shard_count) {
      return Status::InvalidArgument(
          "shard '" + paths[i] + "' declares shard_count " +
          std::to_string(m.shard_count) + " but the set has " +
          std::to_string(first.shard_count));
    }
    if (m.model_code != first.model_code || m.dim != first.dim) {
      return Status::InvalidArgument(
          "shard '" + paths[i] + "' model fingerprint " + m.model_code +
          "/" + std::to_string(m.dim) + " does not match " +
          first.model_code + "/" + std::to_string(first.dim));
    }
    if (m.kind != first.kind || m.storage != first.storage ||
        m.default_k != first.default_k) {
      return Status::InvalidArgument(
          "shard '" + paths[i] +
          "' disagrees on index kind/storage/default_k with the set");
    }
    if (seen[m.shard_id]) {
      return Status::InvalidArgument("duplicate shard_id " +
                                     std::to_string(m.shard_id) +
                                     " in shard set ('" + paths[i] + "')");
    }
    seen[m.shard_id] = true;
  }
  // shard_id < shard_count is a load-time manifest invariant, so N distinct
  // ids over N files is full coverage; sort into plan order.
  std::sort(shards.begin(), shards.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.manifest().shard_id < b.manifest().shard_id;
            });
  return shards;
}

Result<std::unique_ptr<Router>> Router::Create(
    std::vector<std::unique_ptr<Engine>> engines,
    std::shared_ptr<embed::EmbeddingModel> model,
    const RouterOptions& options) {
  if (model == nullptr) {
    return Status::InvalidArgument("router requires an embed-once model");
  }
  if (engines.empty()) {
    return Status::InvalidArgument("router requires at least one engine");
  }
  for (const auto& engine : engines) {
    if (engine == nullptr) {
      return Status::InvalidArgument("router engine list holds a null");
    }
  }
  const SnapshotManifest first = engines.front()->snapshot()->manifest();
  const uint32_t shard_count = first.shard_count;
  std::vector<ShardGroup> groups(shard_count);
  uint64_t total_rows = 0;
  for (auto& engine : engines) {
    const SnapshotManifest m = engine->snapshot()->manifest();
    if (m.shard_count != shard_count) {
      return Status::InvalidArgument(
          "engine shard_count " + std::to_string(m.shard_count) +
          " does not match the fleet's " + std::to_string(shard_count));
    }
    if (m.model_code != first.model_code || m.dim != first.dim) {
      return Status::InvalidArgument(
          "engine model fingerprint " + m.model_code + "/" +
          std::to_string(m.dim) + " does not match " + first.model_code +
          "/" + std::to_string(first.dim));
    }
    if (m.kind != first.kind || m.storage != first.storage) {
      return Status::InvalidArgument(
          "engines disagree on index kind/storage across the fleet");
    }
    ShardGroup& group = groups[m.shard_id];
    if (group.engines.empty()) {
      group.row_offset = m.row_offset;
      total_rows += m.rows;
    } else {
      const SnapshotManifest peer =
          group.engines.front()->snapshot()->manifest();
      if (m.rows != peer.rows || m.row_offset != peer.row_offset) {
        return Status::InvalidArgument(
            "replicas of shard " + std::to_string(m.shard_id) +
            " disagree on rows/row_offset");
      }
    }
    group.engines.push_back(std::move(engine));
  }
  if (model->info().code != first.model_code) {
    return Status::InvalidArgument(
        "shards were built with model '" + first.model_code +
        "' but the router embeds with '" + model->info().code + "'");
  }
  if (model->info().dim != first.dim && first.rows > 0) {
    return Status::InvalidArgument("router model/shard dim mismatch");
  }
  const core::ShardPlan plan{shard_count, total_rows};
  const size_t k = options.k > 0 ? options.k
                                 : std::max<size_t>(1, first.default_k);
  for (uint32_t s = 0; s < shard_count; ++s) {
    if (groups[s].engines.empty()) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " has no replicas");
    }
    const SnapshotManifest m = groups[s].engines.front()->snapshot()->manifest();
    if (m.rows != plan.RowsInShard(s)) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " holds " + std::to_string(m.rows) +
          " rows but the round-robin plan over " +
          std::to_string(total_rows) + " expects " +
          std::to_string(plan.RowsInShard(s)));
    }
    for (const auto& engine : groups[s].engines) {
      const size_t engine_k = engine->options().k > 0
                                  ? engine->options().k
                                  : std::max<size_t>(1, m.default_k);
      if (engine_k < k) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) + " replica answers top-" +
            std::to_string(engine_k) + " but the router merges top-" +
            std::to_string(k) + " — per-shard k must be >= the merged k");
      }
    }
  }
  model->Initialize();
  return std::unique_ptr<Router>(
      new Router(std::move(groups), std::move(model), options));
}

Router::Router(std::vector<ShardGroup> groups,
               std::shared_ptr<embed::EmbeddingModel> model,
               const RouterOptions& options)
    : groups_(std::move(groups)),
      model_(std::move(model)),
      options_(options),
      shard_count_(static_cast<uint32_t>(groups_.size())),
      batcher_(BatcherOptions::From(options), kRouterNames) {
  options_.log_capacity = std::max<size_t>(1, options_.log_capacity);
  const SnapshotManifest& first =
      groups_.front().engines.front()->snapshot()->manifest();
  k_ = options_.k > 0 ? options_.k : std::max<size_t>(1, first.default_k);
  shard_micros_.resize(groups_.size());
  for (size_t s = 0; s < groups_.size(); ++s) {
    for (size_t r = 0; r < groups_[s].engines.size(); ++r) {
      shard_micros_[s].push_back(std::make_unique<LatencyHistogram>());
    }
    groups_[s].log =
        std::make_unique<recover::MutationLog>(options_.log_capacity);
    groups_[s].expected_rows =
        groups_[s].engines.front()->snapshot()->manifest().rows;
    for (size_t r = 0; r < groups_[s].engines.size(); ++r) {
      groups_[s].meta.push_back(std::make_unique<ReplicaMeta>());
    }
  }
  static std::atomic<uint64_t> next_instance{0};
  instance_ = std::to_string(next_instance.fetch_add(1));
  collector_id_ = obs::Registry::Global().AddCollector(
      [this] { return RouterMetricsToSamples(Metrics(), instance_); });
  collector_registered_.store(true, std::memory_order_release);
  batcher_.Start([this](std::vector<Request>& live, const BatchInfo& batch) {
    ProcessBatch(live, batch);
  });
  if (options_.recover_tick_micros > 0) {
    recovery_worker_ = std::thread([this] { RecoveryLoop(); });
  }
}

Router::~Router() { Stop(); }

void Router::Stop() {
  if (collector_registered_.exchange(false, std::memory_order_acq_rel)) {
    obs::Registry::Global().RemoveCollector(collector_id_);
  }
  // The recovery worker goes first: it must not be mid-replay against an
  // engine the shutdown sequence is about to stop.
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    recovery_stop_ = true;
  }
  recovery_cv_.notify_all();
  if (recovery_worker_.joinable()) recovery_worker_.join();
  batcher_.Stop();
  // Engines stop after the router drains: in-flight fan-outs keep their
  // shard queues alive until every router promise is settled.
  for (ShardGroup& group : groups_) {
    for (auto& engine : group.engines) engine->Stop();
  }
}

Result<std::future<Result<QueryReply>>> Router::Submit(
    std::string record, const SubmitOptions& opts) {
  Status admitted = batcher_.Admit(opts.tenant, opts.admit_time);
  if (!admitted.ok()) return admitted;
  Request request;
  request.record = std::move(record);
  request.deadline = opts.deadline;
  request.tenant = opts.tenant;
  std::future<Result<QueryReply>> future = request.promise.get_future();
  Status pushed = batcher_.Push(std::move(request));
  if (!pushed.ok()) return pushed;
  return future;
}

void Router::Quarantine(ShardGroup& group, size_t replica, bool divergent,
                        const char* reason) {
  ReplicaMeta& meta = *group.meta[replica];
  if (divergent) meta.divergent.store(true, std::memory_order_release);
  uint32_t expected = static_cast<uint32_t>(ReplicaState::kActive);
  if (meta.state.compare_exchange_strong(
          expected, static_cast<uint32_t>(ReplicaState::kQuarantined),
          std::memory_order_acq_rel)) {
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    EMBER_WARN("replica quarantined (%s)", reason);
  }
}

Result<uint64_t> Router::BroadcastMutation(
    ShardGroup& group, recover::MutationRecord record,
    const std::function<Result<std::future<Result<MutateReply>>>(Engine&)>&
        apply) {
  // Serialize mutations within the group: replicas assign local ids from
  // their own monotone counters, so they must observe upserts in one order
  // to stay interchangeable for reads.
  std::lock_guard<std::mutex> lock(group.mutate_mu);
  const bool is_upsert = record.op == recover::MutationRecord::Op::kUpsert;
  // Log FIRST, fail-closed: a mutation the log cannot record must be
  // refused, or a later catch-up would silently miss it (DESIGN.md §15).
  Result<uint64_t> appended = group.log->Append(std::move(record));
  if (!appended.ok()) {
    mutation_failures_.fetch_add(1, std::memory_order_relaxed);
    return appended.status();
  }
  const uint64_t seq = appended.value();
  bool any_ok = false;
  bool divergent = false;
  uint64_t winner = 0;
  std::vector<size_t> missed;  // accepted nowhere-to-quarantine until any_ok
  Status last_error = Status::Unavailable("shard group has no active replicas");
  for (size_t r = 0; r < group.engines.size(); ++r) {
    ReplicaMeta& meta = *group.meta[r];
    if (meta.state.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ReplicaState::kActive)) {
      // Quarantined/killed replicas sit out the broadcast; the log entry is
      // what they will replay during catch-up.
      continue;
    }
    Result<std::future<Result<MutateReply>>> submitted = apply(*group.engines[r]);
    Result<MutateReply> reply =
        submitted.ok() ? submitted.value().get()
                       : Result<MutateReply>(submitted.status());
    if (!reply.ok()) {
      last_error = reply.status();
      missed.push_back(r);
      continue;
    }
    if (!any_ok) {
      any_ok = true;
      winner = reply.value().id;
      meta.last_applied.store(seq, std::memory_order_release);
    } else if (reply.value().id != winner) {
      // The replica admitted the row under a different local id: its state
      // machine has drifted and every answer it serves is suspect. Out of
      // rotation immediately; only a snapshot resync may readmit it.
      divergent = true;
      Quarantine(group, r, /*divergent=*/true, "mutation id divergence");
    } else {
      meta.last_applied.store(seq, std::memory_order_release);
    }
  }
  if (!any_ok) {
    // Fail-closed: the owning group is fully down (or unanimously refused)
    // and the mutation landed NOWHERE — roll the log back so catch-up never
    // replays a mutation that did not happen, and leave the replicas alone:
    // a unanimous refusal means they still agree with each other.
    group.log->PopLast();
    mutation_failures_.fetch_add(1, std::memory_order_relaxed);
    return last_error;
  }
  // A replica that missed a mutation a sibling accepted is behind the log:
  // quarantine it (satellite of DESIGN.md §15 — no more half-measure where
  // a diverged replica kept serving queries).
  for (size_t r : missed) {
    divergent = true;
    Quarantine(group, r, /*divergent=*/false, "replica missed a mutation");
  }
  // Commit exposes the record to replay with the id the fleet actually
  // assigned, so replay reproduces (and can verify) the winner's
  // assignment; until this point a concurrent catch-up could not see it.
  group.log->CommitLast(winner);
  if (is_upsert) {
    ++group.expected_rows;
  } else if (group.expected_rows > 0) {
    --group.expected_rows;
  }
  if (divergent) {
    // Some replica missed or disagreed on the mutation. Surfaced as a
    // counter, not a failure — the mutation IS durable on the winners and
    // the recovery worker owns healing the stragglers.
    mutation_divergence_.fetch_add(1, std::memory_order_relaxed);
    EMBER_WARN("shard replicas diverged on a mutation (winner id %llu)",
               static_cast<unsigned long long>(winner));
  }
  return winner;
}

Result<uint64_t> Router::Upsert(const std::string& record) {
  const uint64_t ticket =
      mutation_ticket_.fetch_add(1, std::memory_order_relaxed);
  // Embed once, under the same failpoint/retry regime as the query path —
  // the owning group's replicas all receive the identical vector.
  la::Matrix vectors;
  uint64_t embed_retries = 0;
  Status embedded = RetryStatus(
      options_.embed_retry, ticket,
      [&] {
        Status injected = fail::Check("router/embed");
        if (!injected.ok()) return injected;
        vectors = model_->VectorizeAll({record});
        return Status::Ok();
      },
      &embed_retries);
  retries_.fetch_add(embed_retries, std::memory_order_relaxed);
  if (!embedded.ok()) {
    mutation_failures_.fetch_add(1, std::memory_order_relaxed);
    return embedded;
  }
  std::vector<float> embedding(vectors.Row(0),
                               vectors.Row(0) + vectors.cols());
  // Owner = round-robin over groups, mirroring how the build-time
  // partitioner spreads rows. The global id comes back out of the shard's
  // local assignment: global = shard + local * N, the inverse of the
  // query-path remap (DESIGN.md §13).
  const uint32_t shard = static_cast<uint32_t>(ticket % groups_.size());
  recover::MutationRecord logged;
  logged.op = recover::MutationRecord::Op::kUpsert;
  logged.embedding = embedding;
  Result<uint64_t> local =
      BroadcastMutation(groups_[shard], std::move(logged),
                        [&](Engine& engine) {
                          return engine.UpsertEmbedded(embedding);
                        });
  if (!local.ok()) return local.status();
  upserts_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<uint64_t>(shard) +
         local.value() * static_cast<uint64_t>(groups_.size());
}

Status Router::Delete(uint64_t global_id) {
  const uint32_t shard = static_cast<uint32_t>(global_id % groups_.size());
  const uint64_t local = global_id / groups_.size();
  recover::MutationRecord record;
  record.op = recover::MutationRecord::Op::kDelete;
  record.id = local;
  Result<uint64_t> done =
      BroadcastMutation(groups_[shard], std::move(record),
                        [&](Engine& engine) {
                          return engine.Delete(local);
                        });
  if (!done.ok()) return done.status();
  deletes_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Router::KillReplica(uint32_t shard, size_t replica) {
  if (shard >= groups_.size() || replica >= groups_[shard].engines.size()) {
    return Status::InvalidArgument("no such replica");
  }
  // Under the group lock so an in-flight broadcast finishes first: the
  // replica leaves rotation at a mutation boundary, never mid-record.
  ShardGroup& group = groups_[shard];
  std::lock_guard<std::mutex> lock(group.mutate_mu);
  ReplicaMeta& meta = *group.meta[replica];
  meta.state.store(static_cast<uint32_t>(ReplicaState::kKilled),
                   std::memory_order_release);
  return Status::Ok();
}

Status Router::RejoinReplica(uint32_t shard, size_t replica) {
  if (shard >= groups_.size() || replica >= groups_[shard].engines.size()) {
    return Status::InvalidArgument("no such replica");
  }
  ShardGroup& group = groups_[shard];
  ReplicaMeta& meta = *group.meta[replica];
  uint32_t expected = static_cast<uint32_t>(ReplicaState::kKilled);
  if (!meta.state.compare_exchange_strong(
          expected, static_cast<uint32_t>(ReplicaState::kQuarantined),
          std::memory_order_acq_rel)) {
    return Status::InvalidArgument("replica is not killed");
  }
  // It rejoins through quarantine: the recovery worker replays what it
  // missed and only then returns it to rotation.
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  recovery_cv_.notify_all();
  return Status::Ok();
}

ReplicaState Router::replica_state(uint32_t shard, size_t replica) const {
  return static_cast<ReplicaState>(
      groups_[shard].meta[replica]->state.load(std::memory_order_acquire));
}

uint64_t Router::last_applied_seq(uint32_t shard, size_t replica) const {
  return groups_[shard].meta[replica]->last_applied.load(
      std::memory_order_acquire);
}

uint64_t Router::log_last_seq(uint32_t shard) const {
  return groups_[shard].log->last_seq();
}

bool Router::Converged() const {
  for (const ShardGroup& group : groups_) {
    for (const auto& meta : group.meta) {
      if (meta->state.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ReplicaState::kActive)) {
        return false;
      }
    }
  }
  return true;
}

void Router::RecoveryLoop() {
  std::unique_lock<std::mutex> lock(recovery_mu_);
  for (;;) {
    recovery_cv_.wait_for(
        lock, std::chrono::microseconds(options_.recover_tick_micros),
        [this] { return recovery_stop_; });
    if (recovery_stop_) return;
    lock.unlock();
    RecoveryTick();
    lock.lock();
  }
}

void Router::RecoveryTick() {
  for (size_t g = 0; g < groups_.size(); ++g) {
    ShardGroup& group = groups_[g];
    // An open breaker means the replica has been refusing work — it may
    // have missed broadcasts, so it is pulled from rotation proactively and
    // readmitted through the same catch-up gate as everyone else.
    for (size_t r = 0; r < group.engines.size(); ++r) {
      if (group.engines[r]->health() == Health::kTripped) {
        Quarantine(group, r, /*divergent=*/false, "circuit breaker tripped");
      }
    }
    ProbeGroupDigests(g);
    for (size_t r = 0; r < group.engines.size(); ++r) {
      if (group.meta[r]->state.load(std::memory_order_acquire) ==
          static_cast<uint32_t>(ReplicaState::kQuarantined)) {
        TryHeal(g, r);
      }
    }
  }
}

void Router::ProbeGroupDigests(size_t group_index) {
  ShardGroup& group = groups_[group_index];
  // Under the group lock: no broadcast is between replicas, so every active
  // replica has applied exactly the same mutation prefix and matching
  // digests are the expected steady state.
  std::lock_guard<std::mutex> lock(group.mutate_mu);
  struct Probe {
    size_t replica;
    recover::CorpusDigest digest;
  };
  std::vector<Probe> probes;
  for (size_t r = 0; r < group.engines.size(); ++r) {
    if (group.meta[r]->state.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ReplicaState::kActive)) {
      continue;
    }
    Result<recover::CorpusDigest> digest = group.engines[r]->Digest();
    if (!digest.ok()) {
      // Fail-closed (recover/digest failpoint lands here): with no digest
      // there is no verdict — the replica is neither trusted nor condemned
      // this tick.
      return;
    }
    probes.push_back({r, digest.value()});
  }
  if (probes.size() < 2) return;
  // Majority vote over (rows, content). A strict majority (more than half
  // the probes agreeing) is trusted outright. Without one, the router's
  // own mutation accounting (expected_rows) may break the tie — but ONLY
  // when it points at exactly one of the tied content classes. Otherwise
  // there is NO verdict this tick: with two replicas and equal row counts
  // (e.g. a silent bit flip) any deterministic tie-break can crown the
  // corrupted replica, quarantine the healthy one, and then resync it FROM
  // the corrupted donor — propagating the corruption group-wide. Failing
  // closed leaves both serving until a sibling, a mutation mismatch, or an
  // operator breaks the symmetry.
  std::vector<size_t> votes(probes.size(), 0);
  for (size_t i = 0; i < probes.size(); ++i) {
    for (const Probe& other : probes) {
      if (recover::SameContent(probes[i].digest, other.digest)) ++votes[i];
    }
  }
  const size_t max_votes = *std::max_element(votes.begin(), votes.end());
  size_t best = probes.size();
  if (max_votes > probes.size() / 2) {
    // A strict majority is a single content class; its first member
    // represents it.
    for (size_t i = 0; i < probes.size(); ++i) {
      if (votes[i] == max_votes) {
        best = i;
        break;
      }
    }
  } else {
    // Distinct content classes among the max-vote contenders.
    std::vector<size_t> leaders;
    for (size_t i = 0; i < probes.size(); ++i) {
      if (votes[i] != max_votes) continue;
      bool seen = false;
      for (size_t j : leaders) {
        if (recover::SameContent(probes[j].digest, probes[i].digest)) {
          seen = true;
          break;
        }
      }
      if (!seen) leaders.push_back(i);
    }
    size_t expected_leaders = 0;
    for (size_t i : leaders) {
      if (probes[i].digest.rows == group.expected_rows) {
        best = i;
        ++expected_leaders;
      }
    }
    if (expected_leaders != 1) return;  // fail closed: no verdict this tick
  }
  for (const Probe& probe : probes) {
    if (recover::SameContent(probe.digest, probes[best].digest)) continue;
    digest_mismatches_.fetch_add(1, std::memory_order_relaxed);
    // A digest liar's corpus is wrong in an unknown way: replaying the log
    // suffix cannot fix it, so it is marked divergent to force a resync.
    Quarantine(group, probe.replica, /*divergent=*/true,
               "anti-entropy digest mismatch");
  }
}

bool Router::Activate(ShardGroup& group, ReplicaMeta& meta) {
  // Caller holds group.mutate_mu: no broadcast is in flight, so the log's
  // last_seq IS the group's committed frontier and nothing can land between
  // this store and the replica re-entering rotation.
  meta.last_applied.store(group.log->last_seq(), std::memory_order_release);
  meta.divergent.store(false, std::memory_order_release);
  uint32_t expected = static_cast<uint32_t>(ReplicaState::kCatchingUp);
  // CAS, not store: an admin KillReplica that landed mid-heal must stick —
  // a healed-but-killed replica stays out of rotation.
  return meta.state.compare_exchange_strong(
      expected, static_cast<uint32_t>(ReplicaState::kActive),
      std::memory_order_acq_rel);
}

bool Router::TryHeal(size_t group_index, size_t replica) {
  ShardGroup& group = groups_[group_index];
  Engine& target = *group.engines[replica];
  ReplicaMeta& meta = *group.meta[replica];
  uint32_t expected = static_cast<uint32_t>(ReplicaState::kQuarantined);
  if (!meta.state.compare_exchange_strong(
          expected, static_cast<uint32_t>(ReplicaState::kCatchingUp),
          std::memory_order_acq_rel)) {
    return false;
  }
  bool healed = false;
  if (!target.live()) {
    // Frozen replicas have no mutation stream to replay: readmission just
    // requires a closed breaker and a digest that matches an active
    // sibling's.
    if (target.health() != Health::kTripped) {
      Result<recover::CorpusDigest> mine = target.Digest();
      if (mine.ok()) {
        std::lock_guard<std::mutex> lock(group.mutate_mu);
        for (size_t r = 0; r < group.engines.size(); ++r) {
          if (r == replica ||
              group.meta[r]->state.load(std::memory_order_acquire) !=
                  static_cast<uint32_t>(ReplicaState::kActive)) {
            continue;
          }
          Result<recover::CorpusDigest> theirs = group.engines[r]->Digest();
          if (theirs.ok() &&
              recover::SameContent(mine.value(), theirs.value())) {
            healed = Activate(group, meta);
            break;
          }
        }
      }
    }
    if (healed) catchups_.fetch_add(1, std::memory_order_relaxed);
  } else if (meta.divergent.load(std::memory_order_acquire) ||
             group.log->first_seq() >
                 meta.last_applied.load(std::memory_order_acquire) + 1) {
    // Untrusted state or the ring already dropped records it needs: only a
    // snapshot resync can readmit it.
    healed = ResyncReplica(group, group_index, replica);
  } else {
    healed = ReplayReplica(group, replica);
    if (!healed && (meta.divergent.load(std::memory_order_acquire) ||
                    group.log->first_seq() >
                        meta.last_applied.load(std::memory_order_acquire) +
                            1)) {
      // Replay disqualified itself (id mismatch, or a fast writer outran
      // the ring): fall straight through to resync rather than waiting a
      // tick.
      healed = ResyncReplica(group, group_index, replica);
    }
  }
  if (!healed) {
    // Back to quarantine for the next tick — CAS so an external transition
    // (admin kill) that claimed the replica mid-heal sticks.
    expected = static_cast<uint32_t>(ReplicaState::kCatchingUp);
    meta.state.compare_exchange_strong(
        expected, static_cast<uint32_t>(ReplicaState::kQuarantined),
        std::memory_order_acq_rel);
  }
  return healed;
}

Status Router::ApplyRecords(
    Engine& engine, ReplicaMeta& meta,
    const std::vector<recover::MutationRecord>& records) {
  // Submissions are pipelined: the engine's mutation queue is FIFO, so a
  // window of in-flight futures preserves replay order while amortizing
  // the batcher's max-wait across the window instead of paying it per
  // record. After a failure the already-submitted suffix (bounded by the
  // window) may still land on the replica; every failure path below either
  // marks the replica divergent or leaves it quarantined, and the next
  // replay attempt over the over-applied suffix trips the divergent-id
  // check, so snapshot resync always covers the damage.
  constexpr size_t kWindow = 64;
  std::deque<std::pair<const recover::MutationRecord*,
                       std::future<Result<MutateReply>>>>
      inflight;
  Status result = Status::Ok();
  const auto drain_one = [&]() {
    const recover::MutationRecord* record = inflight.front().first;
    Result<MutateReply> reply = inflight.front().second.get();
    inflight.pop_front();
    if (!result.ok()) return;  // already failed: just drain the window
    if (record->op == recover::MutationRecord::Op::kUpsert) {
      if (!reply.ok()) {
        result = reply.status();
        return;
      }
      if (reply.value().id != record->id) {
        // The replica's id counter disagrees with the fleet's history:
        // replay cannot converge it. Resync takes over.
        meta.divergent.store(true, std::memory_order_release);
        result = Status::Internal("replayed upsert assigned a divergent id");
        return;
      }
    } else if (!reply.ok()) {
      if (reply.status().code() == Status::Code::kNotFound) {
        // Deleting a row the replica never had means its state already
        // drifted from the log's history.
        meta.divergent.store(true, std::memory_order_release);
      }
      result = reply.status();
      return;
    }
    meta.last_applied.store(record->seq, std::memory_order_release);
    replayed_mutations_.fetch_add(1, std::memory_order_relaxed);
  };
  for (const recover::MutationRecord& record : records) {
    if (!result.ok()) break;
    auto submitted = record.op == recover::MutationRecord::Op::kUpsert
                         ? engine.UpsertEmbedded(record.embedding)
                         : engine.Delete(record.id);
    if (!submitted.ok()) {
      result = submitted.status();
      break;
    }
    inflight.emplace_back(&record, std::move(submitted).value());
    if (inflight.size() >= kWindow) drain_one();
  }
  while (!inflight.empty()) drain_one();
  return result;
}

bool Router::ReplayReplica(ShardGroup& group, size_t replica) {
  // Fail-closed: an armed recover/replay failpoint aborts the attempt
  // before any record is re-applied — the replica simply stays quarantined.
  Status injected = fail::Check("recover/replay");
  if (!injected.ok()) return false;
  Engine& target = *group.engines[replica];
  ReplicaMeta& meta = *group.meta[replica];
  // Bulk rounds off-lock: writers keep writing while the replica chews
  // through the backlog. Bounded so a fast writer cannot stall the
  // hand-off forever.
  for (int round = 0; round < 4; ++round) {
    Result<std::vector<recover::MutationRecord>> records =
        group.log->ReadFrom(meta.last_applied.load(std::memory_order_acquire));
    if (!records.ok()) return false;  // truncated: caller falls to resync
    if (records.value().empty()) break;
    if (!ApplyRecords(target, meta, records.value()).ok()) return false;
  }
  // Hand-off: the final tail replays AND the replica reactivates under the
  // group lock, so no mutation can slip between the replica's last record
  // and its return to rotation — it rejoins exactly at log.last_seq().
  std::lock_guard<std::mutex> lock(group.mutate_mu);
  Result<std::vector<recover::MutationRecord>> tail =
      group.log->ReadFrom(meta.last_applied.load(std::memory_order_acquire));
  if (!tail.ok()) return false;
  if (!ApplyRecords(target, meta, tail.value()).ok()) return false;
  if (!Activate(group, meta)) return false;
  catchups_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Router::ResyncReplica(ShardGroup& group, size_t group_index,
                           size_t replica) {
  // Fail-closed: an armed recover/resync failpoint refuses the attempt
  // before the donor compacts or the target adopts anything.
  Status injected = fail::Check("recover/resync");
  if (!injected.ok()) return false;
  // The whole resync runs under the group lock: the donor's compacted
  // snapshot then covers exactly the log prefix [1, last_seq], so the
  // target rejoins at last_seq with no replay tail to chase.
  std::lock_guard<std::mutex> lock(group.mutate_mu);
  Engine* donor = nullptr;
  for (size_t r = 0; r < group.engines.size(); ++r) {
    if (r == replica) continue;
    if (group.meta[r]->state.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ReplicaState::kActive)) {
      continue;
    }
    if (!group.engines[r]->live()) continue;
    donor = group.engines[r].get();
    break;
  }
  if (donor == nullptr) return false;
  std::string dir = options_.recovery_dir;
  if (dir.empty()) {
    std::error_code ec;
    dir = std::filesystem::temp_directory_path(ec).string();
    if (ec) return false;
  }
  const std::string path =
      dir + "/ember_resync_" + instance_ + "_g" +
      std::to_string(group_index) + "_" +
      std::to_string(resync_file_counter_.fetch_add(
          1, std::memory_order_relaxed)) +
      ".embs";
  ResyncState state;
  Status compacted = donor->Compact(path, &state);
  if (!compacted.ok()) {
    std::remove(path.c_str());
    EMBER_WARN("resync donor compaction failed: %s",
               compacted.ToString().c_str());
    return false;
  }
  Status adopted = group.engines[replica]->ResyncFrom(path, std::move(state.ids),
                                                      state.next_id);
  std::remove(path.c_str());
  if (!adopted.ok()) {
    EMBER_WARN("resync adoption failed: %s", adopted.ToString().c_str());
    return false;
  }
  if (!Activate(group, *group.meta[replica])) return false;
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<size_t> Router::ReplicaOrder(ShardGroup& group) const {
  const size_t replicas = group.engines.size();
  const uint64_t ticket = group.rotation.fetch_add(1,
                                                   std::memory_order_relaxed);
  std::vector<size_t> order;
  order.reserve(replicas);
  for (size_t i = 0; i < replicas; ++i) {
    const size_t r = (ticket + i) % replicas;
    // Only kActive replicas serve reads. A quarantined replica's answers
    // are suspect by definition — it gets ZERO query traffic until the
    // recovery worker certifies it caught up (DESIGN.md §15). Tripped-but-
    // active replicas stay in the list (moved back below) so their breaker
    // still sees probe traffic.
    if (group.meta[r]->state.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ReplicaState::kActive)) {
      continue;
    }
    order.push_back(r);
  }
  if (order.size() > 1 && ticket % kProbeEvery != 0) {
    std::stable_partition(order.begin(), order.end(), [&](size_t r) {
      return group.engines[r]->health() != Health::kTripped;
    });
  }
  return order;
}

void Router::ProcessBatch(std::vector<Request>& live, const BatchInfo& batch) {
  std::vector<std::string> sentences;
  sentences.reserve(live.size());
  for (const Request& request : live) sentences.push_back(request.record);

  // Embed ONCE for the whole fleet — the scatter ships vectors, not
  // records, so the (dominant) embed cost does not multiply with N.
  WallTimer timer;
  la::Matrix vectors;
  uint64_t embed_retries = 0;
  Status embedded = Status::Ok();
  {
    obs::Span embed_span("router/embed");
    embedded = RetryStatus(
        options_.embed_retry, batch.number,
        [&] {
          Status injected = fail::Check("router/embed");
          if (!injected.ok()) return injected;
          vectors = model_->VectorizeAll(sentences);
          return Status::Ok();
        },
        &embed_retries);
    embed_span.AddCount("retries", embed_retries);
  }
  retries_.fetch_add(embed_retries, std::memory_order_relaxed);
  embed_micros_.Record(timer.Restart() * 1e6);
  if (!embedded.ok()) {
    for (Request& request : live) {
      batcher_.Failed(request);
      request.Fail(embedded);
    }
    EMBER_WARN("router embed stage failed after %llu retries: %s",
               static_cast<unsigned long long>(embed_retries),
               embedded.ToString().c_str());
    return;
  }
  const size_t dim = vectors.cols();

  // Scatter: one replica per shard group per request, health-aware with
  // sibling fail-over at submit time (a refused replica — breaker open,
  // queue full, stopped — costs one extra Submit, not a failed request).
  struct Pending {
    std::future<Result<QueryReply>> future;
    size_t replica = 0;
    bool valid = false;
  };
  std::vector<std::vector<Pending>> pending(live.size());
  for (auto& row : pending) row.resize(groups_.size());
  {
    obs::Span fanout_span("router/fanout");
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t g = 0; g < groups_.size(); ++g) {
        const std::vector<size_t> order = ReplicaOrder(groups_[g]);
        for (size_t attempt = 0; attempt < order.size(); ++attempt) {
          const size_t r = order[attempt];
          std::vector<float> row(vectors.Row(i), vectors.Row(i) + dim);
          auto submitted = groups_[g].engines[r]->SubmitEmbedded(
              std::move(row));
          if (submitted.ok()) {
            pending[i][g].future = std::move(submitted.value());
            pending[i][g].replica = r;
            pending[i][g].valid = true;
            break;
          }
          sibling_retries_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  const SteadyTime scattered = SteadyNow();
  fanout_micros_.Record(timer.Restart() * 1e6);

  // Gather: wait on every shard future; a replica that accepted but then
  // failed gets one synchronous fail-over pass through its siblings.
  std::vector<std::vector<std::vector<index::Neighbor>>> lists(
      live.size(),
      std::vector<std::vector<index::Neighbor>>(groups_.size()));
  std::vector<std::vector<bool>> answered(
      live.size(), std::vector<bool>(groups_.size(), false));
  {
    obs::Span gather_span("router/gather");
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t g = 0; g < groups_.size(); ++g) {
        Result<QueryReply> reply = Status::Unavailable("no replica accepted");
        size_t replica = pending[i][g].replica;
        if (pending[i][g].valid) {
          reply = pending[i][g].future.get();
        }
        if (!reply.ok()) {
          for (size_t r = 0; r < groups_[g].engines.size() && !reply.ok();
               ++r) {
            if (pending[i][g].valid && r == pending[i][g].replica) continue;
            if (groups_[g].meta[r]->state.load(std::memory_order_acquire) !=
                static_cast<uint32_t>(ReplicaState::kActive)) {
              continue;  // never fail over onto a quarantined replica
            }
            std::vector<float> row(vectors.Row(i), vectors.Row(i) + dim);
            auto retried =
                groups_[g].engines[r]->SubmitEmbedded(std::move(row));
            sibling_retries_.fetch_add(1, std::memory_order_relaxed);
            if (!retried.ok()) continue;
            reply = retried.value().get();
            replica = r;
          }
        }
        if (reply.ok()) {
          shard_micros_[g][replica]->Record(
              MicrosBetween(scattered, SteadyNow()));
          lists[i][g] = std::move(reply.value().neighbors);
          index::RemapToGlobal(lists[i][g], groups_[g].row_offset,
                               shard_count_);
          answered[i][g] = true;
        }
      }
    }
  }
  gather_micros_.Record(timer.Restart() * 1e6);

  // Merge + complete. A request missing a whole shard group either degrades
  // to a partial merge over the survivors or fails, per allow_partial.
  {
    obs::Span merge_span("router/merge");
    uint64_t merged_count = 0;
    const SteadyTime done = SteadyNow();
    for (size_t i = 0; i < live.size(); ++i) {
      size_t missing = 0;
      for (size_t g = 0; g < groups_.size(); ++g) {
        if (!answered[i][g]) ++missing;
      }
      shards_degraded_.fetch_add(missing, std::memory_order_relaxed);
      if (missing > 0 && !options_.allow_partial) {
        batcher_.Failed(live[i]);
        live[i].Fail(Status::Unavailable(
            std::to_string(missing) + " shard group(s) down"));
        continue;
      }
      QueryReply reply;
      reply.neighbors = MergeTopK(lists[i], k_);
      reply.partial = missing > 0;
      if (reply.partial) partial_.fetch_add(1, std::memory_order_relaxed);
      ++merged_count;
      batcher_.Answered(live[i], done, batch.span, i);
      batcher_.Completed(live[i]);
      live[i].promise.set_value(std::move(reply));
    }
    merge_span.AddCount("merged", merged_count);
  }
  merge_micros_.Record(timer.Restart() * 1e6);
}

Health Router::health() const {
  for (const ShardGroup& group : groups_) {
    bool any_up = false;
    for (size_t r = 0; r < group.engines.size(); ++r) {
      // Only kActive replicas count toward liveness: a quarantined replica
      // is out of rotation and contributes nothing until it catches up.
      if (group.meta[r]->state.load(std::memory_order_acquire) !=
          static_cast<uint32_t>(ReplicaState::kActive)) {
        continue;
      }
      if (group.engines[r]->health() != Health::kTripped) {
        any_up = true;
        break;
      }
    }
    if (!any_up) return Health::kDegraded;
  }
  return Health::kServing;
}

RouterMetrics Router::Metrics() const {
  RouterMetrics metrics;
  static_cast<BatcherMetrics&>(metrics) = batcher_.Metrics();
  metrics.retries = retries_.load(std::memory_order_relaxed);
  metrics.partial = partial_.load(std::memory_order_relaxed);
  metrics.shards_degraded = shards_degraded_.load(std::memory_order_relaxed);
  metrics.sibling_retries = sibling_retries_.load(std::memory_order_relaxed);
  metrics.upserts = upserts_.load(std::memory_order_relaxed);
  metrics.deletes = deletes_.load(std::memory_order_relaxed);
  metrics.mutation_failures =
      mutation_failures_.load(std::memory_order_relaxed);
  metrics.mutation_divergence =
      mutation_divergence_.load(std::memory_order_relaxed);
  metrics.quarantines = quarantines_.load(std::memory_order_relaxed);
  metrics.catchups = catchups_.load(std::memory_order_relaxed);
  metrics.resyncs = resyncs_.load(std::memory_order_relaxed);
  metrics.replayed_mutations =
      replayed_mutations_.load(std::memory_order_relaxed);
  metrics.digest_mismatches =
      digest_mismatches_.load(std::memory_order_relaxed);
  metrics.last_applied_seq.resize(groups_.size());
  metrics.replica_states.resize(groups_.size());
  for (size_t s = 0; s < groups_.size(); ++s) {
    for (const auto& meta : groups_[s].meta) {
      metrics.last_applied_seq[s].push_back(
          meta->last_applied.load(std::memory_order_acquire));
      metrics.replica_states[s].push_back(static_cast<ReplicaState>(
          meta->state.load(std::memory_order_acquire)));
    }
  }
  metrics.embed_micros = embed_micros_.Snapshot();
  metrics.fanout_micros = fanout_micros_.Snapshot();
  metrics.gather_micros = gather_micros_.Snapshot();
  metrics.merge_micros = merge_micros_.Snapshot();
  metrics.shard_micros.resize(shard_micros_.size());
  for (size_t s = 0; s < shard_micros_.size(); ++s) {
    for (const auto& histogram : shard_micros_[s]) {
      metrics.shard_micros[s].push_back(histogram->Snapshot());
    }
  }
  return metrics;
}

}  // namespace ember::serve
