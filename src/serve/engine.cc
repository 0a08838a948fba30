#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace ember::serve {

namespace {

constexpr BatcherNames kEngineNames = {
    "engine",      "ember_serve",        "serve/admit",
    "serve/batch", "serve/dequeue_shed", "serve/request"};

/// Samples an EngineMetrics into registry exposition form. Counter names
/// follow Prometheus conventions (_total suffix on monotone counters); the
/// stage histograms keep their EngineMetrics field names.
std::vector<obs::Sample> MetricsToSamples(const EngineMetrics& metrics,
                                          const std::string& instance,
                                          const Snapshot& snapshot) {
  // The storage label distinguishes f32 from int8-serving engines in one
  // scrape, so throughput/latency series can be compared per tier.
  const obs::Labels labels = {
      {"engine", instance},
      {"storage", StorageKindName(snapshot.manifest().storage)}};
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
                       const HistogramSnapshot& snapshot) {
    obs::Sample sample;
    sample.name = name;
    sample.help = help;
    sample.kind = obs::MetricKind::kHistogram;
    sample.labels = labels;
    sample.histogram = snapshot;
    samples.push_back(std::move(sample));
  };
  AppendBatcherSamples(metrics, kEngineNames.metric_prefix, labels, samples);
  counter("ember_serve_retries_total", "Embed/reload retry attempts",
          metrics.retries);
  counter("ember_serve_fallbacks_total",
          "Requests answered by the degraded exact scan", metrics.fallbacks);
  counter("ember_serve_breaker_trips_total",
          "Circuit breaker open transitions", metrics.breaker_trips);
  counter("ember_serve_short_circuits_total",
          "Submits refused while the breaker was open",
          metrics.short_circuits);
  counter("ember_serve_reloads_total", "Successful hot snapshot swaps",
          metrics.reloads);
  counter("ember_serve_reload_failures_total", "Rejected snapshot reloads",
          metrics.reload_failures);
  counter("ember_serve_upserts_total", "Rows admitted to the delta tier",
          metrics.upserts);
  counter("ember_serve_deletes_total", "Tombstones published",
          metrics.deletes);
  counter("ember_serve_mutation_failures_total",
          "Upserts/deletes refused fail-closed", metrics.mutation_failures);
  counter("ember_serve_compactions_total",
          "Compacted bases hot-swapped in", metrics.compactions);
  counter("ember_serve_compaction_failures_total",
          "Compactions rolled back", metrics.compaction_failures);
  counter("ember_serve_absorbs_total",
          "HNSW delta absorptions published", metrics.absorbs);
  auto gauge = [&](const char* name, const char* help, double value) {
    obs::Sample sample;
    sample.name = name;
    sample.help = help;
    sample.kind = obs::MetricKind::kGauge;
    sample.labels = labels;
    sample.value = value;
    samples.push_back(std::move(sample));
  };
  gauge("ember_serve_health",
        "Engine health (0=serving 1=degraded 2=tripped 3=loading)",
        static_cast<double>(metrics.health));
  gauge("ember_serve_snapshot_load_micros",
        "Wall-clock load time of the serving snapshot",
        static_cast<double>(snapshot.load_micros()));
  gauge("ember_serve_snapshot_bytes_mapped",
        "Bytes mmap'ed by the serving snapshot (0 = built in memory)",
        static_cast<double>(snapshot.bytes_mapped()));
  histogram("ember_serve_embed_micros", "Vectorization time per batch",
            metrics.embed_micros);
  histogram("ember_serve_query_micros", "Index search time per batch",
            metrics.query_micros);
  histogram("ember_serve_mutate_micros",
            "Delta/tombstone application time per batch",
            metrics.mutate_micros);
  histogram("ember_serve_postprocess_micros",
            "Reply assembly / future completion time per batch",
            metrics.postprocess_micros);
  return samples;
}

}  // namespace

const char* HealthName(Health health) {
  switch (health) {
    case Health::kServing:
      return "serving";
    case Health::kDegraded:
      return "degraded";
    case Health::kTripped:
      return "tripped";
    case Health::kLoading:
      return "loading";
  }
  return "unknown";
}

Status Engine::CheckModelCompatible(const SnapshotManifest& manifest,
                                    const embed::EmbeddingModel& model) {
  if (model.info().code != manifest.model_code) {
    return Status::InvalidArgument(
        "snapshot was built with model '" + manifest.model_code +
        "' but the engine embeds with '" + model.info().code + "'");
  }
  if (model.info().dim != manifest.dim && manifest.rows > 0) {
    return Status::InvalidArgument("snapshot/model dimensionality mismatch");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Engine>> Engine::Create(
    Snapshot snapshot, std::shared_ptr<embed::EmbeddingModel> model,
    const EngineOptions& options) {
  if (model == nullptr) {
    return Status::InvalidArgument("engine requires a query-side model");
  }
  Status compatible = CheckModelCompatible(snapshot.manifest(), *model);
  if (!compatible.ok()) return compatible;
  // Weight building is neither thread-safe nor cheap; force it here so the
  // workers (and every Submit) only ever see an initialized model.
  model->Initialize();
  return std::unique_ptr<Engine>(
      new Engine(std::move(snapshot), std::move(model), options));
}

Engine::Engine(Snapshot snapshot, std::shared_ptr<embed::EmbeddingModel> model,
               const EngineOptions& options)
    : snapshot_(std::make_shared<const Snapshot>(std::move(snapshot))),
      model_(std::move(model)),
      options_(options),
      breaker_(options.breaker),
      batcher_(BatcherOptions::From(options), kEngineNames) {
  if (options_.live) {
    live_ = std::make_shared<stream::LiveCorpus>(snapshot_);
  }
  k_ = options_.k > 0 ? options_.k
                      : std::max<size_t>(1, snapshot_->manifest().default_k);
  static std::atomic<uint64_t> next_instance{0};
  instance_ = std::to_string(next_instance.fetch_add(1));
  collector_id_ = obs::Registry::Global().AddCollector(
      [this] {
        return MetricsToSamples(Metrics(), instance_, *this->snapshot());
      });
  collector_registered_.store(true, std::memory_order_release);
  batcher_.Start([this](std::vector<Request>& live, const BatchInfo& batch) {
    ProcessBatch(live, batch);
  });
}

Engine::~Engine() { Stop(); }

void Engine::Stop() {
  // Unregister the metrics collector first: RemoveCollector is a barrier
  // (the registry holds its mutex through every collection), so after this
  // returns no scrape can touch a dying engine.
  if (collector_registered_.exchange(false, std::memory_order_acq_rel)) {
    obs::Registry::Global().RemoveCollector(collector_id_);
  }
  batcher_.Stop();
}

Result<std::future<Result<QueryReply>>> Engine::Submit(
    std::string record, const SubmitOptions& opts) {
  Request request;
  request.record = std::move(record);
  std::future<Result<QueryReply>> future = request.promise.get_future();
  Status admitted = Enqueue(std::move(request), opts);
  if (!admitted.ok()) return admitted;
  return future;
}

Result<std::future<Result<QueryReply>>> Engine::SubmitEmbedded(
    std::vector<float> embedding, const SubmitOptions& opts) {
  if (embedding.size() != model_->info().dim) {
    return Status::InvalidArgument(
        "pre-embedded query has dim " + std::to_string(embedding.size()) +
        " but the engine's model produces dim " +
        std::to_string(model_->info().dim));
  }
  Request request;
  request.embedding = std::move(embedding);
  request.pre_embedded = true;
  std::future<Result<QueryReply>> future = request.promise.get_future();
  Status admitted = Enqueue(std::move(request), opts);
  if (!admitted.ok()) return admitted;
  return future;
}

Result<std::future<Result<MutateReply>>> Engine::Upsert(
    std::string record, const SubmitOptions& opts) {
  Request request;
  request.kind = Request::Kind::kUpsert;
  request.record = std::move(record);
  return EnqueueMutation(std::move(request), opts);
}

Result<std::future<Result<MutateReply>>> Engine::UpsertEmbedded(
    std::vector<float> embedding, const SubmitOptions& opts) {
  if (embedding.size() != model_->info().dim) {
    return Status::InvalidArgument(
        "pre-embedded upsert has dim " + std::to_string(embedding.size()) +
        " but the engine's model produces dim " +
        std::to_string(model_->info().dim));
  }
  Request request;
  request.kind = Request::Kind::kUpsert;
  request.embedding = std::move(embedding);
  request.pre_embedded = true;
  return EnqueueMutation(std::move(request), opts);
}

Result<std::future<Result<MutateReply>>> Engine::Delete(
    uint64_t global_id, const SubmitOptions& opts) {
  Request request;
  request.kind = Request::Kind::kDelete;
  request.delete_id = global_id;
  // Deletes carry no record to embed; mark pre-embedded so the embed stage
  // skips them.
  request.pre_embedded = true;
  return EnqueueMutation(std::move(request), opts);
}

Result<std::future<Result<MutateReply>>> Engine::EnqueueMutation(
    Request request, const SubmitOptions& opts) {
  if (live_ == nullptr) {
    return Status::InvalidArgument(
        "engine serves a frozen snapshot (EngineOptions.live = false); "
        "mutations need a live corpus");
  }
  std::future<Result<MutateReply>> future =
      request.mutate_promise.get_future();
  Status admitted = Enqueue(std::move(request), opts);
  if (!admitted.ok()) return admitted;
  return future;
}

Status Engine::Enqueue(Request request, const SubmitOptions& opts) {
  request.deadline = opts.deadline;
  request.tenant = opts.tenant;
  // Token bucket FIRST, so a throttle verdict never depends on engine
  // health or queue depth (DESIGN.md §9).
  Status admitted = batcher_.Admit(request.tenant, opts.admit_time);
  if (!admitted.ok()) return admitted;
  // Breaker fast-fail: while the embed/query stages are known-broken,
  // shedding here keeps the queue from filling with work that would only be
  // failed milliseconds later.
  if (!breaker_.Allow(SteadyNow())) {
    short_circuits_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("circuit breaker open");
  }
  return batcher_.Push(std::move(request));
}

void Engine::ProcessBatch(std::vector<Request>& live, const BatchInfo& batch) {
  // Pin the snapshot for the whole batch: a concurrent ReloadSnapshot may
  // swap the engine past it, but this batch's queries all answer from one
  // coherent corpus.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const size_t k = k_.load(std::memory_order_relaxed);

  // A batch can mix Submit records with SubmitEmbedded vectors (the Router
  // fan-out path) and, in live mode, upserts and deletes: only the records
  // go through the model — upserted records ride the same embed stage as
  // queries; pre-embedded rows are copied into their slots and pay no embed
  // cost; deletes carry no vector at all. An all-pre-embedded batch never
  // evaluates the engine/embed failpoint, because nothing fallible runs
  // (embed faults belong to whoever embedded).
  std::vector<std::string> sentences;
  std::vector<size_t> embed_slots;
  std::vector<size_t> query_slots;
  bool has_mutations = false;
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].kind == Request::Kind::kQuery) {
      query_slots.push_back(i);
    } else {
      has_mutations = true;
    }
    if (live[i].pre_embedded) continue;
    embed_slots.push_back(i);
    sentences.push_back(live[i].record);
  }

  // Embed stage, under the retry policy. VectorizeAll itself cannot fail
  // (pure compute), so the fallible part is the boundary the failpoint
  // models: upstream tokenizer/model-server hiccups.
  WallTimer timer;
  la::Matrix vectors(live.size(), model_->info().dim);
  uint64_t embed_retries = 0;
  Status embedded = Status::Ok();
  {
    obs::Span embed_span("serve/embed");
    if (!embed_slots.empty()) {
      la::Matrix fresh;
      embedded = RetryStatus(
          options_.embed_retry, batch.number,
          [&] {
            Status injected = fail::Check("engine/embed");
            if (!injected.ok()) return injected;
            fresh = model_->VectorizeAll(sentences);
            return Status::Ok();
          },
          &embed_retries);
      if (embedded.ok()) {
        for (size_t slot = 0; slot < embed_slots.size(); ++slot) {
          std::memcpy(vectors.Row(embed_slots[slot]), fresh.Row(slot),
                      vectors.cols() * sizeof(float));
        }
      }
    }
    for (size_t i = 0; i < live.size(); ++i) {
      if (!live[i].pre_embedded || live[i].embedding.empty()) continue;
      std::memcpy(vectors.Row(i), live[i].embedding.data(),
                  vectors.cols() * sizeof(float));
    }
    embed_span.AddCount("retries", embed_retries);
  }
  retries_.fetch_add(embed_retries, std::memory_order_relaxed);
  embed_micros_.Record(timer.Restart() * 1e6);
  if (!embedded.ok()) {
    // Permanent embed failure: feed the breaker first (so the trip is
    // visible by the time waiters observe their error), then fail the
    // batch loudly — never silently drop it.
    breaker_.RecordFailure(SteadyNow());
    for (Request& request : live) {
      batcher_.Failed(request);
      request.Fail(embedded);
    }
    EMBER_WARN("embed stage failed after %llu retries: %s",
               static_cast<unsigned long long>(embed_retries),
               embedded.ToString().c_str());
    return;
  }

  // Mutation stage (live mode): apply the batch's upserts and deletes to
  // the live corpus in arrival order, BEFORE the batch's queries run, so a
  // client that upserted then queried observes its own write even inside
  // one batch window. Each mutation succeeds or fails individually — an
  // injected delta/tombstone fault refuses that one request fail-closed and
  // never feeds the circuit breaker (the serving path is healthy; only the
  // mutation was refused).
  std::vector<Result<MutateReply>> mutate_results(
      has_mutations ? live.size() : 0, Status::Internal("not a mutation"));
  if (has_mutations) {
    obs::Span mutate_span("serve/mutate");
    uint64_t applied = 0;
    uint64_t refused = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      Request& request = live[i];
      if (request.kind == Request::Kind::kUpsert) {
        Result<uint64_t> id = live_->Upsert(vectors.Row(i), vectors.cols());
        if (id.ok()) {
          mutate_results[i] = MutateReply{id.value()};
          upserts_.fetch_add(1, std::memory_order_relaxed);
          ++applied;
        } else {
          mutate_results[i] = id.status();
          mutation_failures_.fetch_add(1, std::memory_order_relaxed);
          ++refused;
        }
      } else if (request.kind == Request::Kind::kDelete) {
        Status deleted = live_->Delete(request.delete_id);
        if (deleted.ok()) {
          mutate_results[i] = MutateReply{request.delete_id};
          deletes_.fetch_add(1, std::memory_order_relaxed);
          ++applied;
        } else {
          mutate_results[i] = std::move(deleted);
          mutation_failures_.fetch_add(1, std::memory_order_relaxed);
          ++refused;
        }
      }
    }
    mutate_span.AddCount("applied", applied);
    mutate_span.AddCount("refused", refused);
    mutate_micros_.Record(timer.Restart() * 1e6);
  }

  // Query stage, over the batch's query subset. A failing primary index
  // degrades to the exact brute-force scan of the same corpus
  // (options_.allow_degraded) instead of failing the batch: availability
  // first, and for exact snapshots the fallback is bit-identical anyway.
  // In live mode both paths answer through the corpus's merged
  // base+delta−tombstones view.
  std::vector<std::vector<index::Neighbor>> neighbors;
  bool via_fallback = false;
  if (!query_slots.empty()) {
    // Mutations in the batch leave holes in `vectors`; queries run on the
    // compacted query-row matrix. A mutation-free batch skips the copy.
    la::Matrix query_vectors;
    const la::Matrix* query_rows = &vectors;
    if (query_slots.size() != live.size()) {
      query_vectors = la::Matrix(query_slots.size(), vectors.cols());
      for (size_t slot = 0; slot < query_slots.size(); ++slot) {
        std::memcpy(query_vectors.Row(slot), vectors.Row(query_slots[slot]),
                    vectors.cols() * sizeof(float));
      }
      query_rows = &query_vectors;
    }
    obs::Span query_span("serve/query");
    const Status query_fault = fail::Check("engine/query");
    if (query_fault.ok()) {
      neighbors = live_ != nullptr ? live_->QueryBatch(*query_rows, k)
                                   : snap->QueryBatch(*query_rows, k);
    } else if (options_.allow_degraded) {
      neighbors = live_ != nullptr
                      ? live_->FallbackQueryBatch(*query_rows, k)
                      : snap->FallbackQueryBatch(*query_rows, k);
      via_fallback = true;
      fallbacks_.fetch_add(query_slots.size(), std::memory_order_relaxed);
      EMBER_WARN("primary index query failed (%s); served by exact fallback",
                 query_fault.ToString().c_str());
    } else {
      // The query stage failed permanently: fail the queries, but deliver
      // the mutation outcomes — those already applied and must not be
      // reported lost.
      breaker_.RecordFailure(SteadyNow());
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].kind == Request::Kind::kQuery) {
          batcher_.Failed(live[i]);
          live[i].promise.set_value(query_fault);
          continue;
        }
        if (mutate_results[i].ok()) {
          batcher_.Completed(live[i]);
        } else {
          batcher_.Failed(live[i]);
        }
        live[i].mutate_promise.set_value(std::move(mutate_results[i]));
      }
      return;
    }
    degraded_.store(via_fallback, std::memory_order_relaxed);
    query_micros_.Record(timer.Restart() * 1e6);
  }

  const SteadyTime done = SteadyNow();
  breaker_.RecordSuccess(done);
  {
    obs::Span complete_span("serve/complete");
    size_t query_slot = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      batcher_.Answered(live[i], done, batch.span, i);
      if (live[i].kind == Request::Kind::kQuery) {
        batcher_.Completed(live[i]);
        live[i].promise.set_value(
            QueryReply{std::move(neighbors[query_slot++])});
        continue;
      }
      if (mutate_results[i].ok()) {
        batcher_.Completed(live[i]);
      } else {
        batcher_.Failed(live[i]);
      }
      live[i].mutate_promise.set_value(std::move(mutate_results[i]));
    }
  }
  postprocess_micros_.Record(timer.Seconds() * 1e6);
}

Result<std::shared_ptr<const Snapshot>> Engine::LoadValidated(
    const std::string& path, const RetryPolicy& policy) {
  uint64_t load_retries = 0;
  // LoadWithRetry always verifies the full checksum (it takes no
  // LoadOptions): this is the gate every hot swap (reload AND compaction
  // commit) passes through, and trusted mode is only for cold starts on
  // already-verified files.
  Result<Snapshot> loaded =
      Snapshot::LoadWithRetry(path, policy, &load_retries);
  retries_.fetch_add(load_retries, std::memory_order_relaxed);
  Status status = loaded.status();
  if (status.ok()) {
    status = CheckModelCompatible(loaded.value().manifest(), *model_);
  }
  if (status.ok()) status = loaded.value().Validate();
  if (!status.ok()) return status;

  auto fresh = std::make_shared<const Snapshot>(std::move(loaded.value()));

  // Warm probe: run a real query over a few corpus rows BEFORE the swap, so
  // the first production batch on the new snapshot pays no cold-start cost
  // and a snapshot whose index crashes on use never goes live.
  const la::Matrix& corpus = fresh->data();
  const size_t probe_rows = std::min<size_t>(4, corpus.rows());
  if (probe_rows > 0) {
    la::Matrix probe(probe_rows, corpus.cols());
    std::memcpy(probe.data(), corpus.data(),
                probe_rows * corpus.cols() * sizeof(float));
    const size_t probe_k =
        std::min<size_t>(k_.load(std::memory_order_relaxed), corpus.rows());
    const auto warm = fresh->QueryBatch(probe, std::max<size_t>(1, probe_k));
    if (warm.size() != probe_rows) {
      return Status::Internal("snapshot swap: warm probe returned " +
                              std::to_string(warm.size()) + " results for " +
                              std::to_string(probe_rows) + " queries");
    }
  }
  return fresh;
}

Status Engine::ReloadSnapshot(const std::string& path,
                              const RetryPolicy& policy) {
  // One reload at a time; serving continues on the old snapshot throughout.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  reloading_.store(true, std::memory_order_release);
  struct ClearLoading {
    std::atomic<bool>& flag;
    ~ClearLoading() { flag.store(false, std::memory_order_release); }
  } clear_loading{reloading_};

  Result<std::shared_ptr<const Snapshot>> fresh = LoadValidated(path, policy);
  if (!fresh.ok()) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    EMBER_WARN("snapshot reload from '%s' rejected (still serving the old "
               "snapshot): %s",
               path.c_str(), fresh.status().ToString().c_str());
    return fresh.status();
  }

  if (live_ != nullptr) {
    // A live corpus cannot adopt an arbitrary replacement — the delta and
    // tombstone overlay is only meaningful against a base with the same row
    // identity. ReplaceBase enforces that and refuses anything else.
    Status replaced = live_->ReplaceBase(std::move(fresh).value());
    if (!replaced.ok()) {
      reload_failures_.fetch_add(1, std::memory_order_relaxed);
      EMBER_WARN("live snapshot reload from '%s' rejected: %s", path.c_str(),
                 replaced.ToString().c_str());
      return replaced;
    }
  } else {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(fresh).value();
    if (options_.k == 0) {
      k_.store(std::max<size_t>(1, snapshot_->manifest().default_k),
               std::memory_order_relaxed);
    }
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Engine::Compact(const std::string& path, ResyncState* resync) {
  if (live_ == nullptr) {
    return Status::InvalidArgument("compaction needs a live engine");
  }
  // One compaction/absorb at a time; serving (including mutations) continues
  // on the current tiers throughout.
  std::lock_guard<std::mutex> compaction_lock(compaction_mu_);

  // Phase 1: capture the plan and write the merged base+delta−tombstones
  // snapshot. Failure here costs only the attempt — nothing was published.
  Status wrote = [&]() -> Status {
    EMBER_FAILPOINT("compaction/write");
    stream::CompactionPlan plan = live_->PlanCompaction();
    SnapshotManifest manifest = plan.manifest;
    const bool quantized = manifest.storage == StorageKind::kInt8;
    manifest.storage = StorageKind::kFloat32;
    // The rebuilt base records the mutation position it covers, so a
    // replica adopting it for resync knows where log replay must resume.
    manifest.mutation_seq = plan.upto_seq;
    index::HnswOptions hnsw_options;
    index::LshOptions lsh_options;
    if (manifest.kind == IndexKind::kHnsw) {
      hnsw_options = live_->base()->hnsw_options();
    } else if (manifest.kind == IndexKind::kLsh) {
      // The hyperplanes derive deterministically from the carried seed, so
      // rebuilding with the base's own options reproduces the tables
      // faithfully over the merged rows.
      lsh_options = live_->base()->lsh_options();
    }
    Snapshot merged = Snapshot::Build(manifest, std::move(plan.corpus),
                                      hnsw_options, lsh_options);
    if (quantized) {
      Status requantized = merged.Quantize();
      if (!requantized.ok()) return requantized;
    }
    Status saved = merged.SaveTo(path);
    if (!saved.ok()) return saved;
    // Phase 2: trust pipeline + atomic install. The file on disk is
    // re-loaded through the exact same gate as a hot reload (checksums,
    // model compat, Validate, warm probe) — the compactor's own output gets
    // zero trust. InstallCompacted then swaps base + truncates the covered
    // delta prefix + drops folded tombstones under one lock, and refuses
    // stale plans (a concurrent absorb swapped the base first).
    EMBER_FAILPOINT("compaction/swap");
    Result<std::shared_ptr<const Snapshot>> fresh =
        LoadValidated(path, RetryPolicy{});
    if (!fresh.ok()) return fresh.status();
    Status installed = live_->InstallCompacted(std::move(fresh).value(), plan);
    if (installed.ok() && resync != nullptr) {
      resync->ids = std::move(plan.survivor_ids);
      resync->next_id = plan.next_id;
      resync->upto_seq = plan.upto_seq;
    }
    return installed;
  }();
  if (!wrote.ok()) {
    compaction_failures_.fetch_add(1, std::memory_order_relaxed);
    std::remove(path.c_str());  // never leave a half-written/untrusted base
    EMBER_WARN("compaction to '%s' rolled back (old base keeps serving): %s",
               path.c_str(), wrote.ToString().c_str());
    return wrote;
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Engine::AbsorbDelta() {
  if (live_ == nullptr) {
    return Status::InvalidArgument("delta absorption needs a live engine");
  }
  std::lock_guard<std::mutex> compaction_lock(compaction_mu_);
  Status absorbed = live_->AbsorbDelta();
  if (!absorbed.ok()) {
    compaction_failures_.fetch_add(1, std::memory_order_relaxed);
    return absorbed;
  }
  absorbs_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Engine::ResyncFrom(const std::string& path, std::vector<uint64_t> ids,
                          uint64_t next_id) {
  if (live_ == nullptr) {
    return Status::InvalidArgument("resync needs a live engine");
  }
  std::lock_guard<std::mutex> compaction_lock(compaction_mu_);
  // Zero trust in the donor's file: the same gate as a hot reload.
  Result<std::shared_ptr<const Snapshot>> fresh =
      LoadValidated(path, RetryPolicy{});
  if (!fresh.ok()) return fresh.status();
  Status adopted =
      live_->AdoptBase(std::move(fresh).value(), std::move(ids), next_id);
  if (!adopted.ok()) {
    EMBER_WARN("resync from '%s' rejected (old tiers keep serving): %s",
               path.c_str(), adopted.ToString().c_str());
    return adopted;
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<recover::CorpusDigest> Engine::Digest() const {
  EMBER_FAILPOINT("recover/digest");
  if (live_ != nullptr) return live_->Digest();
  // Frozen engine: the corpus only changes via ReloadSnapshot, so compute
  // once per served snapshot and serve the cache until the pointer moves.
  std::shared_ptr<const Snapshot> current = snapshot();
  std::lock_guard<std::mutex> lock(digest_mu_);
  if (digest_snapshot_ == current) return digest_cache_;
  recover::CorpusDigest digest;
  const la::Matrix& corpus = current->data();
  digest.rows = corpus.rows();
  for (size_t local = 0; local < corpus.rows(); ++local) {
    digest.content +=
        recover::RowHash(local, corpus.Row(local), corpus.cols());
  }
  digest_snapshot_ = std::move(current);
  digest_cache_ = digest;
  return digest;
}

stream::LiveStats Engine::LiveStats() const {
  return live_ != nullptr ? live_->Stats() : stream::LiveStats{};
}

Health Engine::health() const {
  if (reloading_.load(std::memory_order_acquire)) return Health::kLoading;
  if (breaker_.state() != CircuitBreaker::State::kClosed) {
    return Health::kTripped;
  }
  if (degraded_.load(std::memory_order_relaxed)) return Health::kDegraded;
  return Health::kServing;
}

std::shared_ptr<const Snapshot> Engine::snapshot() const {
  // Live mode: the corpus owns the serving base (compaction and absorption
  // swap it underneath the engine's original snapshot_).
  if (live_ != nullptr) return live_->base();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

EngineMetrics Engine::Metrics() const {
  EngineMetrics metrics;
  static_cast<BatcherMetrics&>(metrics) = batcher_.Metrics();
  metrics.health = health();
  metrics.retries = retries_.load(std::memory_order_relaxed);
  metrics.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  metrics.breaker_trips = breaker_.trips();
  metrics.short_circuits = short_circuits_.load(std::memory_order_relaxed);
  metrics.reloads = reloads_.load(std::memory_order_relaxed);
  metrics.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  metrics.upserts = upserts_.load(std::memory_order_relaxed);
  metrics.deletes = deletes_.load(std::memory_order_relaxed);
  metrics.mutation_failures =
      mutation_failures_.load(std::memory_order_relaxed);
  metrics.compactions = compactions_.load(std::memory_order_relaxed);
  metrics.compaction_failures =
      compaction_failures_.load(std::memory_order_relaxed);
  metrics.absorbs = absorbs_.load(std::memory_order_relaxed);
  metrics.embed_micros = embed_micros_.Snapshot();
  metrics.query_micros = query_micros_.Snapshot();
  metrics.mutate_micros = mutate_micros_.Snapshot();
  metrics.postprocess_micros = postprocess_micros_.Snapshot();
  return metrics;
}

}  // namespace ember::serve
