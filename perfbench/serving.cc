// The serving side of a trial: fleet set-up, the closed and open-loop
// phases, the mutation streams, the post-run output checks and the bulk ER
// pipeline phase. Everything goes through the public APIs of
// serve::Engine, serve::Router and core::ErPipeline.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "embed/model_registry.h"
#include "eval/metrics.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace perfbench {

using namespace ember;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;
constexpr size_t kProbes = 256;

/// One query reply, normalised across Engine and Router.
struct Reply {
  Status status;
  std::vector<Neighbor> neighbors;
};

template <class R>
std::future<Reply> Normalise(std::future<Result<R>> inner) {
  // Deferred: runs on whichever thread harvests it, blocking on the
  // program's own future — no extra thread per request.
  return std::async(std::launch::deferred, [f = std::move(inner)]() mutable {
    Result<R> r = f.get();
    Reply out;
    if (!r.ok()) {
      out.status = r.status();
    } else {
      out.neighbors = std::move(r.value().neighbors);
    }
    return out;
  });
}

/// Non-blocking query submit to whichever front end the fleet has.
Result<std::future<Reply>> Submit(Fleet& fleet, std::string text,
                                  SteadyTime deadline) {
  if (fleet.router) {
    auto r = fleet.router->Submit(std::move(text), deadline);
    if (!r.ok()) return r.status();
    return Normalise(std::move(r).value());
  }
  auto r = fleet.engine->Submit(std::move(text), deadline);
  if (!r.ok()) return r.status();
  return Normalise(std::move(r).value());
}

struct Pending {
  std::future<Reply> future;
  SteadyTime sched;
  uint64_t key = 0;
};

/// Folds one reply into the phase tallies.
void Account(const Inputs& in, const Oracle* oracle, Pending& pending,
             SteadyTime done, PhaseStats* stats) {
  Reply reply = pending.future.get();
  if (!reply.status.ok()) {
    if (reply.status.code() == Status::Code::kDeadlineExceeded) {
      ++stats->expired;
    } else {
      ++stats->failed;
    }
    return;
  }
  ++stats->ok;
  const double ms = MicrosBetween(pending.sched, done) / 1e3;
  stats->latency_ms.push_back(ms);
  stats->latency_at_s.push_back(TrialSeconds(pending.sched));
  stats->done_at_s.push_back(TrialSeconds(done));
  bool correct = true;
  if (oracle != nullptr) {
    const ReplyCheck check =
        CheckReply(reply.neighbors, oracle->by_key[pending.key % in.left.size()]);
    ++stats->checked;
    stats->bitexact += check.bitexact ? 1 : 0;
    stats->overlap += check.overlap;
    correct = check.correct;
    if (!correct) ++stats->wrong;
  }
  if (correct && ms <= in.spec->slo_ms) ++stats->slo_hits;
}

/// The mutation side of an open-loop phase: one thread applying upserts and
/// deletes through the fleet in trace order. Each is timed from when it is
/// sent, not from its scheduled send: the serial stream falls behind the schedule
/// whenever writes arrive faster than they apply, and a backlog measured
/// from the schedule would grow with the phase length. The lag behind the
/// schedule is recorded separately.
class MutationStream {
 public:
  MutationStream(Fleet& fleet, const Inputs& in, MutationLedger* ledger,
                 PhaseStats* stats)
      : fleet_(fleet), in_(in), ledger_(ledger), stats_(stats),
        thread_([this] { Loop(); }) {}

  ~MutationStream() { Finish(); }

  void Push(const load::TraceEvent& event, SteadyTime sched) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({event.op, event.key, sched});
    cv_.notify_one();
  }

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Item {
    load::TraceEvent::Op op;
    uint64_t key;
    SteadyTime sched;
  };

  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      Apply(item);
    }
  }

  void Apply(const Item& item) {
    const bool is_delete = item.op != load::TraceEvent::Op::kUpsert;
    // Deletes target ids upserted earlier in this run; with none live yet
    // the event is skipped.
    if (is_delete && ledger_->live.empty()) return;
    const SteadyTime sent = SteadyNow();
    stats_->mutation_lag_ms.push_back(MicrosBetween(item.sched, sent) / 1e3);
    bool ok = false;
    if (!is_delete) {
      const std::string text = in_.UpsertText(ledger_->upserted_texts.size());
      const Result<uint64_t> id = fleet_.router->Upsert(text);
      ++stats_->mutations;
      ok = id.ok();
      if (ok) {
        ledger_->upserted_texts.push_back(text);
        ledger_->upserted_ids.push_back(id.value());
        ledger_->live.push_back(id.value());
      }
    } else {
      const size_t slot = item.key % ledger_->live.size();
      const uint64_t target = ledger_->live[slot];
      ++stats_->mutations;
      ok = fleet_.router->Delete(target).ok();
      if (ok) {
        ledger_->live[slot] = ledger_->live.back();
        ledger_->live.pop_back();
        ledger_->deleted.push_back(target);
      }
    }
    if (!ok) {
      ++stats_->mutation_failed;
      return;
    }
    stats_->mutation_ms.push_back(MicrosBetween(sent, SteadyNow()) / 1e3);
    stats_->mutation_at_s.push_back(TrialSeconds(sent));
  }

  Fleet& fleet_;
  const Inputs& in_;
  MutationLedger* ledger_;
  PhaseStats* stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it reads
};

/// Harvests replies in submission order on its own thread.
class Harvester {
 public:
  Harvester(const Inputs& in, const Oracle* oracle, PhaseStats* stats)
      : in_(in), oracle_(oracle), stats_(stats), thread_([this] { Loop(); }) {}

  ~Harvester() { Finish(); }

  void Push(Pending pending) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(pending));
    cv_.notify_one();
  }

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      pending.future.wait();
      Account(in_, oracle_, pending, SteadyNow(), stats_);
    }
  }

  const Inputs& in_;
  const Oracle* oracle_;
  PhaseStats* stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it reads
};

/// Order-independent digest of a match list: (left, right, sim bits).
uint64_t MatchDigest(const std::vector<core::PipelineMatch>& matches) {
  std::vector<std::array<uint32_t, 3>> rows;
  for (const auto& m : matches) {
    uint32_t bits = 0;
    std::memcpy(&bits, &m.sim, sizeof(bits));
    rows.push_back({m.left, m.right, bits});
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ULL;
  for (const auto& row : rows) {
    for (uint32_t v : row) {
      for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

}  // namespace

std::unique_ptr<serve::Router> BuildRouter(
    const Inputs& in, const la::Matrix& corpus,
    std::shared_ptr<embed::EmbeddingModel> model, const std::string& workdir) {
  std::vector<std::unique_ptr<serve::Engine>> engines;
  serve::EngineOptions options;
  options.live = true;
  for (size_t r = 0; r < kReplicas; ++r) {
    auto shards = serve::BuildShardSnapshots(Manifest(in, *model), corpus,
                                             kShards)
                      .value();
    for (serve::Snapshot& shard : shards) {
      engines.push_back(
          serve::Engine::Create(std::move(shard), model, options).value());
    }
  }
  serve::RouterOptions router_options;
  router_options.recovery_dir = workdir;
  return serve::Router::Create(std::move(engines), model, router_options)
      .value();
}

Fleet BuildFleet(const Inputs& in, const std::string& workdir) {
  Fleet fleet;
  WallTimer timer;
  fleet.model = std::shared_ptr<embed::EmbeddingModel>(
      embed::CreateModel(embed::ModelId::kSGtrT5));
  fleet.model->Initialize();
  std::vector<std::string> base(in.right.begin(),
                                in.right.begin() + in.base_rows);
  fleet.corpus = fleet.model->VectorizeAll(base);
  if (in.spec->router) {
    fleet.router = BuildRouter(in, fleet.corpus, fleet.model, workdir);
  } else {
    fleet.engine = serve::Engine::Create(
                       serve::Snapshot::Build(Manifest(in, *fleet.model),
                                              fleet.corpus),
                       fleet.model, serve::EngineOptions{})
                       .value();
  }
  fleet.setup_s = timer.Seconds();
  return fleet;
}

serve::SnapshotManifest Manifest(const Inputs& in,
                                 const embed::EmbeddingModel& model) {
  serve::SnapshotManifest manifest;
  manifest.model_code = model.info().code;
  manifest.default_k = 10;
  manifest.dataset = in.spec->dataset;
  return manifest;
}

Oracle BuildEngineOracle(const Inputs& in, Fleet& fleet) {
  Oracle oracle;
  const la::Matrix queries = fleet.model->VectorizeAll(in.left);
  std::vector<uint64_t> ids(fleet.corpus.rows());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  oracle.by_key = DotOracle(fleet.corpus, ids, queries, 10);
  return oracle;
}

void WarmUp(Fleet& fleet, const Inputs& in) {
  // Untimed: lets lazy set-up and caches settle before the first phase.
  std::vector<std::future<Reply>> replies;
  for (size_t i = 0; i < 2 * in.spec->window; ++i) {
    auto submitted = Submit(fleet, in.ProbeText(kProbes + i), kNoDeadline);
    if (submitted.ok()) replies.push_back(std::move(submitted).value());
  }
  for (auto& reply : replies) reply.get();
}

PhaseStats RunClosedPhase(Fleet& fleet, const Inputs& in,
                          const Oracle* oracle) {
  PhaseStats stats;
  std::deque<Pending> window;
  const auto drain_one = [&] {
    window.front().future.wait();
    Account(in, oracle, window.front(), SteadyNow(), &stats);
    window.pop_front();
  };
  const SteadyTime start = SteadyNow();
  for (const load::TraceEvent& event : in.trace.events) {
    if (event.arrival_micros >= in.closed_end_micros) break;
    if (event.op != load::TraceEvent::Op::kQuery) continue;
    if (window.size() >= in.spec->window) drain_one();
    const SteadyTime now = SteadyNow();
    const SteadyTime deadline =
        AfterMicros(now, static_cast<int64_t>(in.spec->slo_ms * 1e3));
    ++stats.attempted;
    auto submitted = Submit(fleet, in.QueryText(event.key), deadline);
    if (!submitted.ok()) {
      ++stats.refused;
      continue;
    }
    window.push_back({std::move(submitted).value(), now, event.key});
  }
  while (!window.empty()) drain_one();
  const SteadyTime end = SteadyNow();
  stats.seconds = MicrosBetween(start, end) / 1e6;
  stats.start_s = TrialSeconds(start);
  stats.end_s = TrialSeconds(end);
  return stats;
}

PhaseStats RunOpenPhase(Fleet& fleet, const Inputs& in, const Oracle* oracle,
                        int64_t begin_micros, int64_t end_micros,
                        MutationLedger* ledger) {
  PhaseStats stats;
  const double cpu0 = ProcessCpuSeconds();
  const SteadyTime start = SteadyNow();
  {
    Harvester harvester(in, oracle, &stats);
    std::unique_ptr<MutationStream> mutations;
    if (fleet.router && ledger != nullptr) {
      mutations = std::make_unique<MutationStream>(fleet, in, ledger, &stats);
    }
    for (const load::TraceEvent& event : in.trace.events) {
      if (event.arrival_micros < begin_micros) continue;
      if (event.arrival_micros >= end_micros) break;
      const SteadyTime sched =
          AfterMicros(start, event.arrival_micros - begin_micros);
      std::this_thread::sleep_until(sched);
      if (event.op != load::TraceEvent::Op::kQuery) {
        if (mutations) mutations->Push(event, sched);
        continue;
      }
      stats.lateness_ms.push_back(MicrosBetween(sched, SteadyNow()) / 1e3);
      ++stats.attempted;
      ++stats.scheduled_queries;
      const SteadyTime deadline =
          AfterMicros(sched, static_cast<int64_t>(in.spec->slo_ms * 1e3));
      auto submitted = Submit(fleet, in.QueryText(event.key), deadline);
      if (!submitted.ok()) {
        ++stats.refused;
        continue;
      }
      harvester.Push({std::move(submitted).value(), sched, event.key});
    }
    harvester.Finish();
    if (mutations) mutations->Finish();
  }
  stats.seconds = MicrosBetween(start, SteadyNow()) / 1e6;
  stats.cpu_s = ProcessCpuSeconds() - cpu0;
  return stats;
}

PhaseStats RunTwinMutations(const Inputs& in, Fleet& fleet,
                            stream::LiveStats* live_stats,
                            serve::EngineMetrics* metrics) {
  // engine_zipf_read serves a frozen engine; its mutation latency is taken
  // on a live twin over the same corpus so every workload reports it.
  PhaseStats stats;
  serve::EngineOptions options;
  options.live = true;
  auto twin = serve::Engine::Create(
                  serve::Snapshot::Build(Manifest(in, *fleet.model),
                                         fleet.corpus),
                  fleet.model, options)
                  .value();
  std::vector<uint64_t> ids;
  const auto timed = [&](auto submit) {
    const SteadyTime t0 = SteadyNow();
    ++stats.mutations;
    auto handle = submit();
    if (!handle.ok()) {
      ++stats.mutation_failed;
      return;
    }
    auto reply = handle.value().get();
    if (!reply.ok()) {
      ++stats.mutation_failed;
      return;
    }
    stats.mutation_ms.push_back(MicrosBetween(t0, SteadyNow()) / 1e3);
    stats.mutation_at_s.push_back(TrialSeconds(t0));
    ids.push_back(reply.value().id);
  };
  for (size_t i = 0; i < kSequentialUpserts; ++i) {
    timed([&] { return twin->Upsert(in.left[(i * 31) % in.left.size()]); });
  }
  const std::vector<uint64_t> upserted = ids;
  for (size_t i = 0; i < upserted.size(); i += 2) {
    timed([&] { return twin->Delete(upserted[i]); });
  }
  *live_stats = twin->LiveStats();
  twin->Stop();
  if (metrics != nullptr) *metrics = twin->Metrics();
  return stats;
}

PhaseStats RunRouterMutations(const Inputs& in, Fleet& fleet,
                              MutationLedger* ledger) {
  // Queued all at once, applied one at a time by the stream's thread: each
  // is timed from its own send, with no reads in flight.
  PhaseStats stats;
  {
    MutationStream stream(fleet, in, ledger, &stats);
    const SteadyTime now = SteadyNow();
    load::TraceEvent event;
    for (size_t i = 0; i < kSequentialUpserts; ++i) {
      event.op = load::TraceEvent::Op::kUpsert;
      stream.Push(event, now);
    }
    for (size_t i = 0; i < kSequentialUpserts / 2; ++i) {
      event.op = load::TraceEvent::Op::kDelete;
      event.key = 2 * i;
      stream.Push(event, now);
    }
  }
  return stats;
}

RouterCheck CheckRouter(const Inputs& in, Fleet& fleet,
                        const MutationLedger& ledger) {
  RouterCheck check;
  serve::Router& router = *fleet.router;
  const SteadyTime give_up = AfterMicros(SteadyNow(), 10'000'000);
  while (!router.Converged() && SteadyNow() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  check.converged = router.Converged();
  check.digests_equal = true;
  for (uint32_t s = 0; s < router.shard_count(); ++s) {
    const auto first = router.replicas(s)[0]->Digest();
    for (size_t r = 1; r < router.replica_count(s); ++r) {
      const auto other = router.replicas(s)[r]->Digest();
      if (!first.ok() || !other.ok() ||
          !recover::SameContent(first.value(), other.value())) {
        check.digests_equal = false;
      }
    }
  }

  // Sequential from-scratch oracle over the live rows: base rows keep
  // their corpus index as global id; upserts carry the ids the router
  // assigned; deletes are removed.
  std::vector<std::pair<uint64_t, const float*>> rows;
  for (size_t i = 0; i < fleet.corpus.rows(); ++i) {
    rows.emplace_back(i, fleet.corpus.Row(i));
  }
  const la::Matrix upserted = fleet.model->VectorizeAll(ledger.upserted_texts);
  std::vector<uint64_t> dead = ledger.deleted;
  std::sort(dead.begin(), dead.end());
  for (size_t i = 0; i < ledger.upserted_ids.size(); ++i) {
    if (std::binary_search(dead.begin(), dead.end(), ledger.upserted_ids[i])) {
      continue;
    }
    rows.emplace_back(ledger.upserted_ids[i], upserted.Row(i));
  }
  std::sort(rows.begin(), rows.end());
  la::Matrix live(rows.size(), fleet.corpus.cols());
  std::vector<uint64_t> ids(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(live.Row(i), rows[i].second, live.cols() * sizeof(float));
    ids[i] = rows[i].first;
  }
  std::vector<std::string> texts;
  for (size_t i = 0; i < kProbes; ++i) texts.push_back(in.ProbeText(i));
  const la::Matrix probe_vectors = fleet.model->VectorizeAll(texts);
  const auto oracle = DotOracle(live, ids, probe_vectors, 10);

  // Probes go through the router with the closed loop's window.
  check.probes_ok = true;
  std::deque<std::future<Reply>> window;
  size_t answered = 0;
  const auto drain_one = [&] {
    const Reply reply = window.front().get();
    window.pop_front();
    const size_t i = answered++;
    if (!reply.status.ok()) {
      check.probes_ok = false;
      return;
    }
    const ReplyCheck one = CheckReply(reply.neighbors, oracle[i]);
    ++check.checked;
    check.bitexact += one.bitexact ? 1 : 0;
    check.overlap += one.overlap;
    if (!one.correct) check.probes_ok = false;
  };
  for (size_t i = 0; i < kProbes; ++i) {
    if (window.size() >= in.spec->window) drain_one();
    auto submitted = Submit(fleet, texts[i], kNoDeadline);
    if (!submitted.ok()) {
      // Keep reply order aligned with the oracle.
      window.push_back(std::async(std::launch::deferred, [s = submitted.status()] {
        return Reply{s, {}};
      }));
      continue;
    }
    window.push_back(std::move(submitted).value());
  }
  while (!window.empty()) drain_one();
  return check;
}

BulkStats RunBulk(const Inputs& in, Fleet& fleet, bool reproduce) {
  BulkStats bulk;
  eval::GroundTruth truth;
  for (const auto& [l, r] : in.data.matches) truth.AddCleanCleanPair(l, r);
  const core::ErPipeline pipeline{core::PipelineOptions{}};
  WallTimer timer;
  const core::PipelineResult result = pipeline.Run(in.left, in.right);
  bulk.seconds = timer.Seconds();
  bulk.records = in.left.size() + in.right.size();
  bulk.blocking_s = result.blocking_seconds;
  bulk.matching_s = result.matching_seconds;
  bulk.candidates = in.left.size() * 10;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& m : result.matches) pairs.emplace_back(m.left, m.right);
  const eval::PrfMetrics prf = eval::EvaluateCleanCleanMatches(pairs, truth);
  bulk.f1 = prf.f1;
  bulk.recall = prf.recall;
  bulk.digest = MatchDigest(result.matches);
  if (!reproduce) return bulk;

  // Independent path to the same matches: the serving model's embeddings
  // (corpus from set-up, holdout and left embedded here) through
  // RunOnVectors must reproduce the match list bit for bit.
  la::Matrix right(in.right.size(), fleet.corpus.cols());
  std::memcpy(right.Row(0), fleet.corpus.Row(0),
              fleet.corpus.rows() * fleet.corpus.cols() * sizeof(float));
  if (in.base_rows < in.right.size()) {
    const std::vector<std::string> held(in.right.begin() + in.base_rows,
                                        in.right.end());
    const la::Matrix held_vectors = fleet.model->VectorizeAll(held);
    std::memcpy(right.Row(in.base_rows), held_vectors.Row(0),
                held_vectors.rows() * held_vectors.cols() * sizeof(float));
  }
  const la::Matrix left = fleet.model->VectorizeAll(in.left);
  bulk.reproduced =
      MatchDigest(pipeline.RunOnVectors(left, right).matches) == bulk.digest;
  return bulk;
}

}  // namespace perfbench
