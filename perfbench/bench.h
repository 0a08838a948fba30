// Shared declarations of the perfbench trial binary: workload specs, generated
// inputs, the trial record it writes, and small measurement helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/benchmark_datasets.h"
#include "embed/embedding_model.h"
#include "index/neighbor.h"
#include "la/matrix.h"
#include "load/trace.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "stream/live_corpus.h"

namespace perfbench {

using ember::index::Neighbor;

/// One named workload. Every field is fixed per workload; only the seed
/// varies between runs.
struct WorkloadSpec {
  const char* name;
  const char* dataset;  // Clean-Clean dataset id, generated at scale 1
  bool router;          // 2 shards x 2 replicas behind serve::Router
  double zipf_s;        // query key skew (0 = uniform)
  /// Query keys are drawn from left_rows * key_variants keys; key / left_rows
  /// picks a text variant, so variants > 1 makes query texts (almost)
  /// never repeat.
  uint64_t key_variants;
  double upsert_fraction;
  double delete_fraction;
  size_t holdout;        // right rows kept out of the base for upserts
  double closed_qps;     // nominal rate that sizes the closed-loop work
  double low_qps;
  double high_qps;
  double slo_ms;         // latency limit == per-query deadline
  size_t window;         // closed-loop outstanding requests
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything a run feeds the program, generated from (workload, seed).
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  ember::datagen::CleanCleanDataset data;
  std::vector<std::string> left;   // left sentences (query sources)
  std::vector<std::string> right;  // right sentences (corpus + holdout)
  size_t base_rows = 0;            // right[0, base_rows) is the corpus
  /// One GenerateTrace schedule with three phases back to back: closed
  /// (fixed work, run as fast as the window allows), low, high.
  ember::load::Trace trace;
  int64_t closed_end_micros = 0;
  int64_t low_end_micros = 0;

  std::string QueryText(uint64_t key) const;
  std::string UpsertText(uint64_t ordinal) const;
  /// Fresh query texts for post-run probes (never part of the schedule).
  std::string ProbeText(size_t i) const;
};

/// Per-phase seconds of serving measurement in one trial.
struct PhasePlan {
  double closed_s = 0;
  double low_s = 0;
  double high_s = 0;
};

PhasePlan PlanPhases(double serve_seconds);
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  const PhasePlan& plan);
ember::load::Trace MakeTrace(const WorkloadSpec& spec, uint64_t seed,
                             size_t left_rows, const PhasePlan& plan);

/// Operations each phase of the schedule plans: closed-loop queries, and
/// every event (queries and mutations) of the open phases.
struct PhaseCounts {
  uint64_t closed = 0, low = 0, high = 0;
};
PhaseCounts CountPhases(const Inputs& in);

/// Flat JSON object builder (numbers, strings, raw nested values).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, const std::string& json);
  Json& Array(const std::string& key, const std::vector<double>& values);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Seconds from the trial's start to `t`: the time axis of every timestamp
/// a trial records. The first call fixes the start.
double TrialSeconds(ember::SteadyTime t);

/// Reads the host's CPU steal from /proc/stat every kIntervalS on its own
/// thread, from construction until Stop(). On a shared host a hypervisor
/// that takes a core for a few milliseconds stalls the pool's parallel
/// regions; run.py uses these readings to set aside samples taken in the
/// intervals it disturbed (see README.md, "Host CPU steal").
class HostSampler {
 public:
  static constexpr double kIntervalS = 0.25;
  HostSampler();
  ~HostSampler() { Stop(); }
  void Stop();
  /// Adds host_t_s, host_steal and host_total (jiffies over all CPUs).
  void Write(Json* record) const;

 private:
  void Sample();

  std::vector<double> t_s_, steal_, total_;
  double steal0_ = 0, total0_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: started after the members it writes
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double p);
double ProcessCpuSeconds();
double PeakRssMb();

/// Prints a progress marker the wrapper reads to account for operations a
/// crashed trial lost; flushed immediately.
void Progress(const std::string& line);

/// Reply check against the exact oracle: correct when every rank's
/// distance agrees within float noise and ids differ only between
/// equal-distance neighbours; bitexact when ids and distance bits match.
struct ReplyCheck {
  bool correct = false;
  bool bitexact = false;
  size_t overlap = 0;  // |reply ids ∩ oracle ids|
};
ReplyCheck CheckReply(const std::vector<Neighbor>& reply,
                      const std::vector<Neighbor>& oracle);

/// Exact top-k of each query by la::Dot against every corpus row, one
/// query and one row at a time: the score every scan promises to match bit
/// for bit. Row r carries global id ids[r]; ties break by id (CloserThan).
std::vector<std::vector<Neighbor>> DotOracle(
    const ember::la::Matrix& corpus, const std::vector<uint64_t>& ids,
    const ember::la::Matrix& queries, size_t k);

// ---------------------------------------------------------------------------
// Serving side (serving.cc)

/// The system under test, built from the generated inputs.
struct Fleet {
  std::shared_ptr<ember::embed::EmbeddingModel> model;
  ember::la::Matrix corpus;  // embedded right[0, base_rows): the base rows
  std::unique_ptr<ember::serve::Engine> engine;  // engine workloads
  std::unique_ptr<ember::serve::Router> router;  // router workloads
  double setup_s = 0;
};

/// Exact batch-1 answers for every left record (engine workloads, whose
/// corpus never changes).
struct Oracle {
  std::vector<std::vector<Neighbor>> by_key;
};

/// Tallies of one phase. Latencies are in ms from the scheduled send (open
/// loop) or the submit (closed loop).
struct PhaseStats {
  uint64_t attempted = 0;  // queries submitted or refused
  uint64_t refused = 0;    // Submit returned an error
  uint64_t failed = 0;     // future carried a non-deadline error
  uint64_t expired = 0;    // shed at the deadline
  uint64_t ok = 0;
  uint64_t wrong = 0;      // answered, but not the oracle's neighbours
  uint64_t slo_hits = 0;   // ok, correct and within the latency limit
  uint64_t scheduled_queries = 0;
  uint64_t checked = 0, bitexact = 0, overlap = 0;
  uint64_t mutations = 0, mutation_failed = 0;
  double seconds = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> latency_at_s;  // TrialSeconds of each sample's start
  std::vector<double> done_at_s;     // TrialSeconds of each ok reply
  double start_s = 0, end_s = 0;     // TrialSeconds of the phase's span
  std::vector<double> lateness_ms;
  std::vector<double> mutation_ms;      // from send to reply
  std::vector<double> mutation_at_s;    // TrialSeconds of each send
  std::vector<double> mutation_lag_ms;  // scheduled send to actual send
};

/// What the router mutation stream did, for the post-run oracle.
struct MutationLedger {
  std::vector<std::string> upserted_texts;
  std::vector<uint64_t> upserted_ids;
  std::vector<uint64_t> live;  // upserted and not deleted
  std::vector<uint64_t> deleted;
};

struct RouterCheck {
  bool converged = false;
  bool digests_equal = false;
  bool probes_ok = false;
  uint64_t checked = 0, bitexact = 0, overlap = 0;
};

struct BulkStats {
  double seconds = 0;
  uint64_t records = 0;
  double blocking_s = 0, matching_s = 0;
  uint64_t candidates = 0;
  double f1 = 0, recall = 0;
  uint64_t digest = 0;
  bool reproduced = false;
};

ember::serve::SnapshotManifest Manifest(
    const Inputs& in, const ember::embed::EmbeddingModel& model);
/// 2 shards x 2 replicas of live exact engines over `corpus`.
std::unique_ptr<ember::serve::Router> BuildRouter(
    const Inputs& in, const ember::la::Matrix& corpus,
    std::shared_ptr<ember::embed::EmbeddingModel> model,
    const std::string& workdir);
Fleet BuildFleet(const Inputs& in, const std::string& workdir);
Oracle BuildEngineOracle(const Inputs& in, Fleet& fleet);
/// Untimed warm-up queries (fresh texts, not part of the schedule).
void WarmUp(Fleet& fleet, const Inputs& in);
PhaseStats RunClosedPhase(Fleet& fleet, const Inputs& in,
                          const Oracle* oracle);
PhaseStats RunOpenPhase(Fleet& fleet, const Inputs& in, const Oracle* oracle,
                        int64_t begin_micros, int64_t end_micros,
                        MutationLedger* ledger);
/// Upserts of the sequential mutation phase, one at a time with no reads
/// in flight; every other one is then deleted.
constexpr size_t kSequentialUpserts = 128;
PhaseStats RunTwinMutations(const Inputs& in, Fleet& fleet,
                            ember::stream::LiveStats* live_stats,
                            ember::serve::EngineMetrics* metrics);
/// The sequential mutation phase of a router workload, through
/// Router::Upsert and Router::Delete; the ledger records what it did.
PhaseStats RunRouterMutations(const Inputs& in, Fleet& fleet,
                              MutationLedger* ledger);
RouterCheck CheckRouter(const Inputs& in, Fleet& fleet,
                        const MutationLedger& ledger);
/// One bulk ErPipeline::Run; with `reproduce`, also checks that
/// RunOnVectors over the serving model's embeddings gives the same matches.
BulkStats RunBulk(const Inputs& in, Fleet& fleet, bool reproduce);

// ---------------------------------------------------------------------------

struct TrialArgs {
  std::string mode;  // serve | probe | schedule
  int bulk = 0;       // serve: bulk ER pipeline runs after serving
  int setups = 1;     // serve: fleet set-ups timed; the last one serves
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out;        // trial record path
  std::string workdir = ".";  // scratch files (router resync hand-off)
  std::string trace_out;      // Chrome trace path (probe mode)
};

int RunServeTrial(const TrialArgs& args);
int RunProbeTrial(const TrialArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
