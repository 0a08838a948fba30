// Small command-line front end to the library:
//
//   ember_cli models
//       List the 12 reproduced embedding models (Table 1 metadata).
//   ember_cli block <D1..D10> [--k n] [--scale f] [--seed n] [--hnsw]
//       Generate the dataset, embed with S-GTR-T5, top-k block, report
//       recall.
//   ember_cli pipeline <D1..D10> [--scale f] [--seed n] [--auto]
//       End-to-end blocking + matching with Unique Mapping Clustering.
//   ember_cli serve-bench <D1..D10> [--scale f] [--seed n] [--k n]
//       [--index exact|hnsw|lsh] [--storage f32|int8] [--snapshot path]
//       [--shards N] [--replicas R] [--qps n] [--duration s] [--batch n]
//       [--wait-us n] [--queue n] [--deadline-ms f] [--workers n]
//       [--tenants n] [--quota f] [--quota-burst f] [--policy edf|fifo]
//       [--trace-file path] [--kill-replica s:r [--rejoin-replica]]
//       [--trace path] [--metrics]
//       Serve the dataset's corpus and drive an open-loop load (or, with
//       --trace-file, a timed replay of a recorded EMBT0001 trace), then
//       dump latency metrics. A 1x1 fleet is one bare engine; any other
//       --shards x --replicas shape is a serve::Router over that many
//       engines (health-aware scatter-gather). Only a router runs the
//       --kill-replica drill; only one engine takes --trace-file.
//       --snapshot (a shard-set prefix for N > 1 shards) is loaded
//       fail-closed when its files exist, else built and saved. --tenants
//       tags submissions round-robin, --quota arms per-tenant token
//       buckets and --policy picks the drain order. --trace writes a
//       Chrome trace_event JSON (open it at ui.perfetto.dev); --metrics
//       prints the Prometheus exposition of the metrics registry after the
//       run.
//   ember_cli metrics-dump <D1..D10> [--json] [--requests n] [--scale f]
//       [--seed n] [--k n] [--index exact|hnsw|lsh]
//       Run a short closed-loop serve workload and print the global
//       metrics registry: Prometheus text exposition by default, the
//       JSON exporter with --json.
//   ember_cli trace-dump <D1..D10> [--out path] [--requests n] [--scale f]
//       [--seed n] [--k n] [--index exact|hnsw|lsh]
//       Run the same workload with tracing enabled and write the span
//       stream as Chrome trace_event JSON (default trace.json), plus a
//       per-stage time breakdown on stdout.
//   ember_cli snapshot-convert <in> <out> [--quantize int8]
//       Load a snapshot (fail-closed) and re-save it, optionally building
//       the int8 scan tier for exact snapshots.
//   ember_cli stream-dedup <D1..D10> [--scale f] [--seed n] [--k n]
//       [--threshold t] [--report n] [--compact-rows n] [--snapshot path]
//       Streaming ER against a live corpus (DESIGN.md §14): start from an
//       EMPTY live snapshot, stream the dataset's records one at a time,
//       resolve each against the corpus so far (best cross-side neighbor
//       with sim = (1 + cos) / 2 >= --threshold => merge clusters), then
//       admit the record via Engine::Upsert. A background Compactor folds
//       the delta tier into fresh base snapshots (--snapshot path) while
//       the stream runs. Reports incremental pairwise precision/recall/F1
//       every --report records and a final greppable summary line.
//   ember_cli snapshot-shard <D1..D10> --shards N [--prefix p] [--scale f]
//       [--seed n] [--k n] [--index exact|hnsw|lsh] [--storage f32|int8]
//       Partition the dataset's corpus round-robin into N shard snapshots
//       (<prefix>.s<i>-of-<N>.snap), then validate the set by loading it
//       back fail-closed and, for exact indexes, spot-checking that the
//       k-way merged per-shard top-k is bit-identical to the unsharded
//       oracle.
//
//   ember_cli trace-record <out.trace> [--seed n] [--tenants n] [--rows n]
//       [--qps f] [--duration s] [--zipf s] [--upserts f] [--deletes f]
//       [--quota f] [--quota-burst f] [--deadline-ms f]
//       [--phases poisson,burst,diurnal,cold] [--notes s]
//       Generate a seeded multi-tenant workload trace (DESIGN.md §16) and
//       write it as a checksummed EMBT0001 container. The same flags always
//       produce byte-identical files.
//   ember_cli trace-replay <in.trace> [--workers n] [--batch n] [--wait-us n]
//       [--queue n] [--fifo] [--timed] [--speed f] [--outstanding n] [--rows n]
//       Load a trace fail-closed and replay it against one live engine per
//       tenant. Virtual-time by default (bit-reproducible admission
//       decisions and counters — the replay signature is printed for
//       comparison); --timed submits on the recorded open-loop schedule
//       with real deadlines and reports per-tenant latency.
//
// When the build compiles failpoints in (the default), the EMBER_FAILPOINTS
// environment variable arms fault-injection sites before any command runs;
// see common/failpoint.h for the spec grammar.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/timer.h"
#include "core/blocking.h"
#include "core/pipeline.h"
#include "core/stream_clusters.h"
#include "datagen/benchmark_datasets.h"
#include "embed/embedding_model.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "load/generator.h"
#include "load/replayer.h"
#include "load/trace.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "stream/compactor.h"

using namespace ember;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s models\n"
               "       %s block <D1..D10> [--k n] [--scale f] [--seed n] "
               "[--hnsw]\n"
               "       %s pipeline <D1..D10> [--scale f] [--seed n] [--auto]\n"
               "       %s serve-bench <D1..D10> [--scale f] [--seed n] "
               "[--k n] [--index exact|hnsw|lsh] [--storage f32|int8] "
               "[--snapshot path]\n"
               "           [--shards N] [--replicas R] [--qps n] "
               "[--duration s] [--batch n] [--wait-us n] [--queue n] "
               "[--deadline-ms f] [--workers n]\n"
               "           [--tenants n] [--quota f] [--quota-burst f] "
               "[--policy edf|fifo] [--trace-file path (1x1 only)]\n"
               "           [--kill-replica s:r [--rejoin-replica]] "
               "[--trace path] [--metrics]\n"
               "       %s metrics-dump <D1..D10> [--json] [--requests n] "
               "[--scale f] [--seed n] [--k n] [--index exact|hnsw|lsh]\n"
               "       %s trace-dump <D1..D10> [--out path] [--requests n] "
               "[--scale f] [--seed n] [--k n] [--index exact|hnsw|lsh]\n"
               "       %s snapshot-convert <in> <out> [--quantize int8]\n"
               "       %s stream-dedup <D1..D10> [--scale f] [--seed n] "
               "[--k n] [--threshold t] [--report n] [--compact-rows n] "
               "[--snapshot path]\n"
               "       %s snapshot-shard <D1..D10> --shards N [--prefix p] "
               "[--scale f] [--seed n] [--k n] [--index exact|hnsw|lsh] "
               "[--storage f32|int8]\n"
               "       %s trace-record <out.trace> [--seed n] [--tenants n] "
               "[--rows n] [--qps f] [--duration s] [--zipf s] [--upserts f] "
               "[--deletes f] [--quota f] [--quota-burst f] [--deadline-ms f] "
               "[--phases poisson,burst,diurnal,cold] [--notes s]\n"
               "       %s trace-replay <in.trace> [--workers n] [--batch n] "
               "[--wait-us n] [--queue n] [--fifo] [--timed] [--speed f] "
               "[--outstanding n] [--rows n]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0);
  return 2;
}

struct CliArgs {
  std::string dataset;
  size_t k = 10;
  double scale = 0.1;
  uint64_t seed = 41;
  bool hnsw = false;
  bool auto_threshold = false;
  // serve-bench
  std::string index_kind = "exact";
  std::string storage = "f32";
  std::string snapshot_path;
  double qps = 200;
  double duration_seconds = 3;
  size_t max_batch = 32;
  int64_t wait_micros = 2000;
  size_t max_queue = 256;
  double deadline_ms = 50;
  size_t workers = 1;
  // observability
  std::string trace_path;   // serve-bench --trace
  bool dump_metrics = false;  // serve-bench --metrics
  bool json = false;          // metrics-dump --json
  std::string out_path = "trace.json";  // trace-dump --out
  size_t requests = 64;       // metrics-dump/trace-dump workload size
  // sharded serving
  size_t shards = 1;     // serve-bench/snapshot-shard shard count
  size_t replicas = 1;   // serve-bench replicas per shard
  std::string prefix;    // snapshot-shard output prefix
  // recovery drill (serve-bench): kill "s:r" at 1/3 of the run, mutate past
  // it, optionally rejoin at 2/3 and require convergence before exit 0.
  std::string kill_replica;
  bool rejoin_replica = false;
  // stream-dedup
  double threshold = 0.75;   // match when sim = (1 + cos) / 2 >= threshold
  size_t report_every = 0;   // 0: pick ~5 checkpoints from the stream length
  size_t compact_rows = 256; // compactor delta-row trigger (0 disables)
  // workload harness (trace-record / trace-replay / serve-bench, PR 10)
  std::string trace_file;    // serve-bench --trace-file
  size_t tenants = 1;        // tenant count (generation or tagging)
  size_t rows = 0;           // per-tenant corpus rows (0: infer/default)
  double zipf = 1.0;         // Zipf skew exponent
  double upserts = 0;        // upsert fraction of each tenant's events
  double deletes = 0;        // delete fraction
  double quota = 0;          // per-tenant token-bucket rate (0: no quota)
  double quota_burst = 8;    // token-bucket burst capacity
  std::string policy = "edf";  // queue drain order: edf | fifo
  std::string phases = "poisson";  // comma list: poisson|burst|diurnal|cold
  std::string notes;         // trace-record manifest notes
  bool timed = false;        // trace-replay: wall-clock mode
  double speed = 1.0;        // timed replay speedup
  size_t outstanding = 64;   // replay max in-flight queries
};

bool ParseCli(int argc, char** argv, int first, CliArgs& args) {
  if (first >= argc) return false;
  args.dataset = argv[first];
  for (int i = first + 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--k" && i + 1 < argc) {
      args.k = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--scale" && i + 1 < argc) {
      args.scale = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--hnsw") {
      args.hnsw = true;
    } else if (arg == "--auto") {
      args.auto_threshold = true;
    } else if (arg == "--index" && i + 1 < argc) {
      args.index_kind = argv[++i];
    } else if (arg == "--storage" && i + 1 < argc) {
      args.storage = argv[++i];
    } else if (arg == "--snapshot" && i + 1 < argc) {
      args.snapshot_path = argv[++i];
    } else if (arg == "--qps" && i + 1 < argc) {
      args.qps = std::atof(argv[++i]);
    } else if (arg == "--duration" && i + 1 < argc) {
      args.duration_seconds = std::atof(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      args.max_batch = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--wait-us" && i + 1 < argc) {
      args.wait_micros = std::atoll(argv[++i]);
    } else if (arg == "--queue" && i + 1 < argc) {
      args.max_queue = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      args.deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      args.workers = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (arg == "--metrics") {
      args.dump_metrics = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out_path = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      args.requests = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--shards" && i + 1 < argc) {
      args.shards = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--replicas" && i + 1 < argc) {
      args.replicas = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--prefix" && i + 1 < argc) {
      args.prefix = argv[++i];
    } else if (arg == "--kill-replica" && i + 1 < argc) {
      args.kill_replica = argv[++i];
    } else if (arg == "--rejoin-replica") {
      args.rejoin_replica = true;
    } else if (arg == "--threshold" && i + 1 < argc) {
      args.threshold = std::atof(argv[++i]);
    } else if (arg == "--report" && i + 1 < argc) {
      args.report_every = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--compact-rows" && i + 1 < argc) {
      args.compact_rows = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--trace-file" && i + 1 < argc) {
      args.trace_file = argv[++i];
    } else if (arg == "--tenants" && i + 1 < argc) {
      args.tenants = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--rows" && i + 1 < argc) {
      args.rows = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--zipf" && i + 1 < argc) {
      args.zipf = std::atof(argv[++i]);
    } else if (arg == "--upserts" && i + 1 < argc) {
      args.upserts = std::atof(argv[++i]);
    } else if (arg == "--deletes" && i + 1 < argc) {
      args.deletes = std::atof(argv[++i]);
    } else if (arg == "--quota" && i + 1 < argc) {
      args.quota = std::atof(argv[++i]);
    } else if (arg == "--quota-burst" && i + 1 < argc) {
      args.quota_burst = std::atof(argv[++i]);
    } else if (arg == "--policy" && i + 1 < argc) {
      args.policy = argv[++i];
    } else if (arg == "--fifo") {
      args.policy = "fifo";
    } else if (arg == "--phases" && i + 1 < argc) {
      args.phases = argv[++i];
    } else if (arg == "--notes" && i + 1 < argc) {
      args.notes = argv[++i];
    } else if (arg == "--timed") {
      args.timed = true;
    } else if (arg == "--speed" && i + 1 < argc) {
      args.speed = std::atof(argv[++i]);
    } else if (arg == "--outstanding" && i + 1 < argc) {
      args.outstanding = static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      return false;
    }
  }
  return true;
}

int RunModels() {
  eval::Table table("ember models (Table 1)");
  table.SetHeader({"code", "name", "family", "dim", "max_seq", "params_M"});
  for (const embed::ModelId id : embed::AllModels()) {
    const embed::ModelInfo& info = embed::GetModelInfo(id);
    table.AddRow({info.code, info.name, embed::ModelFamilyName(info.family),
                  std::to_string(info.dim),
                  info.max_seq_tokens == 0 ? "-"
                                           : std::to_string(info.max_seq_tokens),
                  info.param_millions < 0
                      ? "-"
                      : eval::Table::Num(info.param_millions, 0)});
  }
  table.Print();
  return 0;
}

/// The query-side model every serving command embeds with.
std::shared_ptr<embed::EmbeddingModel> ServingModel() {
  std::shared_ptr<embed::EmbeddingModel> model =
      embed::CreateModel(embed::ModelId::kSGtrT5);
  model->Initialize();
  return model;
}

/// What every dataset command starts from: the generated dataset, the
/// query-side model, the --index/--storage flags and, for a recovery drill,
/// the replica to kill.
struct DatasetInputs {
  datagen::CleanCleanDataset data;
  std::shared_ptr<embed::EmbeddingModel> model;
  serve::IndexKind kind = serve::IndexKind::kExact;
  serve::StorageKind storage = serve::StorageKind::kFloat32;
  bool drill = false;
  uint32_t kill_shard = 0;
  size_t kill_replica = 0;
};

/// Checks the serving flags before any work: the fleet shape, the drill
/// flags, --trace-file, the dataset, --index and --storage. Then generates
/// the dataset and starts the model. Returns 0, or the exit code.
int PrepareInputs(const CliArgs& args, DatasetInputs& in) {
  if (args.shards < 1 || args.replicas < 1) {
    std::fprintf(stderr, "--shards and --replicas must be >= 1\n");
    return 2;
  }
  if (!args.trace_file.empty() && (args.shards > 1 || args.replicas > 1)) {
    std::fprintf(stderr, "--trace-file replays through a single engine; it "
                         "cannot be combined with --shards/--replicas\n");
    return 1;
  }
  // Recovery drill: --kill-replica s:r takes one replica down a third of the
  // way into the run while mutations keep flowing; --rejoin-replica brings
  // it back at two thirds. R >= 2 keeps the group serving through the
  // outage.
  in.drill = !args.kill_replica.empty();
  if (args.rejoin_replica && !in.drill) {
    std::fprintf(stderr, "--rejoin-replica needs --kill-replica\n");
    return 1;
  }
  if (in.drill) {
    int s = -1, r = -1;
    if (std::sscanf(args.kill_replica.c_str(), "%d:%d", &s, &r) != 2 ||
        s < 0 || r < 0 || static_cast<size_t>(s) >= args.shards ||
        static_cast<size_t>(r) >= args.replicas) {
      std::fprintf(stderr,
                   "--kill-replica wants s:r with s < %zu and r < %zu\n",
                   args.shards, args.replicas);
      return 1;
    }
    if (args.replicas < 2) {
      std::fprintf(stderr, "--kill-replica needs --replicas >= 2\n");
      return 1;
    }
    in.kill_shard = static_cast<uint32_t>(s);
    in.kill_replica = static_cast<size_t>(r);
  }
  const auto spec = datagen::CleanCleanSpecById(args.dataset);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown dataset '%s'\n", args.dataset.c_str());
    return 1;
  }
  const auto kind = serve::IndexKindFromString(args.index_kind);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  const auto storage = serve::StorageKindFromString(args.storage);
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.status().ToString().c_str());
    return 1;
  }
  in.kind = kind.value();
  in.storage = storage.value();
  in.data = datagen::GenerateCleanClean(spec.value(), args.scale, args.seed);
  in.model = ServingModel();
  return 0;
}

struct LoadedDataset {
  eval::GroundTruth truth;
  la::Matrix left, right;
};

bool LoadAndEmbed(const CliArgs& args, LoadedDataset& out) {
  DatasetInputs in;
  if (PrepareInputs(args, in) != 0) return false;
  for (const auto& [l, r] : in.data.matches) {
    out.truth.AddCleanCleanPair(l, r);
  }
  out.left = in.model->VectorizeAll(in.data.left.AllSentences());
  out.right = in.model->VectorizeAll(in.data.right.AllSentences());
  return true;
}

int RunBlock(const CliArgs& args) {
  LoadedDataset loaded;
  if (!LoadAndEmbed(args, loaded)) return 1;
  core::BlockingOptions options;
  options.k = args.k;
  options.use_hnsw = args.hnsw;
  options.hnsw.seed = args.seed;
  const core::BlockingResult blocked =
      core::BlockCleanClean(loaded.left, loaded.right, options);
  const eval::PrfMetrics metrics =
      eval::EvaluateCleanCleanCandidates(blocked.candidates, loaded.truth);
  std::printf("%s  %s  k=%zu  recall=%.4f  index=%.3fs query=%.3fs\n",
              args.dataset.c_str(), args.hnsw ? "hnsw" : "exact", args.k,
              metrics.recall, blocked.index_seconds, blocked.query_seconds);
  return 0;
}

int RunPipeline(const CliArgs& args) {
  LoadedDataset loaded;
  if (!LoadAndEmbed(args, loaded)) return 1;
  core::PipelineOptions options;
  options.auto_threshold = args.auto_threshold;
  core::ErPipeline pipeline(options);
  const core::PipelineResult result =
      pipeline.RunOnVectors(loaded.left, loaded.right);
  std::vector<std::pair<uint32_t, uint32_t>> predicted;
  for (const auto& m : result.matches) predicted.emplace_back(m.left, m.right);
  const eval::PrfMetrics metrics =
      eval::EvaluateCleanCleanMatches(predicted, loaded.truth);
  std::printf(
      "%s  delta=%.3f  precision=%.4f recall=%.4f f1=%.4f  "
      "block=%.3fs match=%.3fs\n",
      args.dataset.c_str(), result.threshold_used, metrics.precision,
      metrics.recall, metrics.f1, result.blocking_seconds,
      result.matching_seconds);
  return 0;
}

/// The synthetic tenants of --tenants n are t0..t<n-1>.
std::string TenantName(size_t t) { return "t" + std::to_string(t); }

serve::QueuePolicy PolicyFromFlag(const std::string& flag) {
  return flag == "fifo" ? serve::QueuePolicy::kFifo : serve::QueuePolicy::kEdf;
}

/// --quota gives every synthetic tenant (t0..tN-1) the same bucket.
std::vector<serve::TenantQuota> QuotasFromFlags(const CliArgs& args) {
  std::vector<serve::TenantQuota> quotas;
  if (args.quota <= 0) return quotas;
  for (size_t t = 0; t < std::max<size_t>(1, args.tenants); ++t) {
    quotas.push_back({TenantName(t), args.quota, args.quota_burst});
  }
  return quotas;
}

/// EngineOptions or RouterOptions from the batcher flags (--k, --queue,
/// --batch, --wait-us). Only the front end that takes Submit (a bare
/// Engine, or the Router) also gets --workers, --policy and the --quota
/// buckets: a router's shard engines keep one worker, EDF and no quotas, so
/// admission happens once, at the router.
template <class Options>
Options OptionsFromFlags(const CliArgs& args, bool front_end = true) {
  Options options;
  options.k = args.k;
  options.max_queue = args.max_queue;
  options.max_batch = args.max_batch;
  options.max_wait_micros = args.wait_micros;
  if (front_end) {
    options.workers = args.workers;
    options.queue_policy = PolicyFromFlag(args.policy);
    options.quotas = QuotasFromFlags(args);
  }
  return options;
}

/// Submit options of open-loop request `i`: the --deadline-ms budget from
/// now and, with --tenants N or --quota, the round-robin tenant t<i mod N>
/// so the per-tenant ledger (and any --quota buckets) see a multi-tenant
/// mix.
serve::SubmitOptions OpenLoopSubmit(const CliArgs& args, size_t i) {
  serve::SubmitOptions submit =
      AfterMicros(SteadyNow(), static_cast<int64_t>(args.deadline_ms * 1e3));
  if (args.tenants > 1 || args.quota > 0) {
    submit.tenant = TenantName(i % std::max<size_t>(1, args.tenants));
  }
  return submit;
}

/// What `now` recorded after `before`: every counter, histogram and tenant
/// row serve-bench prints. Tenants idle in between drop out.
serve::RouterMetrics MetricsSince(const serve::RouterMetrics& before,
                                  serve::RouterMetrics now) {
  for (auto [field, old] : {
           std::pair{&now.submitted, before.submitted},
           {&now.completed, before.completed},
           {&now.rejected, before.rejected},
           {&now.throttled, before.throttled},
           {&now.expired, before.expired},
           {&now.failed, before.failed},
           {&now.deadline_misses, before.deadline_misses},
           {&now.batches, before.batches},
           {&now.retries, before.retries},
           {&now.partial, before.partial},
           {&now.shards_degraded, before.shards_degraded},
           {&now.sibling_retries, before.sibling_retries},
           {&now.quarantines, before.quarantines},
           {&now.catchups, before.catchups},
           {&now.resyncs, before.resyncs},
           {&now.replayed_mutations, before.replayed_mutations},
           {&now.digest_mismatches, before.digest_mismatches},
       }) {
    *field -= old;
  }
  now.queue_micros.Subtract(before.queue_micros);
  now.total_micros.Subtract(before.total_micros);
  now.batch_size.Subtract(before.batch_size);
  now.embed_micros.Subtract(before.embed_micros);
  now.fanout_micros.Subtract(before.fanout_micros);
  now.gather_micros.Subtract(before.gather_micros);
  now.merge_micros.Subtract(before.merge_micros);
  for (size_t s = 0; s < before.shard_micros.size(); ++s) {
    for (size_t r = 0; r < before.shard_micros[s].size(); ++r) {
      now.shard_micros[s][r].Subtract(before.shard_micros[s][r]);
    }
  }
  std::vector<serve::TenantCounters> tenants;
  for (serve::TenantCounters& tenant : now.tenants) {
    for (const serve::TenantCounters& old : before.tenants) {
      if (old.tenant != tenant.tenant) continue;
      tenant.submitted -= old.submitted;
      tenant.completed -= old.completed;
      tenant.expired -= old.expired;
      tenant.failed -= old.failed;
      tenant.throttled -= old.throttled;
      tenant.rejected -= old.rejected;
      tenant.deadline_misses -= old.deadline_misses;
      tenant.total_micros.Subtract(old.total_micros);
    }
    if (tenant.submitted + tenant.throttled + tenant.rejected > 0) {
      tenants.push_back(std::move(tenant));
    }
  }
  now.tenants = std::move(tenants);
  return now;
}

/// Prints the per-tenant rows of an Engine or Router metrics snapshot
/// (skipped when the front end saw no tenant-aware traffic).
void PrintTenantTable(const std::vector<serve::TenantCounters>& tenants) {
  if (tenants.empty()) return;
  eval::Table table("per-tenant admission + latency");
  table.SetHeader({"tenant", "submitted", "throttled", "rejected", "completed",
                   "expired", "failed", "late", "p50_ms", "p99_ms"});
  for (const serve::TenantCounters& tenant : tenants) {
    table.AddRow({tenant.tenant, std::to_string(tenant.submitted),
                  std::to_string(tenant.throttled),
                  std::to_string(tenant.rejected),
                  std::to_string(tenant.completed),
                  std::to_string(tenant.expired),
                  std::to_string(tenant.failed),
                  std::to_string(tenant.deadline_misses),
                  eval::Table::Num(tenant.total_micros.Percentile(0.5) / 1e3, 2),
                  eval::Table::Num(tenant.total_micros.Percentile(0.99) / 1e3,
                                   2)});
  }
  table.Print();
}

/// The batcher's counter line, the same for an Engine and a Router.
void PrintCounters(const serve::BatcherMetrics& metrics) {
  std::printf("accepted=%llu completed=%llu rejected=%llu throttled=%llu "
              "expired=%llu late=%llu batches=%llu mean_batch=%.1f\n",
              static_cast<unsigned long long>(metrics.submitted),
              static_cast<unsigned long long>(metrics.completed),
              static_cast<unsigned long long>(metrics.rejected),
              static_cast<unsigned long long>(metrics.throttled),
              static_cast<unsigned long long>(metrics.expired),
              static_cast<unsigned long long>(metrics.deadline_misses),
              static_cast<unsigned long long>(metrics.batches),
              metrics.batch_size.Mean());
}

void PrintHistogram(const char* name, const HistogramSnapshot& h) {
  std::printf("%-12s p50=%8.0f us  p99=%8.0f us  max=%8.0f us\n", name,
              h.Percentile(0.5), h.Percentile(0.99), h.max);
}

/// Stops span capture and writes the captured spans to `path` as Chrome
/// trace_event JSON. Returns the spans, or the write error.
Result<std::vector<obs::SpanRecord>> WriteTrace(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(false);
  std::vector<obs::SpanRecord> spans = tracer.Drain();
  const Status written = obs::WriteChromeTrace(spans, path);
  if (!written.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 written.ToString().c_str());
    return written;
  }
  std::printf("trace: %zu spans -> %s (open at ui.perfetto.dev; %llu "
              "dropped by ring wraparound)\n",
              spans.size(), path.c_str(),
              static_cast<unsigned long long>(tracer.DroppedCount()));
  return spans;
}

/// One trace replay's admission decisions and outcomes, and the identity
/// line that two virtual replays of one trace must share.
void PrintReplayReport(const char* what, const load::ReplayReport& r) {
  std::printf("\ntrace replay (%s): %llu events in %.2f s\n", what,
              static_cast<unsigned long long>(r.events), r.wall_seconds);
  std::printf("decisions: submitted=%llu throttled=%llu rejected=%llu "
              "(skipped unmapped deletes=%llu)\n",
              static_cast<unsigned long long>(r.submitted),
              static_cast<unsigned long long>(r.throttled),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.unmapped_deletes));
  std::printf("outcomes:  completed=%llu expired=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.expired),
              static_cast<unsigned long long>(r.failed));
  std::printf("identity:  admission_digest=%016llx signature=%016llx\n",
              static_cast<unsigned long long>(r.admission_digest),
              static_cast<unsigned long long>(r.Signature()));
}

/// The files of a `count`-shard set at `prefix`:
/// <prefix>.s<i>-of-<count>.snap, or the plain path itself for one shard.
std::vector<std::string> ShardPaths(const std::string& prefix, size_t count) {
  if (count == 1) return {prefix};
  std::vector<std::string> paths;
  for (size_t s = 0; s < count; ++s) {
    paths.push_back(prefix + ".s" + std::to_string(s) + "-of-" +
                    std::to_string(count) + ".snap");
  }
  return paths;
}

/// The manifest every served snapshot is built under.
serve::SnapshotManifest BaseManifest(const CliArgs& args,
                                     const embed::EmbeddingModel& model,
                                     serve::IndexKind kind) {
  serve::SnapshotManifest manifest;
  manifest.model_code = model.info().code;
  manifest.default_k = static_cast<uint32_t>(args.k);
  manifest.kind = kind;
  manifest.dataset = args.dataset;
  return manifest;
}

/// --storage int8: gives every shard that lacks one an int8 scan tier.
Status QuantizeShards(serve::StorageKind storage,
                      std::vector<serve::Snapshot>& shards) {
  if (storage != serve::StorageKind::kInt8) return Status::Ok();
  for (serve::Snapshot& shard : shards) {
    if (shard.manifest().storage == serve::StorageKind::kInt8) continue;
    const Status quantized = shard.Quantize();
    if (!quantized.ok()) return quantized;
  }
  return Status::Ok();
}

/// Partitions `corpus` round-robin into `count` snapshots under the
/// --index/--k/--seed flags (one unsharded snapshot for count 1), with the
/// int8 tier when --storage asks for it.
Result<std::vector<serve::Snapshot>> BuildShards(const CliArgs& args,
                                                 const DatasetInputs& in,
                                                 const la::Matrix& corpus,
                                                 size_t count) {
  index::HnswOptions hnsw_options;
  hnsw_options.seed = args.seed;
  index::LshOptions lsh_options;
  lsh_options.seed = args.seed;
  auto built = serve::BuildShardSnapshots(
      BaseManifest(args, *in.model, in.kind), corpus,
      static_cast<uint32_t>(count), hnsw_options, lsh_options);
  if (!built.ok()) return built;
  const Status quantized = QuantizeShards(in.storage, built.value());
  if (!quantized.ok()) return quantized;
  return built;
}

/// Saves shard s of the set to paths[s]; stops at the first failure.
Status SaveShards(const std::vector<serve::Snapshot>& shards,
                  const std::vector<std::string>& paths) {
  for (size_t s = 0; s < paths.size(); ++s) {
    const Status saved = shards[s].SaveTo(paths[s]);
    if (!saved.ok()) return saved;
    std::printf("shard %zu/%zu: %llu rows -> %s\n", s, paths.size(),
                static_cast<unsigned long long>(shards[s].size()),
                paths[s].c_str());
  }
  return Status::Ok();
}

/// serve-bench's load-or-build step over the --snapshot set (ShardPaths).
/// When any of its files exists the set is loaded fail-closed, so a
/// corrupt, incoherent or incomplete set refuses the run instead of being
/// built over. Otherwise the set is built from the dataset and saved there;
/// a failed save only warns. --storage int8 quantizes a loaded set as well
/// as a built one.
Result<std::vector<serve::Snapshot>> AcquireShards(const CliArgs& args,
                                                   const DatasetInputs& in) {
  std::vector<std::string> paths;
  if (!args.snapshot_path.empty()) {
    paths = ShardPaths(args.snapshot_path, args.shards);
  }
  const auto describe = [](const std::vector<serve::Snapshot>& shards) {
    uint64_t rows = 0;
    for (const serve::Snapshot& shard : shards) rows += shard.size();
    const serve::SnapshotManifest& manifest = shards.front().manifest();
    return std::to_string(shards.size()) +
           (shards.size() == 1 ? " shard" : " shards") + " (" +
           std::to_string(rows) + " rows, " + IndexKindName(manifest.kind) +
           ", storage=" + serve::StorageKindName(manifest.storage) + ")";
  };
  WallTimer timer;
  if (std::any_of(paths.begin(), paths.end(), [](const std::string& path) {
        return std::filesystem::exists(path);
      })) {
    auto loaded = serve::LoadShardSet(paths);
    if (!loaded.ok()) return loaded;
    const double load_seconds = timer.Seconds();
    const Status quantized = QuantizeShards(in.storage, loaded.value());
    if (!quantized.ok()) return quantized;
    std::printf("shard set: loaded %s from %s in %.1f ms\n",
                describe(loaded.value()).c_str(), args.snapshot_path.c_str(),
                load_seconds * 1e3);
    return loaded;
  }
  const la::Matrix corpus =
      in.model->VectorizeAll(in.data.right.AllSentences());
  const double embed_seconds = timer.Restart();
  auto built = BuildShards(args, in, corpus, args.shards);
  if (!built.ok()) return built;
  std::printf("shard set: built %s in %.1f ms embed + %.1f ms index\n",
              describe(built.value()).c_str(), embed_seconds * 1e3,
              timer.Seconds() * 1e3);
  if (const Status saved = SaveShards(built.value(), paths); !saved.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n",
                 saved.ToString().c_str());
  }
  return built;
}

/// Merged per-shard answers straight off the shard snapshots (no engines):
/// the oracle-comparison path snapshot-shard and the router spot check
/// share.
std::vector<std::vector<index::Neighbor>> MergeAcrossShards(
    const std::vector<serve::Snapshot>& shards, const la::Matrix& queries,
    size_t k) {
  std::vector<std::vector<std::vector<index::Neighbor>>> per_shard;
  per_shard.reserve(shards.size());
  for (const serve::Snapshot& shard : shards) {
    auto lists = shard.QueryBatch(queries, k);
    for (auto& list : lists) {
      index::RemapToGlobal(list, shard.manifest().row_offset,
                           shard.manifest().shard_count);
    }
    per_shard.push_back(std::move(lists));
  }
  std::vector<std::vector<index::Neighbor>> merged(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<std::vector<index::Neighbor>> lists;
    lists.reserve(shards.size());
    for (auto& shard_lists : per_shard) {
      lists.push_back(std::move(shard_lists[q]));
    }
    merged[q] = serve::MergeTopK(lists, k);
  }
  return merged;
}

/// True when query `q`'s answer `got` equals `want` id for id and bit for
/// bit; otherwise prints where they part.
bool SpotCheck(size_t q, const std::vector<index::Neighbor>& got,
               const std::vector<index::Neighbor>& want) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "spot-check FAILED: query %zu has %zu neighbors, "
                 "expected %zu\n", q, got.size(), want.size());
    return false;
  }
  for (size_t j = 0; j < got.size(); ++j) {
    if (got[j].id != want[j].id || got[j].distance != want[j].distance) {
      std::fprintf(stderr, "spot-check FAILED: query %zu rank %zu "
                   "diverges\n", q, j);
      return false;
    }
  }
  return true;
}

/// Starts --replicas engines per shard (Snapshot is copyable: mmap'ed sets
/// share one mapping) under a Router. For exact indexes, a few routed
/// queries must then answer bit-identically to the merge computed straight
/// off the shard snapshots. `probes` receives the router metrics after that
/// spot check, so the report can leave the probes out. Null on failure.
std::unique_ptr<serve::Router> StartRouter(
    const CliArgs& args, const DatasetInputs& in,
    const std::vector<serve::Snapshot>& shards, serve::RouterMetrics& probes) {
  // Engine k matches the router's merge k; a drill mutates, which needs
  // live engines.
  auto engine_options = OptionsFromFlags<serve::EngineOptions>(args, false);
  engine_options.live = in.drill;
  std::vector<std::unique_ptr<serve::Engine>> engines;
  for (size_t r = 0; r < args.replicas; ++r) {
    for (const serve::Snapshot& shard : shards) {
      auto engine = serve::Engine::Create(shard, in.model, engine_options);
      if (!engine.ok()) {
        std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
        return nullptr;
      }
      engines.push_back(std::move(engine).value());
    }
  }
  auto created = serve::Router::Create(
      std::move(engines), in.model,
      OptionsFromFlags<serve::RouterOptions>(args));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<serve::Router> router = std::move(created).value();
  std::printf("router: %u shards x %zu replicas, health=%s\n",
              router->shard_count(), router->replica_count(0),
              serve::HealthName(router->health()));

  const auto sentences = in.data.left.AllSentences();
  const size_t probe =
      shards.front().manifest().kind == serve::IndexKind::kExact
          ? std::min<size_t>(8, sentences.size())
          : 0;
  if (probe > 0) {
    const la::Matrix vectors = in.model->VectorizeAll(
        {sentences.begin(), sentences.begin() + probe});
    const auto expect = MergeAcrossShards(shards, vectors, args.k);
    std::vector<std::future<Result<serve::QueryReply>>> checks;
    for (size_t q = 0; q < probe; ++q) {
      auto submitted = router->Submit(sentences[q]);
      if (!submitted.ok()) {
        std::fprintf(stderr, "spot-check submit failed: %s\n",
                     submitted.status().ToString().c_str());
        return nullptr;
      }
      checks.push_back(std::move(submitted).value());
    }
    for (size_t q = 0; q < probe; ++q) {
      auto reply = checks[q].get();
      if (!reply.ok() || reply.value().partial) {
        std::fprintf(stderr, "spot-check FAILED: query %zu not fully "
                     "answered\n", q);
        return nullptr;
      }
      if (!SpotCheck(q, reply.value().neighbors, expect[q])) return nullptr;
    }
    std::printf("spot-check: %zu routed queries match the shard merge\n",
                probe);
  }
  // A batch's merge time is recorded just after its replies are sent, so
  // wait (briefly) until every probe batch has recorded it.
  probes = router->Metrics();
  for (int spin = 0; spin < 1000 && probes.merge_micros.count < probes.batches;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    probes = router->Metrics();
  }
  return router;
}

/// serve-bench: acquire the shard set, start the fleet, drive a workload
/// and report. A 1x1 fleet is a bare Engine, so single-engine runs measure
/// no router hop; any other shape serves through a Router.
int RunServeBench(const CliArgs& args) {
  DatasetInputs in;
  if (const int refused = PrepareInputs(args, in); refused != 0) {
    return refused;
  }
  // --trace-file swaps the synthetic open loop for a recorded workload,
  // replayed in timed mode against the engine (all tenants merged onto
  // it). Loaded first, so the trace's quotas configure admission.
  Result<load::Trace> trace = Status::InvalidArgument("no trace");
  if (!args.trace_file.empty()) {
    trace = load::Trace::LoadFrom(args.trace_file);
    if (!trace.ok()) {
      std::fprintf(stderr, "trace load refused: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
  }
  auto shards = AcquireShards(args, in);
  if (!shards.ok()) {
    std::fprintf(stderr, "snapshot refused: %s\n",
                 shards.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::Router> router;
  serve::RouterMetrics probes;
  if (args.shards == 1 && args.replicas == 1) {
    auto options = OptionsFromFlags<serve::EngineOptions>(args);
    // Trace replay needs the mutable delta tier: traces carry upserts and
    // deletes, which a frozen engine would refuse.
    options.live = trace.ok();
    if (options.quotas.empty() && trace.ok()) {
      options.quotas = load::QuotasFromTrace(trace.value());
    }
    auto created = serve::Engine::Create(std::move(shards.value().front()),
                                         in.model, options);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    engine = std::move(created).value();
  } else {
    router = StartRouter(args, in, shards.value(), probes);
    if (router == nullptr) return 1;
  }

  if (!args.trace_path.empty()) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().SetEnabled(true);
  }
  // The workload: a recorded trace replayed on its own timed schedule, or
  // the synthetic open loop. Open-loop submissions fire on the offered-QPS
  // schedule no matter how the fleet is doing, so overload shows up as
  // rejections and deadline misses instead of a silently slowed generator.
  // A drill kills its replica at 1/3 of the run and rejoins it at 2/3; its
  // write stream never pauses (every 8th tick upserts), so the downed
  // replica genuinely falls behind and has something to catch up on.
  Result<load::ReplayReport> replayed = Status::InvalidArgument("no trace");
  if (trace.ok()) {
    load::ReplayOptions replay_options;
    replay_options.mode = load::ReplayOptions::Mode::kTimed;
    replay_options.speed = args.speed;
    replay_options.max_outstanding = args.outstanding;
    replayed = load::Replay(trace.value(), {engine.get()}, replay_options);
    if (!replayed.ok()) {
      std::fprintf(stderr, "replay: %s\n",
                   replayed.status().ToString().c_str());
      return 1;
    }
  }
  const std::vector<std::string> queries = in.data.left.AllSentences();
  const auto total = trace.ok() ? size_t{0}
                                : static_cast<size_t>(
                                      args.qps * args.duration_seconds + 0.5);
  if (total > 0 && queries.empty()) {
    std::fprintf(stderr, "dataset has no query records\n");
    return 1;
  }
  const size_t kill_at = in.drill ? total / 3 : total + 1;
  const size_t rejoin_at =
      args.rejoin_replica ? (2 * total) / 3 : total + 1;
  size_t missed_mutations = 0;
  std::vector<std::future<Result<serve::QueryReply>>> futures;
  futures.reserve(total);
  const SteadyTime start = SteadyNow();
  for (size_t i = 0; i < total; ++i) {
    const SteadyTime at =
        AfterMicros(start, static_cast<int64_t>(i * 1e6 / args.qps));
    std::this_thread::sleep_until(at);
    const std::string& query = queries[i % queries.size()];
    if (i == kill_at) {
      const Status down = router->KillReplica(in.kill_shard, in.kill_replica);
      std::printf("drill: killed replica %u:%zu at query %zu (%s)\n",
                  in.kill_shard, in.kill_replica, i,
                  down.ok() ? "ok" : down.ToString().c_str());
    }
    if (i == rejoin_at) {
      const Status up = router->RejoinReplica(in.kill_shard, in.kill_replica);
      std::printf("drill: rejoined replica %u:%zu at query %zu after %zu "
                  "missed mutations (%s)\n",
                  in.kill_shard, in.kill_replica, i, missed_mutations,
                  up.ok() ? "ok" : up.ToString().c_str());
    }
    if (in.drill && i % 8 == 0) {
      auto admitted =
          router->Upsert("drill upsert " + std::to_string(i) + " " + query);
      if (admitted.ok() && i >= kill_at && i < rejoin_at) ++missed_mutations;
    }
    auto submitted = router ? router->Submit(query, OpenLoopSubmit(args, i))
                            : engine->Submit(query, OpenLoopSubmit(args, i));
    if (submitted.ok()) futures.push_back(std::move(submitted).value());
  }
  size_t ok = 0, partial = 0;
  for (auto& future : futures) {
    auto reply = future.get();
    if (reply.ok()) {
      ++ok;
      partial += reply.value().partial ? 1 : 0;
    }
  }
  const double wall = MicrosBetween(start, SteadyNow()) / 1e6;

  // Drill verdict (before Stop(), which joins the recovery worker): with a
  // rejoin requested the fleet must converge — catch-up replay or resync
  // finishing with every replica active — or the whole run fails closed.
  bool converged = true;
  if (args.rejoin_replica) {
    const SteadyTime deadline = AfterMicros(SteadyNow(), 15'000'000);
    while (!router->Converged() && MicrosBetween(SteadyNow(), deadline) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    converged = router->Converged();
  }
  // Scrape before Stop(): a front end unregisters its registry collector
  // when it stops.
  const std::string prometheus =
      args.dump_metrics ? obs::Registry::Global().ToPrometheusText() : "";
  if (router) {
    router->Stop();
  } else {
    engine->Stop();
  }
  if (!args.trace_path.empty()) (void)WriteTrace(args.trace_path);

  if (replayed.ok()) {
    PrintReplayReport(
        (args.trace_file + ", timed, policy=" + args.policy).c_str(),
        replayed.value());
  } else {
    std::printf(
        "\n%s %s k=%zu shards=%zu replicas=%zu: offered %.0f qps for %.1fs "
        "-> achieved %.0f qps\n",
        args.dataset.c_str(), args.index_kind.c_str(), args.k, args.shards,
        args.replicas, args.qps, args.duration_seconds,
        static_cast<double>(ok) / wall);
  }
  if (engine) {
    const serve::EngineMetrics metrics = engine->Metrics();
    PrintCounters(metrics);
    std::printf("health=%s failed=%llu retries=%llu fallbacks=%llu trips=%llu "
                "short_circuits=%llu reloads=%llu\n",
                serve::HealthName(metrics.health),
                static_cast<unsigned long long>(metrics.failed),
                static_cast<unsigned long long>(metrics.retries),
                static_cast<unsigned long long>(metrics.fallbacks),
                static_cast<unsigned long long>(metrics.breaker_trips),
                static_cast<unsigned long long>(metrics.short_circuits),
                static_cast<unsigned long long>(metrics.reloads));
    PrintHistogram("queue", metrics.queue_micros);
    PrintHistogram("embed", metrics.embed_micros);
    PrintHistogram("query", metrics.query_micros);
    PrintHistogram("postproc", metrics.postprocess_micros);
    PrintHistogram("total", metrics.total_micros);
    PrintTenantTable(metrics.tenants);
  } else {
    const serve::RouterMetrics metrics =
        MetricsSince(probes, router->Metrics());
    PrintCounters(metrics);
    std::printf("failed=%llu partial=%llu shards_degraded=%llu "
                "sibling_retries=%llu embed_retries=%llu\n",
                static_cast<unsigned long long>(metrics.failed),
                static_cast<unsigned long long>(metrics.partial),
                static_cast<unsigned long long>(metrics.shards_degraded),
                static_cast<unsigned long long>(metrics.sibling_retries),
                static_cast<unsigned long long>(metrics.retries));
    if (in.drill) {
      std::printf(
          "drill: availability=%.4f quarantines=%llu catchups=%llu "
          "resyncs=%llu replayed=%llu digest_mismatches=%llu converged=%s\n",
          futures.empty() ? 0.0
                          : static_cast<double>(ok - partial) / futures.size(),
          static_cast<unsigned long long>(metrics.quarantines),
          static_cast<unsigned long long>(metrics.catchups),
          static_cast<unsigned long long>(metrics.resyncs),
          static_cast<unsigned long long>(metrics.replayed_mutations),
          static_cast<unsigned long long>(metrics.digest_mismatches),
          converged ? "yes" : "NO");
      if (!converged) {
        std::fprintf(stderr,
                     "drill FAILED: replica %u:%zu never converged after "
                     "rejoin\n",
                     in.kill_shard, in.kill_replica);
        return 1;
      }
    }
    PrintHistogram("queue", metrics.queue_micros);
    PrintHistogram("embed", metrics.embed_micros);
    PrintHistogram("fanout", metrics.fanout_micros);
    PrintHistogram("gather", metrics.gather_micros);
    PrintHistogram("merge", metrics.merge_micros);
    PrintHistogram("total", metrics.total_micros);
    for (size_t s = 0; s < metrics.shard_micros.size(); ++s) {
      for (size_t r = 0; r < metrics.shard_micros[s].size(); ++r) {
        const auto& h = metrics.shard_micros[s][r];
        std::printf("shard=%zu replica=%zu p50=%8.0f us  p99=%8.0f us  "
                    "count=%llu\n",
                    s, r, h.Percentile(0.5), h.Percentile(0.99),
                    static_cast<unsigned long long>(h.count));
      }
    }
    PrintTenantTable(metrics.tenants);
  }
  if (args.dump_metrics) std::printf("\n%s", prometheus.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Workload harness commands (DESIGN.md §16)
// ---------------------------------------------------------------------------

int RunTraceRecord(const CliArgs& args) {
  load::GeneratorOptions options;
  options.seed = args.seed;
  options.notes = args.notes;
  const size_t tenant_count = std::max<size_t>(1, args.tenants);
  for (size_t t = 0; t < tenant_count; ++t) {
    load::TenantSpec tenant;
    tenant.name = TenantName(t);
    tenant.corpus_rows = args.rows > 0 ? args.rows : 256;
    tenant.zipf_s = args.zipf;
    tenant.upsert_fraction = args.upserts;
    tenant.delete_fraction = args.deletes;
    tenant.deadline_micros = static_cast<int64_t>(args.deadline_ms * 1e3);
    if (args.quota > 0) {
      tenant.quota_rate_per_sec = args.quota;
      tenant.quota_burst = args.quota_burst;
    }
    options.tenants.push_back(std::move(tenant));
  }
  // --phases is a comma list; each entry becomes one equal-duration phase.
  // "cold" is a Poisson phase opened by a reload marker (the cold-start /
  // post-reload boundary).
  std::vector<std::string> names;
  for (size_t begin = 0; begin < args.phases.size();) {
    const size_t comma = args.phases.find(',', begin);
    const size_t end = comma == std::string::npos ? args.phases.size() : comma;
    if (end > begin) names.push_back(args.phases.substr(begin, end - begin));
    begin = end + 1;
  }
  if (names.empty()) names.push_back("poisson");
  for (const std::string& name : names) {
    load::PhaseSpec phase;
    if (name == "burst") {
      phase.arrival = load::PhaseSpec::Arrival::kBurst;
    } else if (name == "diurnal") {
      phase.arrival = load::PhaseSpec::Arrival::kDiurnal;
    } else if (name == "cold") {
      phase.reload_marker = true;
    } else if (name != "poisson") {
      std::fprintf(stderr, "unknown phase '%s'\n", name.c_str());
      return 1;
    }
    phase.rate_per_sec = args.qps;
    phase.duration_micros = static_cast<int64_t>(
        args.duration_seconds * 1e6 / static_cast<double>(names.size()));
    options.phases.push_back(phase);
  }

  const load::Trace trace = load::GenerateTrace(options);
  const Status saved = trace.SaveTo(args.dataset);
  if (!saved.ok()) {
    std::fprintf(stderr, "trace save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  size_t queries = 0, upserts = 0, deletes = 0, reloads = 0;
  for (const load::TraceEvent& event : trace.events) {
    switch (event.op) {
      case load::TraceEvent::Op::kQuery: ++queries; break;
      case load::TraceEvent::Op::kUpsert: ++upserts; break;
      case load::TraceEvent::Op::kDelete: ++deletes; break;
      case load::TraceEvent::Op::kReload: ++reloads; break;
    }
  }
  std::printf("trace: %zu events (%zu queries, %zu upserts, %zu deletes, "
              "%zu reloads) over %.2f s, %zu tenants -> %s\n",
              trace.events.size(), queries, upserts, deletes, reloads,
              static_cast<double>(trace.manifest.duration_micros) / 1e6,
              trace.manifest.tenants.size(), args.dataset.c_str());
  std::printf("trace: seed=%llu checksum=%016llx (same flags always "
              "reproduce these bytes)\n",
              static_cast<unsigned long long>(trace.manifest.seed),
              static_cast<unsigned long long>(trace.Checksum()));
  return 0;
}

/// Infers how many base corpus rows a tenant's trace expects: upsert keys
/// start exactly at the generator's corpus_rows, and query/delete base keys
/// stay below it.
uint64_t InferTenantRows(const load::Trace& trace, uint32_t tenant) {
  uint64_t min_upsert = 0;
  bool saw_upsert = false;
  uint64_t max_key = 0;
  for (const load::TraceEvent& event : trace.events) {
    if (event.tenant != tenant) continue;
    if (event.op == load::TraceEvent::Op::kUpsert) {
      min_upsert = saw_upsert ? std::min(min_upsert, event.key) : event.key;
      saw_upsert = true;
    } else if (event.op != load::TraceEvent::Op::kReload) {
      max_key = std::max(max_key, event.key);
    }
  }
  if (saw_upsert) return std::max<uint64_t>(1, min_upsert);
  return std::max<uint64_t>(16, max_key + 1);
}

int RunTraceReplay(const CliArgs& args) {
  WallTimer timer;
  auto loaded = load::Trace::LoadFrom(args.dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "trace load refused: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const load::Trace& trace = loaded.value();
  std::printf("trace: %s loaded in %.1f ms (%zu events, %zu tenants, "
              "checksum %016llx)\n",
              args.dataset.c_str(), timer.Seconds() * 1e3,
              trace.events.size(), trace.manifest.tenants.size(),
              static_cast<unsigned long long>(trace.Checksum()));

  const auto model = ServingModel();
  // One live engine per tenant, its base corpus sized from the trace's own
  // key space (or --rows), filled with deterministic synthetic rows.
  auto options = OptionsFromFlags<serve::EngineOptions>(args);
  options.live = true;
  options.quotas = load::QuotasFromTrace(trace);
  const size_t tenant_count = std::max<size_t>(1, trace.manifest.tenants.size());
  std::vector<std::unique_ptr<serve::Engine>> engines;
  std::vector<serve::Engine*> engine_ptrs;
  for (size_t t = 0; t < tenant_count; ++t) {
    const uint64_t rows =
        args.rows > 0 ? args.rows
                      : InferTenantRows(trace, static_cast<uint32_t>(t));
    std::vector<std::string> sentences;
    sentences.reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      sentences.push_back("corpus tenant " + std::to_string(t) + " row " +
                          std::to_string(r));
    }
    serve::SnapshotManifest manifest =
        BaseManifest(args, *model, serve::IndexKind::kExact);
    manifest.dataset = trace.manifest.tenants.empty()
                           ? "trace"
                           : trace.manifest.tenants[t].dataset;
    auto engine = serve::Engine::Create(
        serve::Snapshot::Build(std::move(manifest),
                               model->VectorizeAll(sentences)),
        model, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
      return 1;
    }
    engines.push_back(std::move(engine).value());
    engine_ptrs.push_back(engines.back().get());
  }

  load::ReplayOptions replay_options;
  replay_options.mode = args.timed ? load::ReplayOptions::Mode::kTimed
                                   : load::ReplayOptions::Mode::kVirtual;
  replay_options.speed = args.speed;
  replay_options.max_outstanding = args.outstanding;
  const auto report = load::Replay(trace, engine_ptrs, replay_options);
  if (!report.ok()) {
    std::fprintf(stderr, "replay: %s\n", report.status().ToString().c_str());
    return 1;
  }
  PrintReplayReport(args.timed ? "timed" : "virtual", report.value());
  for (auto& engine : engines) engine->Stop();
  for (size_t t = 0; t < engines.size(); ++t) {
    std::printf("\nengine %zu (tenant %s):\n", t,
                t < trace.manifest.tenants.size()
                    ? trace.manifest.tenants[t].name.c_str()
                    : "merged");
    PrintTenantTable(engines[t]->Metrics().tenants);
  }
  return 0;
}

int RunSnapshotShard(const CliArgs& args) {
  DatasetInputs in;
  if (const int refused = PrepareInputs(args, in); refused != 0) {
    return refused;
  }
  const std::string prefix =
      args.prefix.empty() ? args.dataset + "_shards" : args.prefix;
  WallTimer timer;
  const la::Matrix corpus =
      in.model->VectorizeAll(in.data.right.AllSentences());
  const double embed_seconds = timer.Restart();
  auto built = BuildShards(args, in, corpus, args.shards);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> paths = ShardPaths(prefix, args.shards);
  if (const Status saved = SaveShards(built.value(), paths); !saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("built %zu shards in %.1f ms embed + %.1f ms index+save\n",
              args.shards, embed_seconds * 1e3, timer.Restart() * 1e3);

  // Round-trip validation: the set we just wrote must load back as a
  // coherent fleet (fail-closed on any mismatch).
  auto reloaded = serve::LoadShardSet(paths);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "shard set round trip FAILED: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("round trip: %zu shards load as a coherent set\n",
              reloaded.value().size());

  // Exact indexes admit a bit-identity check against the unsharded oracle;
  // approximate indexes (per-shard graphs/tables differ structurally from
  // one global build) get only the structural round trip above.
  if (in.kind == serve::IndexKind::kExact && corpus.rows() > 0) {
    const auto query_sentences = in.data.left.AllSentences();
    const size_t probe = std::min<size_t>(32, query_sentences.size());
    const la::Matrix queries = in.model->VectorizeAll(
        {query_sentences.begin(), query_sentences.begin() + probe});
    const serve::Snapshot oracle =
        serve::Snapshot::Build(BaseManifest(args, *in.model, in.kind), corpus);
    const auto expect = oracle.QueryBatch(queries, args.k);
    const auto merged = MergeAcrossShards(reloaded.value(), queries, args.k);
    for (size_t q = 0; q < probe; ++q) {
      if (!SpotCheck(q, merged[q], expect[q])) return 1;
    }
    std::printf("spot-check: %zu queries merge bit-identical to the "
                "unsharded oracle\n", probe);
  } else {
    std::printf("spot-check: skipped (bit-identity holds for exact "
                "indexes only)\n");
  }
  return 0;
}

/// Shared workload for metrics-dump / trace-dump: one engine over a
/// snapshot built from the dataset's right side, then a closed-loop submit
/// of `args.requests` queries from the left side. Returns the engine so
/// callers can scrape or drain before stopping it; null on failure.
std::unique_ptr<serve::Engine> RunSmallServe(const CliArgs& args) {
  DatasetInputs in;
  if (PrepareInputs(args, in) != 0) return nullptr;
  auto built = BuildShards(
      args, in, in.model->VectorizeAll(in.data.right.AllSentences()), 1);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return nullptr;
  }
  auto engine =
      serve::Engine::Create(std::move(built.value().front()), in.model,
                            OptionsFromFlags<serve::EngineOptions>(args));
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return nullptr;
  }
  const std::vector<std::string> queries = in.data.left.AllSentences();
  if (queries.empty()) {
    std::fprintf(stderr, "dataset has no query records\n");
    return nullptr;
  }
  std::vector<std::future<Result<serve::QueryReply>>> futures;
  futures.reserve(args.requests);
  for (size_t i = 0; i < args.requests; ++i) {
    auto submitted = engine.value()->Submit(queries[i % queries.size()]);
    if (submitted.ok()) futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) future.get();
  return std::move(engine).value();
}

int RunMetricsDump(const CliArgs& args) {
  auto engine = RunSmallServe(args);
  if (engine == nullptr) return 1;
  // Scrape while the engine is live (Stop unregisters its collector).
  const std::string text = args.json
                               ? obs::Registry::Global().ToJson()
                               : obs::Registry::Global().ToPrometheusText();
  engine->Stop();
  std::fputs(text.c_str(), stdout);
  return 0;
}

int RunTraceDump(const CliArgs& args) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  auto engine = RunSmallServe(args);
  tracer.SetEnabled(false);
  if (engine == nullptr) return 1;
  engine->Stop();
  const auto spans = WriteTrace(args.out_path);
  if (!spans.ok()) return 1;
  std::printf("\n%-28s %8s %14s %14s\n", "stage", "spans", "total_ms",
              "self_ms");
  for (const obs::StageBreakdownRow& row : obs::StageBreakdown(spans.value())) {
    std::printf("%-28s %8llu %14.3f %14.3f\n", row.name,
                static_cast<unsigned long long>(row.spans),
                row.total_micros / 1e3, row.self_micros / 1e3);
  }
  return 0;
}

// snapshot-convert takes two positional paths instead of a dataset id, so
// it parses its own tail rather than going through ParseCli.
int RunSnapshotConvert(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  std::string quantize;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quantize" && i + 1 < argc) {
      quantize = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!quantize.empty() && quantize != "int8") {
    std::fprintf(stderr, "--quantize supports only int8, not '%s'\n",
                 quantize.c_str());
    return 2;
  }
  WallTimer timer;
  auto loaded = serve::Snapshot::LoadFrom(in_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  serve::Snapshot snapshot = std::move(loaded).value();
  const double load_seconds = timer.Restart();
  if (!quantize.empty()) {
    const Status quantized = snapshot.Quantize();
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.ToString().c_str());
      return 1;
    }
  }
  const Status saved = snapshot.SaveTo(out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  const serve::SnapshotManifest& manifest = snapshot.manifest();
  std::printf("converted %s -> %s\n", in_path.c_str(), out_path.c_str());
  std::printf("  kind=%s storage=%s rows=%llu dim=%u dataset=%s\n",
              IndexKindName(manifest.kind),
              serve::StorageKindName(manifest.storage),
              static_cast<unsigned long long>(manifest.rows), manifest.dim,
              manifest.dataset.c_str());
  std::printf("  load %.1f ms (mmap) + convert/save %.1f ms\n",
              load_seconds * 1e3, timer.Seconds() * 1e3);
  return 0;
}

/// Streaming ER over the live corpus (DESIGN.md §14). Records stream one
/// at a time into an engine that started from an EMPTY snapshot: each
/// record is first resolved against the corpus so far (query through the
/// batcher; best cross-side neighbor with sim >= --threshold merges the
/// two clusters), then admitted with Engine::Upsert so later arrivals can
/// match it. A background Compactor keeps folding the delta tier into
/// fresh base snapshots while the stream is live, so the scenario
/// exercises query/upsert/compaction concurrency end to end. Pairwise
/// precision/recall/F1 are maintained incrementally (core::StreamClusters)
/// and printed at checkpoints plus a final greppable summary line.
int RunStreamDedup(const CliArgs& args) {
  DatasetInputs in;
  if (const int refused = PrepareInputs(args, in); refused != 0) {
    return refused;
  }
  const datagen::CleanCleanDataset& data = in.data;
  eval::GroundTruth truth;
  for (const auto& match : data.matches) {
    truth.AddCleanCleanPair(match.first, match.second);
  }

  // The live corpus starts EMPTY: zero rows, but the manifest carries the
  // model's dim so the engine's compatibility check still holds.
  serve::Snapshot empty = serve::Snapshot::Build(
      BaseManifest(args, *in.model, serve::IndexKind::kExact),
      la::Matrix(0, in.model->info().dim));
  auto options = OptionsFromFlags<serve::EngineOptions>(args);
  options.live = true;
  auto created = serve::Engine::Create(std::move(empty), in.model, options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::Engine> engine = std::move(created).value();

  // Interleave the two collections so matches arrive from both directions.
  struct StreamRecord {
    bool left = false;
    uint32_t index = 0;
    const std::string* sentence = nullptr;
  };
  const std::vector<std::string> left = data.left.AllSentences();
  const std::vector<std::string> right = data.right.AllSentences();
  std::vector<StreamRecord> streamed;
  streamed.reserve(left.size() + right.size());
  for (size_t i = 0; i < std::max(left.size(), right.size()); ++i) {
    if (i < right.size()) streamed.push_back({false, static_cast<uint32_t>(i),
                                              &right[i]});
    if (i < left.size()) streamed.push_back({true, static_cast<uint32_t>(i),
                                             &left[i]});
  }
  const size_t report_every =
      args.report_every > 0 ? args.report_every
                            : std::max<size_t>(64, streamed.size() / 5);

  // Background compaction runs against the same engine the stream mutates;
  // every fold hot-swaps the base under live traffic.
  const std::string base_path = args.snapshot_path.empty()
                                    ? "stream-dedup.base.snap"
                                    : args.snapshot_path;
  stream::CompactorOptions compactor_options;
  compactor_options.max_delta_rows =
      args.compact_rows > 0 ? args.compact_rows : ~size_t{0};
  compactor_options.max_tombstones = compactor_options.max_delta_rows;
  compactor_options.interval_micros = 5'000;
  stream::Compactor compactor(
      [&engine] { return engine->LiveStats(); },
      [&engine, &base_path] { return engine->Compact(base_path); },
      compactor_options);
  if (args.compact_rows > 0) compactor.Start();

  core::StreamClusters clusters(truth);
  // Global id -> (left?, index within its side). Ids survive compaction
  // unchanged, so a flat vector indexed by id stays correct for the whole
  // stream.
  std::vector<std::pair<bool, uint32_t>> by_gid;
  size_t merges = 0, query_failures = 0, upsert_failures = 0;
  WallTimer timer;
  for (size_t n = 0; n < streamed.size(); ++n) {
    const StreamRecord& record = streamed[n];
    // Resolve against the corpus so far. The neighbor list is sorted by
    // ascending distance, so the first cross-side survivor is the best.
    bool matched = false;
    uint64_t best_gid = 0;
    auto submitted = engine->Submit(*record.sentence);
    if (submitted.ok()) {
      auto reply = submitted.value().get();
      if (reply.ok()) {
        for (const index::Neighbor& neighbor : reply.value().neighbors) {
          const uint64_t gid = neighbor.id;
          if (gid >= by_gid.size() || by_gid[gid].first == record.left) {
            continue;
          }
          const double sim = (2.0 - neighbor.distance) / 2.0;
          if (sim >= args.threshold) {
            matched = true;
            best_gid = gid;
          }
          break;  // best cross-side candidate decides, match or not
        }
      } else {
        ++query_failures;
      }
    } else {
      ++query_failures;
    }
    // Always admit the record: both sides live in the corpus, so a future
    // duplicate can resolve against either cluster member.
    auto upserted = engine->Upsert(*record.sentence);
    if (!upserted.ok()) {
      ++upsert_failures;
      continue;
    }
    auto outcome = upserted.value().get();
    if (!outcome.ok()) {
      ++upsert_failures;
      continue;
    }
    const uint64_t gid = outcome.value().id;
    if (gid >= by_gid.size()) by_gid.resize(gid + 1, {false, 0});
    by_gid[gid] = {record.left, record.index};
    clusters.Add(gid, record.left, record.index);
    if (matched) {
      clusters.Merge(gid, best_gid);
      ++merges;
    }
    if ((n + 1) % report_every == 0 && n + 1 < streamed.size()) {
      const eval::PrfMetrics m = clusters.Metrics();
      const stream::LiveStats live = engine->LiveStats();
      std::printf("  [%6zu/%zu] P=%.4f R=%.4f F1=%.4f  (delta=%llu "
                  "tombstones=%llu generation=%llu)\n",
                  n + 1, streamed.size(), m.precision, m.recall, m.f1,
                  static_cast<unsigned long long>(live.delta_rows),
                  static_cast<unsigned long long>(live.tombstones),
                  static_cast<unsigned long long>(live.base_generation));
    }
  }
  const double seconds = timer.Seconds();
  compactor.Stop();

  const eval::PrfMetrics metrics = clusters.Metrics();
  const stream::LiveStats live = engine->LiveStats();
  const serve::EngineMetrics em = engine->Metrics();
  engine->Stop();
  std::remove(base_path.c_str());

  std::printf("stream-dedup %s scale=%.2f: %zu records in %.2fs "
              "(%.0f rec/s), %zu merges, %zu query failures, %zu upsert "
              "failures\n",
              args.dataset.c_str(), args.scale, streamed.size(), seconds,
              streamed.size() / std::max(seconds, 1e-9), merges,
              query_failures, upsert_failures);
  std::printf("  live corpus: base=%llu delta=%llu tombstones=%llu "
              "generation=%llu; compactions=%llu (%llu failed)\n",
              static_cast<unsigned long long>(live.base_rows),
              static_cast<unsigned long long>(live.delta_rows),
              static_cast<unsigned long long>(live.tombstones),
              static_cast<unsigned long long>(live.base_generation),
              static_cast<unsigned long long>(em.compactions),
              static_cast<unsigned long long>(em.compaction_failures));
  // Counter identity must close now that the stream has drained.
  if (em.submitted != em.completed + em.expired + em.failed) {
    std::fprintf(stderr,
                 "counter identity violated: submitted=%llu != "
                 "completed=%llu + expired=%llu + failed=%llu\n",
                 static_cast<unsigned long long>(em.submitted),
                 static_cast<unsigned long long>(em.completed),
                 static_cast<unsigned long long>(em.expired),
                 static_cast<unsigned long long>(em.failed));
    return 1;
  }
  // A stream that admitted nothing (e.g. the delta tier refusing service)
  // has no resolution result to report — fail instead of printing F1=0.
  if (!streamed.empty() && upsert_failures == streamed.size()) {
    std::fprintf(stderr, "no records admitted: all %zu upserts failed\n",
                 upsert_failures);
    return 1;
  }
  std::printf("stream-dedup final precision=%.4f recall=%.4f f1=%.4f "
              "(threshold=%.2f, %llu predicted pairs, %llu true)\n",
              metrics.precision, metrics.recall, metrics.f1, args.threshold,
              static_cast<unsigned long long>(clusters.predicted_pairs()),
              static_cast<unsigned long long>(clusters.true_pairs()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fault-injection builds honor $EMBER_FAILPOINTS (see common/failpoint.h
  // for the spec grammar), so resilience behavior is reproducible from the
  // command line without recompiling.
  const Status failpoints = fail::ConfigureFromEnv();
  if (!failpoints.ok()) {
    std::fprintf(stderr, "EMBER_FAILPOINTS: %s\n",
                 failpoints.ToString().c_str());
    return 2;
  }
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  if (command == "models") return RunModels();
  if (command == "snapshot-convert") return RunSnapshotConvert(argc, argv);
  CliArgs args;
  if (!ParseCli(argc, argv, 2, args)) return Usage(argv[0]);
  if (command == "block") return RunBlock(args);
  if (command == "pipeline") return RunPipeline(args);
  if (command == "serve-bench") return RunServeBench(args);
  if (command == "snapshot-shard") return RunSnapshotShard(args);
  if (command == "stream-dedup") return RunStreamDedup(args);
  if (command == "metrics-dump") return RunMetricsDump(args);
  if (command == "trace-dump") return RunTraceDump(args);
  if (command == "trace-record") return RunTraceRecord(args);
  if (command == "trace-replay") return RunTraceReplay(args);
  return Usage(argv[0]);
}
