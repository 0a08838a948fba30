// perfbench_trial: one trial of a perfbench workload in its own process.
//
//   perfbench_trial serve    --workload W --seed N --seconds S --out F
//                             [--bulk B] [--setups M]
//   perfbench_trial probe    --workload W --seed N --seconds S --out F
//                             [--trace-out T]
//   perfbench_trial schedule --workload W --seed N --seconds S
//
// `serve` sets the fleet up (M times, timing each; the last one serves),
// runs the closed, low and high phases, the mutation stream and the output
// checks, then B runs of the bulk ER pipeline (default none), and writes the
// trial record to F. `probe` is the traced run: per-layer probes plus a
// traced replay of the same phases. `schedule` prints the checksum of the
// generated schedule. perfbench/run.py runs the trials and reduces their
// records to the benchmark's metrics.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>

#include "bench.h"
#include "common/parallel.h"

namespace perfbench {

namespace {

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int RunServeTrial(const TrialArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const Inputs in = MakeInputs(spec, args.seed, PlanPhases(args.seconds));
  const PhaseCounts counts = CountPhases(in);
  Progress("plan setup=0 closed=" + std::to_string(counts.closed) +
           " low=" + std::to_string(counts.low) +
           " high=" + std::to_string(counts.high) + " mutate=" +
           std::to_string(kSequentialUpserts * 3 / 2) +
           " check=0 bulk=" + std::to_string(args.bulk));

  HostSampler host;
  Progress("phase setup");
  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < args.setups; ++i) {
    if (fleet.engine) fleet.engine->Stop();
    if (fleet.router) fleet.router->Stop();
    fleet = Fleet{};
    fleet = BuildFleet(in, args.workdir);
    setup_s.push_back(fleet.setup_s);
  }
  Json checks;
  PhaseStats closed, low, high, mutate;
  uint64_t bitexact = 0, overlap = 0, replies = 0;
  {
    Oracle oracle;
    if (!spec.router) oracle = BuildEngineOracle(in, fleet);
    const Oracle* checked = spec.router ? nullptr : &oracle;
    WarmUp(fleet, in);
    Progress("phase closed");
    closed = RunClosedPhase(fleet, in, checked);
    MutationLedger ledger;
    Progress("phase low");
    low = RunOpenPhase(fleet, in, checked, in.closed_end_micros,
                       in.low_end_micros, &ledger);
    Progress("phase high");
    high = RunOpenPhase(fleet, in, checked, in.low_end_micros, INT64_MAX,
                        &ledger);
    if (!spec.router) {
      Progress("phase mutate");
      ember::stream::LiveStats twin;
      mutate = RunTwinMutations(in, fleet, &twin, nullptr);
      checks.Num("twin_live_stats",
                 twin.delta_rows == kSequentialUpserts &&
                     twin.tombstones == kSequentialUpserts / 2);
      checks.Num("replies_match_oracle",
                 closed.wrong + low.wrong + high.wrong == 0);
      bitexact = closed.bitexact + low.bitexact + high.bitexact;
      overlap = closed.overlap + low.overlap + high.overlap;
      replies = closed.checked + low.checked + high.checked;
    } else {
      Progress("phase mutate");
      mutate = RunRouterMutations(in, fleet, &ledger);
      Progress("phase check");
      const RouterCheck rc = CheckRouter(in, fleet, ledger);
      checks.Num("converged", rc.converged);
      checks.Num("replica_digests_equal", rc.digests_equal);
      checks.Num("probes_match_oracle", rc.probes_ok);
      bitexact = rc.bitexact;
      overlap = rc.overlap;
      replies = rc.checked;
    }
  }
  if (fleet.engine) fleet.engine->Stop();
  if (fleet.router) fleet.router->Stop();
  fleet.engine.reset();
  fleet.router.reset();

  // Each bulk run times the whole pipeline; the first also checks it
  // against RunOnVectors, and every later one must give its match digest.
  BulkStats bulk;
  std::vector<double> bulk_s;
  bool bulk_repeats = true;
  if (args.bulk > 0) Progress("phase bulk");
  for (int i = 0; i < args.bulk; ++i) {
    const BulkStats one = RunBulk(in, fleet, i == 0);
    if (i == 0) bulk = one;
    bulk_repeats = bulk_repeats && one.digest == bulk.digest;
    bulk_s.push_back(one.seconds);
  }
  if (args.bulk > 0) {
    checks.Num("bulk_reproduced", bulk.reproduced && bulk_repeats);
  }
  Progress("phase done");
  host.Stop();

  // Each bulk pipeline run counts as one operation.
  uint64_t attempted = args.bulk;
  uint64_t refused = 0, failed = 0, expired = 0, wrong = 0;
  const PhaseStats* const phases[] = {&closed, &low, &high, &mutate};
  for (const PhaseStats* s : phases) {
    attempted += s->attempted + s->mutations;
    refused += s->refused;
    failed += s->failed + s->mutation_failed;
    expired += s->expired;
    wrong += s->wrong;
  }
  const auto joined = [](std::initializer_list<const std::vector<double>*> parts) {
    std::vector<double> out;
    for (const auto* part : parts) out.insert(out.end(), part->begin(), part->end());
    return out;
  };

  Json record;
  record.Str("workload", spec.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("bulk", args.bulk)
      .Num("pool_threads", ember::ConfiguredThreads())
      .Array("setup_s", setup_s)
      .Num("attempted", attempted)
      .Num("refused", refused)
      .Num("failed", failed)
      .Num("expired", expired)
      .Num("wrong", wrong)
      .Num("closed_ok", closed.ok)
      .Num("closed_s", closed.seconds)
      .Num("closed_start_s", closed.start_s)
      .Num("closed_end_s", closed.end_s)
      .Array("closed_done_at_s", closed.done_at_s)
      .Array("closed_latency_ms", closed.latency_ms)
      .Array("closed_latency_at_s", closed.latency_at_s)
      .Array("low_latency_ms", low.latency_ms)
      .Array("low_latency_at_s", low.latency_at_s)
      .Array("high_latency_ms", high.latency_ms)
      .Array("high_latency_at_s", high.latency_at_s)
      .Array("mutation_ms", mutate.mutation_ms)
      .Array("mutation_at_s", mutate.mutation_at_s)
      .Array("open_mutation_ms", joined({&low.mutation_ms, &high.mutation_ms}))
      .Array("mutation_lag_ms",
             joined({&low.mutation_lag_ms, &high.mutation_lag_ms}))
      .Array("lateness_ms", joined({&low.lateness_ms, &high.lateness_ms}))
      .Num("high_scheduled", high.scheduled_queries)
      .Num("high_slo_hits", high.slo_hits)
      .Num("high_ok", high.ok)
      .Num("high_cpu_s", high.cpu_s)
      .Num("high_s", high.seconds)
      .Num("replies_checked", replies)
      .Num("replies_bitexact", bitexact)
      .Num("replies_overlap", overlap)
      .Num("bulk_records", bulk.records)
      .Array("bulk_s", bulk_s)
      .Num("bulk_blocking_s", bulk.blocking_s)
      .Num("bulk_matching_s", bulk.matching_s)
      .Num("bulk_f1", bulk.f1)
      .Num("bulk_recall", bulk.recall)
      .Str("bulk_digest", Hex(bulk.digest))
      .Raw("checks", checks.Dump())
      .Num("peak_rss_mb", PeakRssMb());
  host.Write(&record);
  return WriteFile(args.out, record.Dump()) ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  TrialSeconds(ember::SteadyNow());  // the trial's time axis starts here
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s serve|probe|schedule --workload W "
                         "--seed N --seconds S [--out F] [--workdir D] "
                         "[--bulk B] [--setups M] [--trace-out T]\n", argv[0]);
    return 2;
  }
  TrialArgs args;
  args.mode = argv[1];
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--bulk") {
      args.bulk = std::max(0, std::atoi(value.c_str()));
    } else if (flag == "--setups") {
      args.setups = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  args.spec = FindWorkload(workload);
  if (args.spec == nullptr || args.seconds <= 0) {
    std::fprintf(stderr, "unknown workload '%s' or bad --seconds\n",
                 workload.c_str());
    return 2;
  }
  if (args.mode == "schedule") {
    const ember::load::Trace& trace =
        MakeInputs(*args.spec, args.seed, PlanPhases(args.seconds)).trace;
    std::printf("checksum=%016llx events=%zu\n",
                static_cast<unsigned long long>(trace.Checksum()),
                trace.events.size());
    return 0;
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  if (args.mode == "serve") return RunServeTrial(args);
  if (args.mode == "probe") return RunProbeTrial(args);
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
