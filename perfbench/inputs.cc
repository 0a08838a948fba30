// Workload specs, seeded input generation, and the measurement helpers the
// trials share.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "common/parallel.h"
#include "la/vector_ops.h"
#include "load/generator.h"

namespace perfbench {

namespace {

// engine_zipf_read: one exact engine over D2 (1076 rows, ~30 tokens per
// record); Zipf s=1 keys over the left records, so texts and tokens repeat
// and embedding dominates each batch. The rates are about a quarter and
// two fifths of the engine's closed-loop capacity on a 4-core host. Queueing
// magnifies any slowdown by about 1/(1 - load), so the high rate stays
// well short of half the capacity: host CPU steal would otherwise move the
// open-loop latencies more than the program does.
//
// router_scan_write: 2x2 live exact engines over D9 (30000 right rows, minus
// the holdout that feeds upserts); uniform keys over 64 text variants per
// left record, so texts almost never repeat and the shard scan dominates.
// 10% upserts and 2% deletes ride the open-loop phases. At the low rate
// the single mutation stream keeps up; at the high rate (about three eighths
// of the read capacity) it falls behind.
// The datasets are fixed, as the paper's are: every run serves the same
// D2 and D9 records, and the seed draws only the schedule (arrivals, keys
// and mutations). Keys are Zipf ranks into the left records, so a dataset
// drawn per seed would change which records are hot, and with them the
// cost of the query mix, from run to run.
constexpr uint64_t kDatasetSeed = 42;

const std::vector<WorkloadSpec> kWorkloads = {
    {"engine_zipf_read", "D2", false, 1.0, 1, 0.0, 0.0, 0, 1600, 400, 640,
     100, 64},
    {"router_scan_write", "D9", true, 0.0, 64, 0.10, 0.02, 1000, 1000, 70,
     300, 400, 64},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

PhasePlan PlanPhases(double serve_seconds) {
  PhasePlan plan;
  plan.closed_s = 0.50 * serve_seconds;
  plan.low_s = 0.25 * serve_seconds;
  plan.high_s = 0.25 * serve_seconds;
  return plan;
}

ember::load::Trace MakeTrace(const WorkloadSpec& spec, uint64_t seed,
                             size_t left_rows, const PhasePlan& plan) {
  ember::load::GeneratorOptions options;
  options.seed = seed;
  ember::load::TenantSpec tenant;
  tenant.name = spec.name;
  tenant.dataset = spec.dataset;
  tenant.corpus_rows = left_rows * spec.key_variants;
  tenant.zipf_s = spec.zipf_s;
  tenant.upsert_fraction = spec.upsert_fraction;
  tenant.delete_fraction = spec.delete_fraction;
  tenant.deadline_micros = static_cast<int64_t>(spec.slo_ms * 1e3);
  options.tenants.push_back(tenant);
  const auto phase = [](double qps, double seconds) {
    ember::load::PhaseSpec p;
    p.rate_per_sec = qps;
    p.duration_micros = static_cast<int64_t>(seconds * 1e6);
    return p;
  };
  options.phases = {phase(spec.closed_qps, plan.closed_s),
                    phase(spec.low_qps, plan.low_s),
                    phase(spec.high_qps, plan.high_s)};
  options.notes = std::string("perfbench ") + spec.name;
  return ember::load::GenerateTrace(options);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  const PhasePlan& plan) {
  Inputs in;
  in.spec = &spec;
  in.data = ember::datagen::GenerateCleanClean(
      ember::datagen::CleanCleanSpecById(spec.dataset).value(), 1.0, kDatasetSeed);
  in.left = in.data.left.AllSentences();
  in.right = in.data.right.AllSentences();
  in.base_rows = in.right.size() - std::min(spec.holdout, in.right.size());
  in.trace = MakeTrace(spec, seed, in.left.size(), plan);
  in.closed_end_micros = static_cast<int64_t>(plan.closed_s * 1e6);
  in.low_end_micros = static_cast<int64_t>((plan.closed_s + plan.low_s) * 1e6);
  return in;
}

PhaseCounts CountPhases(const Inputs& in) {
  PhaseCounts counts;
  for (const auto& event : in.trace.events) {
    if (event.arrival_micros < in.closed_end_micros) {
      if (event.op == ember::load::TraceEvent::Op::kQuery) ++counts.closed;
    } else if (event.arrival_micros < in.low_end_micros) {
      ++counts.low;
    } else {
      ++counts.high;
    }
  }
  return counts;
}

std::string Inputs::QueryText(uint64_t key) const {
  const size_t row = key % left.size();
  const uint64_t variant = key / left.size();
  if (spec->key_variants <= 1) return left[row];
  return left[row] + " v" + std::to_string(variant);
}

std::string Inputs::UpsertText(uint64_t ordinal) const {
  const size_t held = right.size() - base_rows;
  if (held == 0) return left[ordinal % left.size()];
  return right[base_rows + ordinal % held];
}

std::string Inputs::ProbeText(size_t i) const {
  return left[(i * 7919) % left.size()] + " probe" + std::to_string(i);
}

// ---------------------------------------------------------------------------

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

Json& Json::Array(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
    if (i) out += ",";
    out += buf;
  }
  out += "]";
  fields_.emplace_back(key, out);
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ",";
    out += JsonString(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double TrialSeconds(ember::SteadyTime t) {
  static const ember::SteadyTime start = ember::SteadyNow();
  return ember::MicrosBetween(start, t) / 1e6;
}

HostSampler::HostSampler() : thread_([this] {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Sample();
    if (cv_.wait_for(lock, std::chrono::duration<double>(kIntervalS),
                     [this] { return stop_; })) {
      Sample();
      return;
    }
  }
}) {}

void HostSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
}

void HostSampler::Sample() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, total = 0, field = 0;
  // user nice system idle iowait irq softirq steal; guest time is already
  // part of user time.
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  // Kept relative to the first reading, so they stay small and exact.
  if (t_s_.empty()) {
    steal0_ = steal;
    total0_ = total;
  }
  t_s_.push_back(TrialSeconds(ember::SteadyNow()));
  steal_.push_back(steal - steal0_);
  total_.push_back(total - total0_);
}

void HostSampler::Write(Json* record) const {
  record->Array("host_t_s", t_s_)
      .Array("host_steal", steal_)
      .Array("host_total", total_);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

void Progress(const std::string& line) {
  std::printf("@%s\n", line.c_str());
  std::fflush(stdout);
}

ReplyCheck CheckReply(const std::vector<Neighbor>& reply,
                      const std::vector<Neighbor>& oracle) {
  constexpr float kTie = 1e-5f;
  ReplyCheck check;
  for (const Neighbor& n : reply) {
    for (const Neighbor& o : oracle) {
      if (o.id == n.id) {
        ++check.overlap;
        break;
      }
    }
  }
  if (reply.size() != oracle.size()) return check;
  check.bitexact = true;
  check.correct = true;
  for (size_t i = 0; i < reply.size(); ++i) {
    if (reply[i].id != oracle[i].id ||
        std::memcmp(&reply[i].distance, &oracle[i].distance,
                    sizeof(float)) != 0) {
      check.bitexact = false;
    }
    if (std::fabs(reply[i].distance - oracle[i].distance) > kTie) {
      check.correct = false;
    }
    if (reply[i].id == oracle[i].id) continue;
    // A swapped id is only allowed where the oracle itself has a tie: the
    // reply's neighbour sits at (nearly) the same distance in the oracle,
    // or falls off the oracle's list exactly at the k-th distance.
    bool tied = false;
    for (const Neighbor& o : oracle) {
      if (o.id == reply[i].id &&
          std::fabs(o.distance - oracle[i].distance) <= kTie) {
        tied = true;
      }
    }
    if (!tied &&
        std::fabs(reply[i].distance - oracle.back().distance) <= kTie) {
      tied = true;
    }
    if (!tied) check.correct = false;
  }
  return check;
}

std::vector<std::vector<Neighbor>> DotOracle(const ember::la::Matrix& corpus,
                                             const std::vector<uint64_t>& ids,
                                             const ember::la::Matrix& queries,
                                             size_t k) {
  std::vector<std::vector<Neighbor>> out(queries.rows());
  ember::ParallelFor(0, queries.rows(), 4, [&](size_t begin, size_t end) {
    std::vector<Neighbor> all(corpus.rows());
    for (size_t q = begin; q < end; ++q) {
      for (size_t r = 0; r < corpus.rows(); ++r) {
        all[r].id = static_cast<uint32_t>(ids[r]);
        all[r].distance =
            1.f - ember::la::Dot(queries.Row(q), corpus.Row(r), corpus.cols());
      }
      const size_t kept = std::min(k, all.size());
      std::partial_sort(all.begin(), all.begin() + kept, all.end(),
                        ember::index::CloserThan);
      out[q].assign(all.begin(), all.begin() + kept);
    }
  });
  return out;
}

}  // namespace perfbench
