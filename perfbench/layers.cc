// The traced probe trial: per-layer numbers for every layer the serving and
// bulk paths cross. The serving phases replay with obs::Tracer on (rings
// sized so no span drops) and the benchmark's own spans around its calls;
// then timed probes call each layer's public functions on the workload's
// own inputs. The span stream is written as a Chrome trace and reduced with
// StageBreakdown.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "embed/transformer_model.h"
#include "index/exact_index.h"
#include "la/vector_ops.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "stream/live_corpus.h"
#include "text/tokenizer.h"

namespace perfbench {

using namespace ember;

namespace {

constexpr double kProbeSeconds = 0.25;
constexpr size_t kRingSpans = 1 << 16;

/// Calls `fn` until at least kProbeSeconds have passed; returns the mean
/// microseconds per call.
template <class Fn>
double TimeCalls(Fn&& fn) {
  WallTimer timer;
  size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (timer.Seconds() < kProbeSeconds);
  return timer.Seconds() * 1e6 / static_cast<double>(calls);
}

la::Matrix Rows(const la::Matrix& from, size_t begin, size_t count) {
  la::Matrix out(count, from.cols());
  std::memcpy(out.Row(0), from.Row(begin),
              count * from.cols() * sizeof(float));
  return out;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

struct StageTotals {
  std::map<std::string, obs::StageBreakdownRow> rows;
  double Self(const std::string& name) const {
    auto it = rows.find(name);
    return it == rows.end() ? 0 : it->second.self_micros;
  }
  double Total(const std::string& name) const {
    auto it = rows.find(name);
    return it == rows.end() ? 0 : it->second.total_micros;
  }
  double Spans(const std::string& name) const {
    auto it = rows.find(name);
    return it == rows.end() ? 0 : static_cast<double>(it->second.spans);
  }
  double SelfPerSpan(const std::string& name) const {
    return Spans(name) > 0 ? Self(name) / Spans(name) : 0;
  }
};

/// Mean self time of the `batch` spans: each batch's duration minus its
/// stage children. Request spans are parented to the batch that answered
/// them but start at enqueue, so they are not stages of the batch and are
/// left out (StageBreakdown would subtract them and clamp the batch to 0).
double BatchSelfMicros(const std::vector<obs::SpanRecord>& spans,
                       const std::string& batch, const std::string& request) {
  std::map<uint64_t, double> self;
  for (const auto& span : spans) {
    if (batch == span.name) self[span.span_id] += span.duration_micros;
  }
  for (const auto& span : spans) {
    auto it = self.find(span.parent_id);
    if (it != self.end() && request != span.name) {
      it->second -= span.duration_micros;
    }
  }
  double total = 0;
  for (const auto& [id, micros] : self) total += micros;
  return self.empty() ? 0 : total / static_cast<double>(self.size());
}

/// Engine metrics of the fleet, summed over every shard replica for a
/// router fleet.
serve::EngineMetrics FleetEngineMetrics(Fleet& fleet) {
  if (fleet.engine) return fleet.engine->Metrics();
  serve::EngineMetrics sum;
  for (uint32_t s = 0; s < fleet.router->shard_count(); ++s) {
    for (const auto& engine : fleet.router->replicas(s)) {
      const serve::EngineMetrics m = engine->Metrics();
      sum.expired += m.expired;
      sum.rejected += m.rejected;
      sum.throttled += m.throttled;
      sum.deadline_misses += m.deadline_misses;
      sum.queue_micros.Add(m.queue_micros);
      sum.embed_micros.Add(m.embed_micros);
      sum.query_micros.Add(m.query_micros);
      sum.mutate_micros.Add(m.mutate_micros);
      sum.postprocess_micros.Add(m.postprocess_micros);
      sum.batch_size.Add(m.batch_size);
    }
  }
  return sum;
}

stream::LiveStats FleetLiveStats(Fleet& fleet) {
  stream::LiveStats sum;
  for (uint32_t s = 0; s < fleet.router->shard_count(); ++s) {
    const stream::LiveStats one = fleet.router->replicas(s)[0]->LiveStats();
    sum.delta_rows += one.delta_rows;
    sum.tombstones += one.tombstones;
    sum.live_rows += one.live_rows;
  }
  return sum;
}

/// Router layer numbers: from the workload's own router, or, when the
/// workload serves a single engine, from a traced 2x2 router over the same
/// corpus driven by the closed-loop queries and a short mutation burst.
void RouterLayer(const Inputs& in, Fleet& fleet, const std::string& workdir,
                 const std::vector<double>& upsert_ms, double fanout_self_us,
                 Json* layer) {
  Fleet probe;
  Fleet* routed = &fleet;
  std::vector<double> upserts = upsert_ms;
  if (!fleet.router) {
    probe.model = fleet.model;
    probe.router = BuildRouter(in, fleet.corpus, fleet.model, workdir);
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().SetEnabled(true);
    RunClosedPhase(probe, in, nullptr);
    obs::Tracer::Global().SetEnabled(false);
    for (const auto& row : obs::StageBreakdown(obs::Tracer::Global().Drain())) {
      if (std::string("router/fanout") == row.name && row.spans > 0) {
        fanout_self_us = row.self_micros / static_cast<double>(row.spans);
      }
    }
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < 64; ++i) {
      const SteadyTime t0 = SteadyNow();
      const auto id = probe.router->Upsert(in.left[(i * 31) % in.left.size()]);
      if (!id.ok()) continue;
      upserts.push_back(MicrosBetween(t0, SteadyNow()) / 1e3);
      ids.push_back(id.value());
    }
    for (size_t i = 0; i < ids.size(); i += 4) probe.router->Delete(ids[i]);
    routed = &probe;
  }
  serve::Router& router = *routed->router;
  const SteadyTime give_up = AfterMicros(SteadyNow(), 10'000'000);
  while (!router.Converged() && SteadyNow() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const serve::RouterMetrics m = router.Metrics();
  HistogramSnapshot roundtrip;
  for (const auto& shard : m.shard_micros) {
    for (const auto& replica : shard) roundtrip.Add(replica);
  }
  uint64_t log_records = 0;
  for (uint32_t s = 0; s < router.shard_count(); ++s) {
    log_records += router.log_last_seq(s);
  }
  layer->Num("router.embed_us.p50", m.embed_micros.Percentile(0.5))
      .Num("router.fanout_self_us", fanout_self_us)
      .Num("router.gather_us.p50", m.gather_micros.Percentile(0.5))
      .Num("router.merge_us.p50", m.merge_micros.Percentile(0.5))
      .Num("router.shard_roundtrip_us.p99", roundtrip.Percentile(0.99))
      .Num("router.upsert_ms.p50", Percentile(upserts, 0.5))
      .Num("router.partial_replies", m.partial)
      .Num("router.sibling_retries", m.sibling_retries)
      .Num("router.shards_degraded", m.shards_degraded)
      .Num("recover.log_records", log_records)
      .Num("recover.converged", router.Converged());
  if (routed == &probe) probe.router->Stop();
}

}  // namespace

int RunProbeTrial(const TrialArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const PhasePlan plan = PlanPhases(args.seconds);
  const Inputs in = MakeInputs(spec, args.seed, plan);
  const PhaseCounts counts = CountPhases(in);
  Progress("plan setup=0 closed=" + std::to_string(3 * counts.closed) +
           " low=" + std::to_string(counts.low) +
           " high=" + std::to_string(counts.high) + " probe=0 bulk=1");
  Progress("phase setup");
  Fleet fleet = BuildFleet(in, args.workdir);
  Oracle oracle;
  if (!spec.router) oracle = BuildEngineOracle(in, fleet);
  const Oracle* checked = spec.router ? nullptr : &oracle;
  Json layer, checks, design;

  // Untraced closed loops before and after the traced one: the reference
  // for the tracing overhead.
  WarmUp(fleet, in);
  Progress("phase closed");
  const PhaseStats untraced = RunClosedPhase(fleet, in, checked);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetRingCapacity(kRingSpans);
  tracer.Clear();
  tracer.SetEnabled(true);
  PhaseStats closed, low, high, twin_stats;
  MutationLedger ledger;
  {
    obs::Span span("perfbench/closed");
    closed = RunClosedPhase(fleet, in, checked);
  }
  tracer.SetEnabled(false);
  const PhaseStats untraced_after = RunClosedPhase(fleet, in, checked);
  tracer.SetEnabled(true);
  Progress("phase low");
  {
    obs::Span span("perfbench/low");
    low = RunOpenPhase(fleet, in, checked, in.closed_end_micros,
                       in.low_end_micros, &ledger);
  }
  Progress("phase high");
  {
    obs::Span span("perfbench/high");
    high = RunOpenPhase(fleet, in, checked, in.low_end_micros, INT64_MAX,
                        &ledger);
  }
  Progress("phase probe");
  serve::EngineMetrics engine_metrics = FleetEngineMetrics(fleet);
  stream::LiveStats live;
  if (!spec.router) {
    obs::Span span("perfbench/twin_mutations");
    serve::EngineMetrics twin_metrics;
    twin_stats = RunTwinMutations(in, fleet, &live, &twin_metrics);
    engine_metrics.mutate_micros = twin_metrics.mutate_micros;
    checks.Num("replies_match_oracle",
               closed.wrong + low.wrong + high.wrong + untraced.wrong +
                       untraced_after.wrong ==
                   0);
  } else {
    live = FleetLiveStats(fleet);
  }

  // Inputs as the program sees them: every query text of the schedule.
  std::vector<std::string> texts;
  for (const auto& event : in.trace.events) {
    if (event.op == load::TraceEvent::Op::kQuery) {
      texts.push_back(in.QueryText(event.key));
    }
  }
  const auto config = embed::TransformerConfigFor(embed::ModelId::kSGtrT5);
  double tokens_per_record = 0;
  {
    obs::Span span("perfbench/text");
    std::unordered_set<std::string> seen_texts, seen_tokens;
    size_t repeat_texts = 0, tokens = 0, repeat_tokens = 0, model_tokens = 0;
    for (const std::string& text : texts) {
      repeat_texts += seen_texts.insert(text).second ? 0 : 1;
      const auto words = text::Tokenize(text);
      model_tokens += std::min(words.size(), config.max_tokens);
      for (const auto& word : words) {
        ++tokens;
        repeat_tokens += seen_tokens.insert(word).second ? 0 : 1;
      }
    }
    const size_t sample = std::min<size_t>(texts.size(), 512);
    const double us = TimeCalls([&] {
      for (size_t i = 0; i < sample; ++i) text::Tokenize(texts[i]);
    });
    tokens_per_record =
        double(model_tokens) / std::max<size_t>(1, texts.size());
    layer.Num("embed.repeat_text_share",
              double(repeat_texts) / std::max<size_t>(1, texts.size()))
        .Num("embed.repeat_token_share",
             double(repeat_tokens) / std::max<size_t>(1, tokens))
        .Num("embed.tokens_per_record", tokens_per_record)
        .Num("text.tokenize_us_per_record", us / sample);
  }

  la::Matrix queries;
  {
    obs::Span span("perfbench/embed");
    for (size_t batch : {1, 8, 32}) {
      size_t next = 0;
      const double us = TimeCalls([&] {
        std::vector<std::string> slice;
        for (size_t i = 0; i < batch; ++i) {
          slice.push_back(texts[next++ % texts.size()]);
        }
        fleet.model->VectorizeAll(slice);
      });
      layer.Num("embed.us_per_record.b" + std::to_string(batch),
                us / static_cast<double>(batch));
    }
    queries = fleet.model->VectorizeAll(
        std::vector<std::string>(texts.begin(), texts.begin() + 64));
  }

  {
    obs::Span span("perfbench/la");
    // Encoder shape: one sequence (tokens + CLS) through an FFN projection.
    const size_t m = static_cast<size_t>(std::round(tokens_per_record)) + 1;
    Rng rng(args.seed);
    la::Matrix a(m, config.encoder.dim);
    la::Matrix b(config.encoder.ffn_dim, config.encoder.dim);
    a.FillGaussian(rng, 1.f);
    b.FillGaussian(rng, 1.f);
    la::Matrix c(m, b.rows());
    double us = TimeCalls([&] {
      la::GemmBtStrided(a.Row(0), a.rows(), a.cols(), b.Row(0), b.rows(),
                        b.cols(), a.cols(), c.Row(0), c.cols());
    });
    layer.Num("la.gemm_bt_gflops.encoder",
              2.0 * a.rows() * b.rows() * a.cols() / us / 1e3);
    const size_t n = std::min<size_t>(1024, fleet.corpus.rows());
    std::vector<float> scores(32 * n);
    us = TimeCalls([&] {
      la::GemmBtStrided(queries.Row(0), 32, queries.cols(),
                        fleet.corpus.Row(0), n, fleet.corpus.cols(),
                        queries.cols(), scores.data(), n);
    });
    layer.Num("la.gemm_bt_gflops.scan", 2.0 * 32 * n * queries.cols() / us / 1e3);
  }

  {
    obs::Span span("perfbench/index");
    const la::Matrix one = Rows(queries, 0, 1);
    const la::Matrix batch = Rows(queries, 0, 32);
    layer.Num("index.scan_us_per_query.b1", TimeCalls([&] {
                index::BruteForceTopK(fleet.corpus, one, 10);
              }))
        .Num("index.scan_us_per_query.b32", TimeCalls([&] {
               index::BruteForceTopK(fleet.corpus, batch, 10);
             }) / 32)
        .Num("index.rows_scanned_per_query",
             spec.router ? double(live.live_rows) : double(fleet.corpus.rows()));
  }

  {
    // Delta tax: a live corpus over the same base, queried with an empty
    // delta and again with the delta and tombstones the run ended with.
    obs::Span span("perfbench/stream");
    stream::LiveCorpus corpus(std::make_shared<const serve::Snapshot>(
        serve::Snapshot::Build(Manifest(in, *fleet.model), fleet.corpus)));
    const la::Matrix batch = Rows(queries, 0, 32);
    const auto query_us = [&] {
      std::vector<double> runs;
      for (int i = 0; i < 5; ++i) {
        WallTimer timer;
        corpus.QueryBatch(batch, 10);
        runs.push_back(timer.Seconds() * 1e6);
      }
      return Median(runs);
    };
    const double empty_us = query_us();
    std::vector<std::string> upsert_texts;
    for (size_t i = 0; i < live.delta_rows; ++i) {
      upsert_texts.push_back(in.UpsertText(i));
    }
    const la::Matrix vectors = fleet.model->VectorizeAll(upsert_texts);
    std::vector<uint64_t> ids;
    WallTimer timer;
    for (size_t i = 0; i < vectors.rows(); ++i) {
      const auto id = corpus.Upsert(vectors.Row(i), vectors.cols());
      if (id.ok()) ids.push_back(id.value());
    }
    const double upsert_us = timer.Restart() * 1e6 / std::max<size_t>(1, ids.size());
    size_t deleted = 0;
    for (size_t i = 0; i < ids.size() && deleted < live.tombstones; i += 2) {
      deleted += corpus.Delete(ids[i]).ok() ? 1 : 0;
    }
    const double delete_us = timer.Seconds() * 1e6 / std::max<size_t>(1, deleted);
    layer.Num("stream.delta_rows.end", live.delta_rows)
        .Num("stream.tombstones.end", live.tombstones)
        .Num("stream.delta_tax", query_us() / empty_us)
        .Num("stream.upsert_us", upsert_us)
        .Num("stream.delete_us", delete_us);
  }

  tracer.SetEnabled(false);
  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  if (!args.trace_out.empty()) obs::WriteChromeTrace(spans, args.trace_out);
  StageTotals stages;
  std::string stage_json = "[";
  for (const auto& row : obs::StageBreakdown(spans)) {
    stages.rows[row.name] = row;
    Json j;
    j.Str("name", row.name)
        .Num("spans", row.spans)
        .Num("total_us", row.total_micros)
        .Num("self_us", row.self_micros);
    stage_json += (stage_json.size() > 1 ? "," : "") + j.Dump();
  }
  stage_json += "]";

  const double forwards = stages.Spans("embed/transformer_forward");
  layer.Num("embed.forward_self_us_per_record",
            stages.SelfPerSpan("embed/transformer_forward"))
      .Num("embed.unspanned_self_us_per_record",
           forwards > 0 ? stages.Self("embed/encode_chunk") / forwards : 0)
      .Num("serve.queue_wait_us.p50", engine_metrics.queue_micros.Percentile(0.5))
      .Num("serve.queue_wait_us.p99",
           engine_metrics.queue_micros.Percentile(0.99))
      .Num("serve.batch_size.mean", engine_metrics.batch_size.Mean())
      .Num("serve.embed_stage_us.p50",
           engine_metrics.embed_micros.Percentile(0.5))
      .Num("serve.query_stage_us.p50",
           engine_metrics.query_micros.Percentile(0.5))
      .Num("serve.mutate_stage_us.p50",
           engine_metrics.mutate_micros.Percentile(0.5))
      .Num("serve.complete_stage_us.p50",
           engine_metrics.postprocess_micros.Percentile(0.5))
      .Num("serve.batch_self_us",
           BatchSelfMicros(spans, "serve/batch", "serve/request"))
      .Num("serve.expired", engine_metrics.expired)
      .Num("serve.rejected", engine_metrics.rejected)
      .Num("serve.throttled", engine_metrics.throttled)
      .Num("serve.deadline_misses", engine_metrics.deadline_misses)
      .Num("common.pool_threads", ConfiguredThreads())
      .Num("common.cpu_util",
           high.cpu_s / (high.seconds * std::thread::hardware_concurrency()))
      .Num("obs.tracing_overhead",
           (untraced.ok + untraced_after.ok) /
                   (untraced.seconds + untraced_after.seconds) /
                   (closed.ok / closed.seconds) -
               1)
      .Num("obs.spans_dropped", tracer.DroppedCount());
  std::vector<double> lateness = low.lateness_ms;
  lateness.insert(lateness.end(), high.lateness_ms.begin(),
                  high.lateness_ms.end());
  layer.Num("load.lateness_ms.p99", Percentile(lateness, 0.99));

  // The workload design: embedding must be the largest engine stage when
  // one engine serves Zipf reads; the shard scan must be the largest stage
  // behind the router.
  const double embed_us = spec.router ? stages.Total("router/embed")
                                      : stages.Total("serve/embed");
  const double scan_us = stages.Total("serve/query");
  design.Num("embed_total_us", embed_us)
      .Num("scan_total_us", scan_us)
      .Num("confirmed", spec.router ? scan_us > embed_us : embed_us > scan_us);

  std::vector<double> upserts = low.mutation_ms;
  upserts.insert(upserts.end(), high.mutation_ms.begin(),
                 high.mutation_ms.end());
  RouterLayer(in, fleet, args.workdir, upserts,
              stages.SelfPerSpan("router/fanout"), &layer);
  if (fleet.router) {
    const RouterCheck rc = CheckRouter(in, fleet, ledger);
    checks.Num("converged", rc.converged)
        .Num("replica_digests_equal", rc.digests_equal)
        .Num("probes_match_oracle", rc.probes_ok);
    fleet.router->Stop();
  } else {
    fleet.engine->Stop();
  }
  fleet.engine.reset();
  fleet.router.reset();

  Progress("phase bulk");
  const BulkStats bulk = RunBulk(in, fleet, true);
  checks.Num("bulk_reproduced", bulk.reproduced);
  layer.Num("core.vectorize_s", bulk.seconds - bulk.blocking_s - bulk.matching_s)
      .Num("core.blocking_s", bulk.blocking_s)
      .Num("core.matching_s", bulk.matching_s)
      .Num("core.candidates", bulk.candidates);
  Progress("phase done");

  uint64_t attempted = 1, refused = 0, failed = 0, wrong = 0;
  const PhaseStats* const phases[] = {&untraced, &closed, &untraced_after,
                                      &low, &high, &twin_stats};
  for (const PhaseStats* s : phases) {
    attempted += s->attempted + s->mutations;
    refused += s->refused;
    failed += s->failed + s->mutation_failed;
    wrong += s->wrong;
  }
  Json record;
  record.Str("workload", spec.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("pool_threads", ConfiguredThreads())
      .Num("attempted", attempted)
      .Num("refused", refused)
      .Num("failed", failed)
      .Num("wrong", wrong)
      .Raw("layer", layer.Dump())
      .Raw("stages", stage_json)
      .Raw("design", design.Dump())
      .Raw("checks", checks.Dump());
  std::ofstream out(args.out, std::ios::trunc);
  out << record.Dump() << "\n";
  return out ? 0 : 1;
}

}  // namespace perfbench
