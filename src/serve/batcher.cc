#include "serve/batcher.h"

namespace ember::serve {

BatcherCore::BatcherCore(BatcherOptions options, const BatcherNames& names)
    : options_(std::move(options)),
      names_(names),
      admission_(options_.quotas) {
  options_.max_queue = std::max<size_t>(1, options_.max_queue);
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  options_.workers = std::max<size_t>(1, options_.workers);
  options_.max_wait_micros = std::max<int64_t>(0, options_.max_wait_micros);
}

Status BatcherCore::Admit(const std::string& tenant, SteadyTime admit_time) {
  if (!admission_.enabled()) return Status::Ok();
  obs::Span admit_span(names_.admit_span);
  const SteadyTime now = admit_time == kAdmitNow ? SteadyNow() : admit_time;
  Status admitted = admission_.Admit(tenant, now);
  if (!admitted.ok()) {
    throttled_.fetch_add(1, std::memory_order_relaxed);
    ledger_.Record(tenant, TenantLedger::Event::kThrottled);
  }
  return admitted;
}

Status BatcherCore::Reject(const std::string& tenant, std::string why) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  if (Tracked(tenant)) ledger_.Record(tenant, TenantLedger::Event::kRejected);
  return Status::Unavailable(std::move(why));
}

void BatcherCore::Accept(const std::string& tenant) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (Tracked(tenant)) ledger_.Record(tenant, TenantLedger::Event::kSubmitted);
}

void BatcherCore::Expire(const QueuedRequest& request) {
  expired_.fetch_add(1, std::memory_order_relaxed);
  if (Tracked(request.tenant)) {
    ledger_.Record(request.tenant, TenantLedger::Event::kExpired);
  }
}

void BatcherCore::Completed(const QueuedRequest& request) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (Tracked(request.tenant)) {
    ledger_.Record(request.tenant, TenantLedger::Event::kCompleted);
  }
}

void BatcherCore::Failed(const QueuedRequest& request) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (Tracked(request.tenant)) {
    ledger_.Record(request.tenant, TenantLedger::Event::kFailed);
  }
}

void BatcherCore::Answered(const QueuedRequest& request, SteadyTime done,
                           const obs::SpanContext& batch, size_t slot) {
  const bool tracked = Tracked(request.tenant);
  if (request.deadline < done) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    if (tracked) {
      ledger_.Record(request.tenant, TenantLedger::Event::kDeadlineMiss);
    }
  }
  const int64_t latency = MicrosBetween(request.enqueued, done);
  total_micros_.Record(latency);
  if (tracked) {
    ledger_.RecordLatency(request.tenant, static_cast<double>(latency));
  }
  // The request's own span runs from enqueue (client thread) to the answer
  // (this worker): an explicit-timestamp emit, parented under the batch.
  obs::EmitSpan(names_.request_span, batch, slot, request.enqueued, done);
}

BatcherMetrics BatcherCore::Metrics() const {
  BatcherMetrics metrics;
  metrics.submitted = submitted_.load(std::memory_order_relaxed);
  metrics.completed = completed_.load(std::memory_order_relaxed);
  metrics.rejected = rejected_.load(std::memory_order_relaxed);
  metrics.throttled = throttled_.load(std::memory_order_relaxed);
  metrics.expired = expired_.load(std::memory_order_relaxed);
  metrics.failed = failed_.load(std::memory_order_relaxed);
  metrics.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  metrics.batches = batches_.load(std::memory_order_relaxed);
  metrics.queue_micros = queue_micros_.Snapshot();
  metrics.total_micros = total_micros_.Snapshot();
  metrics.batch_size = batch_size_.Snapshot();
  metrics.tenants = ledger_.Snapshot();
  return metrics;
}

void AppendBatcherSamples(const BatcherMetrics& metrics, const char* prefix,
                          const obs::Labels& labels,
                          std::vector<obs::Sample>& samples) {
  auto sample = [&](const char* name, const char* help, obs::MetricKind kind,
                    const obs::Labels& series) -> obs::Sample& {
    samples.push_back({std::string(prefix) + name, help, kind, series});
    return samples.back();
  };
  auto counter = [&](const char* name, const char* help, uint64_t value,
                     const obs::Labels& series) {
    sample(name, help, obs::MetricKind::kCounter, series).value =
        static_cast<double>(value);
  };
  auto histogram = [&](const char* name, const char* help,
                       const HistogramSnapshot& value,
                       const obs::Labels& series) {
    sample(name, help, obs::MetricKind::kHistogram, series).histogram = value;
  };
  counter("_submitted_total", "Requests accepted into the queue",
          metrics.submitted, labels);
  counter("_completed_total", "Requests answered with neighbors",
          metrics.completed, labels);
  counter("_rejected_total", "Requests refused at Submit", metrics.rejected,
          labels);
  counter("_throttled_total",
          "Requests refused by the per-tenant token bucket", metrics.throttled,
          labels);
  counter("_expired_total", "Requests shed before embedding", metrics.expired,
          labels);
  counter("_failed_total", "Requests failed with an error", metrics.failed,
          labels);
  counter("_deadline_misses_total", "Requests completed after their deadline",
          metrics.deadline_misses, labels);
  counter("_batches_total", "Micro-batches processed", metrics.batches,
          labels);
  histogram("_queue_micros", "Submit to dequeue wait per request",
            metrics.queue_micros, labels);
  histogram("_total_micros", "Submit to completion per request",
            metrics.total_micros, labels);
  histogram("_batch_size", "Live requests per processed batch",
            metrics.batch_size, labels);
  // Per-tenant breakdown (DESIGN.md §16). Distinct metric families (the
  // tenant_ prefix) keep the series above label-stable; tenant rows only
  // exist for tenant-aware traffic, so untenanted front ends export exactly
  // the pre-tenant sample set.
  for (const TenantCounters& tenant : metrics.tenants) {
    obs::Labels series = labels;
    series["tenant"] = tenant.tenant;
    counter("_tenant_submitted_total",
            "Per-tenant requests accepted into the queue", tenant.submitted,
            series);
    counter("_tenant_completed_total", "Per-tenant requests completed",
            tenant.completed, series);
    counter("_tenant_throttled_total",
            "Per-tenant requests refused by the token bucket",
            tenant.throttled, series);
    counter("_tenant_rejected_total",
            "Per-tenant requests refused by backpressure", tenant.rejected,
            series);
    counter("_tenant_expired_total",
            "Per-tenant requests shed past their deadline", tenant.expired,
            series);
    counter("_tenant_failed_total", "Per-tenant requests failed with an error",
            tenant.failed, series);
    counter("_tenant_deadline_misses_total",
            "Per-tenant requests completed after their deadline",
            tenant.deadline_misses, series);
    histogram("_tenant_total_micros", "Per-tenant submit to completion latency",
              tenant.total_micros, series);
  }
}

}  // namespace ember::serve
