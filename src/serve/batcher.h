#ifndef EMBER_SERVE_BATCHER_H_
#define EMBER_SERVE_BATCHER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/timer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/admission.h"

/// The one micro-batcher behind both serving front ends (DESIGN.md §9):
/// token-bucket admission, the bounded EDF/FIFO queue, the max-batch/
/// max-wait drain loop and its workers, deadline shedding, and the counter
/// identity with its per-tenant ledger. serve::Engine and serve::Router
/// each own one and add only their batch stage (embed + mutate + query, or
/// embed + fan-out + gather + merge).
namespace ember::serve {

/// The batcher's knobs, copied from the same-named flat fields of
/// EngineOptions / RouterOptions. The constructor clamps them to sane
/// minimums (queue, batch and workers >= 1; wait >= 0).
struct BatcherOptions {
  size_t max_queue = 1024;
  size_t max_batch = 32;
  int64_t max_wait_micros = 2000;
  size_t workers = 1;
  QueuePolicy queue_policy = QueuePolicy::kEdf;
  std::vector<TenantQuota> quotas;

  template <typename FrontEndOptions>
  static BatcherOptions From(const FrontEndOptions& options) {
    return {options.max_queue, options.max_batch, options.max_wait_micros,
            options.workers,   options.queue_policy, options.quotas};
  }
};

/// What one front end is called in errors, metrics and spans. Every string
/// must have static lifetime (span records keep the pointer).
struct BatcherNames {
  const char* owner;          // "engine is stopped" / "router is stopped"
  const char* metric_prefix;  // ember_serve / ember_router
  const char* admit_span;
  const char* batch_span;
  const char* shed_span;
  const char* request_span;
};

/// The fields the batcher reads and stamps on a queued request. A front
/// end's request type derives from this and adds `void Fail(const Status&)`,
/// which settles whichever promise it armed.
struct QueuedRequest {
  SteadyTime deadline = kNoDeadline;
  SteadyTime enqueued;
  std::string tenant;  // admission/accounting identity ("" = default)
  uint64_t seq = 0;    // arrival order: the EDF tie-break and the FIFO key
};

/// The batcher's counters and histograms; EngineMetrics and RouterMetrics
/// extend it. Counter identity: submitted == completed + expired + failed +
/// still-in-flight. Rejected and throttled submissions never enter the
/// queue and are counted separately.
struct BatcherMetrics {
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t completed = 0;  // answered
  uint64_t rejected = 0;   // refused at Submit (queue full / stopped)
  uint64_t throttled = 0;  // refused at Submit by the token bucket
  uint64_t expired = 0;    // shed before embedding (deadline passed)
  uint64_t failed = 0;     // settled with a non-deadline error
  uint64_t deadline_misses = 0;  // completed, but after their deadline
  uint64_t batches = 0;

  HistogramSnapshot queue_micros;  // submit -> drained from the queue
  HistogramSnapshot total_micros;  // submit -> answered
  HistogramSnapshot batch_size;    // live requests per processed batch

  /// Per-tenant breakdown, sorted by tenant name; the untenanted default
  /// path appears as tenant "default". Each tenant satisfies the same
  /// counter identity as the totals above.
  std::vector<TenantCounters> tenants;
};

/// Appends the batcher families (`<prefix>_submitted_total` ...
/// `<prefix>_batch_size`, plus the `<prefix>_tenant_*` families with a
/// `tenant=` label) to `samples`, every series carrying `labels`.
void AppendBatcherSamples(const BatcherMetrics& metrics, const char* prefix,
                          const obs::Labels& labels,
                          std::vector<obs::Sample>& samples);

/// Identifies one drained batch to the front end's stage.
struct BatchInfo {
  uint64_t number = 0;    // 0, 1, 2, ... per batcher: the retry seed
  obs::SpanContext span;  // the batch's root span: parent of request spans
};

/// The request-type-independent half of the batcher: admission and the
/// counter identity. Thread-safe.
class BatcherCore {
 public:
  BatcherCore(BatcherOptions options, const BatcherNames& names);

  /// The first admission step: the tenant's token bucket, charged at
  /// `admit_time` (kAdmitNow = the real clock). An over-quota tenant gets
  /// Unavailable, counted as throttled. Its verdict depends only on the
  /// quota and the admit timestamps, never on health or queue depth, so a
  /// replayed trace reproduces every throttle decision.
  Status Admit(const std::string& tenant, SteadyTime admit_time);

  /// Settles one dequeued request: exactly one of Completed / Failed per
  /// request that was not shed.
  void Completed(const QueuedRequest& request);
  void Failed(const QueuedRequest& request);
  /// Answer timing of a request replied to at `done`: deadline miss,
  /// end-to-end latency, and its request span (keyed by the in-batch slot).
  void Answered(const QueuedRequest& request, SteadyTime done,
                const obs::SpanContext& batch, size_t slot);

  BatcherMetrics Metrics() const;

 protected:
  /// Untenanted traffic on a quota-free batcher skips the ledger entirely.
  bool Tracked(const std::string& tenant) const {
    return admission_.enabled() || !tenant.empty();
  }
  Status Reject(const std::string& tenant, std::string why);
  void Accept(const std::string& tenant);
  void Expire(const QueuedRequest& request);

  BatcherOptions options_;
  BatcherNames names_;
  AdmissionController admission_;
  TenantLedger ledger_;

  // Atomics, not guarded by the queue lock: Metrics() must stay cheap
  // enough to call from a live load generator.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> throttled_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> batches_{0};
  LatencyHistogram queue_micros_;
  LatencyHistogram total_micros_;
  LatencyHistogram batch_size_;
};

/// The queue half: a bounded binary heap of `Request`s (derived from
/// QueuedRequest) drained by `options.workers` threads. Each worker waits
/// until `max_batch` requests are queued or the most urgent one has waited
/// `max_wait_micros`, pops up to `max_batch` in urgency order, sheds the
/// expired ones, and hands the live rest to the stage — one call per batch.
template <typename Request>
class Batcher : public BatcherCore {
 public:
  using Stage = std::function<void(std::vector<Request>& live,
                                   const BatchInfo& batch)>;

  using BatcherCore::BatcherCore;
  ~Batcher() { Stop(); }

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Spawns the workers. Call once, after the stage's owner is ready.
  void Start(Stage stage) {
    stage_ = std::move(stage);
    workers_.reserve(options_.workers);
    for (size_t w = 0; w < options_.workers; ++w) {
      workers_.emplace_back([this] { DrainLoop(); });
    }
  }

  /// The last admission step: refuses (Unavailable, counted rejected) when
  /// stopped or full, otherwise stamps arrival and queues the request.
  Status Push(Request request) {
    request.enqueued = SteadyNow();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return Reject(request.tenant, std::string(names_.owner) +
                                          " is stopped");
      }
      if (queue_.size() >= options_.max_queue) {
        return Reject(request.tenant, "queue full (" +
                                          std::to_string(options_.max_queue) +
                                          ")");
      }
      request.seq = queue_seq_++;
      Accept(request.tenant);
      queue_.push_back(std::move(request));
      std::push_heap(queue_.begin(), queue_.end(),
                     Urgency{options_.queue_policy});
    }
    cv_.notify_one();
    return Status::Ok();
  }

  /// Refuses new work, lets the workers drain every queued request (shed
  /// or answered), and joins them. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  /// Min-heap "greater" comparator: under kEdf the earliest deadline drains
  /// first (seq breaks ties, so deadline-free traffic, where every deadline
  /// is kNoDeadline, degenerates to arrival order); under kFifo only seq
  /// matters.
  struct Urgency {
    QueuePolicy policy;
    bool operator()(const Request& a, const Request& b) const {
      if (policy == QueuePolicy::kEdf && a.deadline != b.deadline) {
        return a.deadline > b.deadline;
      }
      return a.seq > b.seq;
    }
  };

  void DrainLoop() {
    for (;;) {
      std::vector<Request> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stopping_) return;  // drained: stop only once the queue is empty
          continue;
        }
        // The window closes once the MOST URGENT queued request (heap
        // front) has waited out max_wait_micros. wait_until releases the
        // lock, so another worker may drain the queue meanwhile — hence the
        // re-check below instead of assuming front().
        const SteadyTime window_end =
            AfterMicros(queue_.front().enqueued, options_.max_wait_micros);
        cv_.wait_until(lock, window_end, [this] {
          return stopping_ || queue_.size() >= options_.max_batch;
        });
        if (queue_.empty()) {
          if (stopping_) return;
          continue;
        }
        // Heap pops drain in urgency order, so the batch itself is ordered
        // most-urgent-first (and in arrival order when deadlines are absent
        // or equal — mutations still apply in submission order).
        const Urgency urgency{options_.queue_policy};
        const size_t take = std::min(queue_.size(), options_.max_batch);
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          std::pop_heap(queue_.begin(), queue_.end(), urgency);
          batch.push_back(std::move(queue_.back()));
          queue_.pop_back();
        }
      }
      RunBatch(std::move(batch));
    }
  }

  void RunBatch(std::vector<Request> batch) {
    const SteadyTime drained = SteadyNow();
    const uint64_t batch_no = batches_.fetch_add(1, std::memory_order_relaxed);
    // Trace root per batch, keyed by the batch number: span ids depend on
    // (batch_no, stage name, stage order) only, so a fixed-seed run yields
    // the same span tree at any worker/thread count.
    obs::Span batch_span(names_.batch_span, obs::Span::RootTag{}, batch_no);
    batch_span.AddCount("requests", batch.size());
    // Deadline shedding BEFORE the expensive stage: a request that already
    // missed its deadline gets its status immediately and costs no compute.
    std::vector<Request> live;
    live.reserve(batch.size());
    {
      obs::Span shed_span(names_.shed_span);
      for (Request& request : batch) {
        queue_micros_.Record(MicrosBetween(request.enqueued, drained));
        if (request.deadline < drained) {
          Expire(request);
          request.Fail(Status::DeadlineExceeded("shed before embedding"));
        } else {
          live.push_back(std::move(request));
        }
      }
    }
    if (live.empty()) return;
    batch_span.AddCount("live", live.size());
    batch_size_.Record(static_cast<double>(live.size()));
    stage_(live, BatchInfo{batch_no, batch_span.context()});
  }

  Stage stage_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// Binary heap ordered by Urgency: front() is the next request to drain.
  std::vector<Request> queue_;
  uint64_t queue_seq_ = 0;  // next arrival sequence number, under mu_
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_BATCHER_H_
