#ifndef EMBER_SERVE_ADMISSION_H_
#define EMBER_SERVE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/timer.h"

/// SLO-aware admission control for the micro-batchers (DESIGN.md §16):
/// per-tenant token buckets evaluated at Submit, plus the shared per-tenant
/// accounting both the Engine and the Router export under `{tenant=}`
/// labels. Everything here takes EXPLICIT timestamps (the CircuitBreaker
/// idiom) so the workload replayer can drive admission on a virtual clock
/// and a trace replays to bit-identical decisions at any thread count.
namespace ember::serve {

/// Queue drain order inside the micro-batcher.
///   kEdf  — earliest-deadline-first: the most urgent queued request drains
///           next; requests without deadlines (and equal deadlines) keep
///           arrival order, so a deadline-free workload behaves exactly
///           like kFifo.
///   kFifo — strict arrival order (the pre-PR10 behavior; kept as the
///           baseline the workload bench compares EDF against).
enum class QueuePolicy : uint32_t { kEdf = 0, kFifo = 1 };

const char* QueuePolicyName(QueuePolicy policy);

/// Per-submit options, taken by every Submit/Upsert/Delete. A bare deadline
/// converts implicitly, so `Submit(record, deadline)` is the untenanted form.
struct SubmitOptions {
  SubmitOptions() = default;
  SubmitOptions(SteadyTime deadline)  // NOLINT(runtime/explicit)
      : deadline(deadline) {}

  SteadyTime deadline = kNoDeadline;
  /// Admission/accounting identity. Empty = the untenanted default tenant
  /// (exported under tenant="default", never quota-limited unless a quota
  /// names "").
  std::string tenant;
  /// Timestamp the token bucket charges this submit at. kAdmitNow (the
  /// default) uses the real clock; the replayer's virtual mode passes the
  /// trace's arrival instants so bucket decisions replay bit-identically.
  SteadyTime admit_time = SteadyTime::min();
};

/// SubmitOptions.admit_time sentinel: "charge at the real current time".
inline constexpr SteadyTime kAdmitNow = SteadyTime::min();

/// One tenant's admission quota: a token bucket refilled at `rate_per_sec`
/// with capacity `burst`. Tenants without a quota are never throttled.
struct TenantQuota {
  std::string tenant;
  double rate_per_sec = 0;
  double burst = 0;
};

/// Classic token bucket with an explicit clock: refill is computed from the
/// timestamps the caller passes, never from a hidden SteadyNow(), so a
/// given (quota, timestamp sequence) always yields the same accept/refuse
/// sequence. Not thread-safe by itself; AdmissionController serializes.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst);

  /// Takes one token at `now` (refilling first). False = over quota.
  bool TryAcquire(SteadyTime now);

  double tokens() const { return tokens_; }

 private:
  double rate_per_sec_;
  double burst_;
  double tokens_;
  bool primed_ = false;
  SteadyTime last_;
};

/// The Submit-side admission gate: one token bucket per quota'd tenant.
/// Admit() fires the fail-closed `admit/bucket` failpoint BEFORE consulting
/// any bucket — an injected fault refuses the submission outright (the
/// decision could not be made, so nothing is admitted).
class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const std::vector<TenantQuota>& quotas);

  /// True when at least one quota is configured — callers skip the gate
  /// (and its lock) entirely otherwise, so quota-free engines pay nothing.
  bool enabled() const { return !buckets_.empty(); }

  /// Ok, or Unavailable("tenant ... over quota") when the tenant's bucket
  /// is empty at `now`, or the injected status when `admit/bucket` fires.
  /// Tenants without a configured quota are always admitted.
  Status Admit(const std::string& tenant, SteadyTime now);

 private:
  std::mutex mu_;
  std::map<std::string, TokenBucket> buckets_;
};

/// Point-in-time per-tenant accounting, exported with `{tenant=}` labels.
struct TenantCounters {
  std::string tenant;  // "" is exported as "default"
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t completed = 0;
  uint64_t expired = 0;
  uint64_t failed = 0;
  uint64_t throttled = 0;  // refused by the token bucket (never enqueued)
  uint64_t rejected = 0;   // refused by backpressure (queue full / stopped)
  uint64_t deadline_misses = 0;
  HistogramSnapshot total_micros;  // submit -> completion
};

/// Thread-safe per-tenant counter map shared by Engine and Router. One
/// mutex over a small map: tenants number in the handful, and the serve
/// path's per-request cost is a lookup + increment.
class TenantLedger {
 public:
  enum class Event : uint32_t {
    kSubmitted = 0,
    kCompleted = 1,
    kExpired = 2,
    kFailed = 3,
    kThrottled = 4,
    kRejected = 5,
    kDeadlineMiss = 6,
  };

  void Record(const std::string& tenant, Event event);
  void RecordLatency(const std::string& tenant, double micros);

  /// Sorted by tenant name; the "" tenant is renamed "default".
  std::vector<TenantCounters> Snapshot() const;

 private:
  struct Slot {
    uint64_t counts[7] = {0, 0, 0, 0, 0, 0, 0};
    std::unique_ptr<LatencyHistogram> total_micros =
        std::make_unique<LatencyHistogram>();
  };
  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_ADMISSION_H_
