#ifndef EMBER_COMMON_FAILPOINT_H_
#define EMBER_COMMON_FAILPOINT_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/status.h"

/// Deterministic fault injection (the fail-rs / RocksDB FaultInjection
/// idiom). Library code marks every fallible boundary with a named
/// failpoint; tests and benchmarks arm those names with a policy — inject
/// an error Status, sleep, fire once, fire every Nth hit, or fire with a
/// seeded probability — and the production code path exercises its own
/// error handling without mocks.
///
/// Unarmed cost is one relaxed atomic load. With EMBER_FAILPOINTS_ENABLED=0
/// (CMake -DEMBER_FAILPOINTS_ENABLED=OFF) the macros compile away entirely
/// and fail::Check() folds to `return Status::Ok()`.
///
/// Spec grammar (programmatic via ConfigureSpec, or the EMBER_FAILPOINTS
/// environment variable read by ConfigureFromEnv):
///
///   EMBER_FAILPOINTS = entry (';' entry)*
///   entry            = point '=' spec
///   spec             = 'off' | action (',' modifier)*
///   action           = 'error' [':' code] | 'delay' ':' micros
///   code             = 'io' | 'unavailable' | 'notfound' | 'internal'
///                    | 'invalid' | 'deadline'          (default: io)
///   modifier         = 'p=' float    probability per eligible hit [0,1]
///                    | 'nth=' n      fire only on every Nth hit (default 1)
///                    | 'max=' n      total fire budget; 1 = one-shot
///                    | 'seed=' n     seed of the probability stream
///
/// Example:
///   EMBER_FAILPOINTS="snapshot/load=error:io,max=1;engine/embed=error:unavailable,p=0.05,seed=7;cache/load=delay:500"

#ifndef EMBER_FAILPOINTS_ENABLED
#define EMBER_FAILPOINTS_ENABLED 1
#endif

namespace ember::fail {

/// Whether failpoints are compiled into this build.
inline constexpr bool kEnabled = EMBER_FAILPOINTS_ENABLED != 0;

/// The failpoint catalog: every injection site compiled into the library.
/// (DESIGN.md §10 documents what each site guards.) Tests iterate this list
/// to prove each site is live; keep it in sync when adding sites.
inline constexpr const char* kCatalog[] = {
    "binary_io/read",     // ReadFileVerified entry (any container load)
    "binary_io/write",    // WriteFileAtomic entry (before the temp write)
    "binary_io/rename",   // WriteFileAtomic publish (temp -> final rename)
    "cache/load",         // VectorCache entry load (fires => miss)
    "cache/store",        // VectorCache entry store (retried)
    "index/load",         // EMBS0002 index attach (fires => corrupt payload)
    "snapshot/save",      // serve::Snapshot::SaveTo entry
    "snapshot/load",      // serve::Snapshot::LoadFrom entry
    "snapshot/validate",  // serve::Snapshot::Validate entry
    "engine/embed",       // serve::Engine embed stage (retried, breaker)
    "engine/query",       // serve::Engine query stage (degraded fallback)
    "router/embed",       // serve::Router embed-once stage (retried)
    "stream/delta_insert",  // stream::LiveCorpus upsert into the delta tier
    "stream/tombstone",     // stream::LiveCorpus tombstone publish (delete)
    "compaction/write",     // serve::Engine compaction snapshot write
    "compaction/swap",      // serve::Engine compaction hot-swap commit
    "recover/log_append",   // recover::MutationLog append (before the ring)
    "recover/replay",       // router recovery worker log replay tick
    "recover/resync",       // router recovery worker snapshot resync
    "recover/digest",       // engine corpus digest computation (anti-entropy)
    "load/trace_read",      // load::Trace::LoadFrom entry (workload replay)
    "admit/bucket",         // per-tenant token-bucket admission (fail closed)
};

/// What an armed point does when its policy fires.
struct PointConfig {
  enum class Action : uint32_t {
    kError = 0,  // return `code` from the injection site
    kDelay = 1,  // sleep `delay_micros`, then proceed normally
  };
  Action action = Action::kError;
  Status::Code code = Status::Code::kIoError;
  int64_t delay_micros = 0;
  /// Chance each eligible hit fires; drawn from a seeded xoshiro stream, so
  /// a given (seed, hit sequence) always fires on the same hits.
  double probability = 1.0;
  /// Fire only on every Nth hit (1 = every hit). Evaluated before
  /// probability.
  uint64_t nth = 1;
  /// Total fires allowed; -1 = unlimited, 1 = classic one-shot.
  int64_t max_fires = -1;
  uint64_t seed = 0;
};

struct PointStats {
  uint64_t hits = 0;   // evaluations while armed
  uint64_t fires = 0;  // evaluations that actually injected
  bool armed = false;
};

/// Arms `name` with `config`. Fails with Unavailable when failpoints are
/// compiled out, InvalidArgument on a malformed config.
Status Configure(const std::string& name, const PointConfig& config);

/// Arms `name` from a spec string (grammar above); "off" disarms.
Status ConfigureSpec(const std::string& name, const std::string& spec);

/// Applies a full "a=spec;b=spec" list.
Status ConfigureList(const std::string& list);

/// Applies $EMBER_FAILPOINTS when set; no-op (Ok) when unset.
Status ConfigureFromEnv();

void Disarm(const std::string& name);
void DisarmAll();

/// Stats survive Disarm (armed=false) so tests can reconcile after a run.
PointStats Stats(const std::string& name);
std::vector<std::string> ArmedPoints();

namespace internal {
/// Fast-path gate: number of currently armed points.
extern std::atomic<int> g_armed_points;
Status Evaluate(const char* name);
}  // namespace internal

/// Evaluates the failpoint `name`: Ok unless some test armed it and its
/// policy fires now. The hot path is a single relaxed load when nothing is
/// armed, and the whole call folds away when compiled out.
inline Status Check(const char* name) {
  if constexpr (kEnabled) {
    if (internal::g_armed_points.load(std::memory_order_acquire) > 0) {
      return internal::Evaluate(name);
    }
  }
  (void)name;
  return Status::Ok();
}

}  // namespace ember::fail

/// Injection-site macro for functions returning Status or Result<T>:
/// returns the injected status when the point fires. Compiles to nothing
/// when failpoints are disabled.
#if EMBER_FAILPOINTS_ENABLED
#define EMBER_FAILPOINT(name)                                        \
  do {                                                               \
    ::ember::Status ember_fp_status_ = ::ember::fail::Check(name);   \
    if (!ember_fp_status_.ok()) return ember_fp_status_;             \
  } while (0)
#else
#define EMBER_FAILPOINT(name) \
  do {                        \
  } while (0)
#endif

#endif  // EMBER_COMMON_FAILPOINT_H_
