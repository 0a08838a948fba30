#include "load/replayer.h"

#include <algorithm>
#include <deque>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"

namespace ember::load {

namespace {

/// Admission decision codes folded into the digest.
enum class Decision : uint64_t { kAdmitted = 0, kThrottled = 1, kRejected = 2 };

/// A trace's virtual epoch: an arbitrary fixed steady-clock origin. Token
/// buckets only ever difference timestamps, so any origin later than
/// kAdmitNow (SteadyTime::min()) works; epoch + arrival_micros makes the
/// bucket refill schedule a pure function of the trace.
SteadyTime VirtualEpoch() { return SteadyTime(); }

bool IsThrottle(const Status& status) {
  return status.message().find("quota") != std::string::npos;
}

struct Outstanding {
  std::future<Result<serve::QueryReply>> future;
  size_t tenant = 0;
};

}  // namespace

uint64_t ReplayReport::Signature() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto fold = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  fold(events);
  fold(queries);
  fold(upserts);
  fold(deletes);
  fold(reloads);
  fold(submitted);
  fold(throttled);
  fold(rejected);
  fold(completed);
  fold(expired);
  fold(failed);
  fold(unmapped_deletes);
  fold(admission_digest);
  for (const TenantReplay& tenant : per_tenant) {
    fold(HashBytes(tenant.name.data(), tenant.name.size()));
    fold(tenant.submitted);
    fold(tenant.throttled);
    fold(tenant.rejected);
    fold(tenant.completed);
    fold(tenant.expired);
    fold(tenant.failed);
  }
  return h;
}

std::vector<serve::TenantQuota> QuotasFromTrace(const Trace& trace) {
  std::vector<serve::TenantQuota> quotas;
  for (const TraceTenant& tenant : trace.manifest.tenants) {
    if (tenant.rate_per_sec <= 0) continue;
    serve::TenantQuota quota;
    quota.tenant = tenant.name;
    quota.rate_per_sec = tenant.rate_per_sec;
    quota.burst = tenant.burst;
    quotas.push_back(std::move(quota));
  }
  return quotas;
}

Result<ReplayReport> Replay(const Trace& trace,
                            const std::vector<serve::Engine*>& engines,
                            const ReplayOptions& options) {
  if (engines.empty() || engines.front() == nullptr) {
    return Status::InvalidArgument("replay needs at least one engine");
  }
  for (serve::Engine* engine : engines) {
    if (engine == nullptr) {
      return Status::InvalidArgument("replay engine list holds a null");
    }
  }
  const bool virtual_mode = options.mode == ReplayOptions::Mode::kVirtual;
  const double speed = options.speed > 0 ? options.speed : 1.0;
  const size_t max_outstanding = std::max<size_t>(1, options.max_outstanding);

  ReplayReport report;
  report.per_tenant.resize(trace.manifest.tenants.size());
  for (size_t t = 0; t < trace.manifest.tenants.size(); ++t) {
    report.per_tenant[t].name = trace.manifest.tenants[t].name;
  }
  if (report.per_tenant.empty()) report.per_tenant.resize(1);

  auto engine_for = [&](uint32_t tenant) -> serve::Engine& {
    return *engines[std::min<size_t>(tenant, engines.size() - 1)];
  };
  auto tenant_name = [&](uint32_t tenant) -> std::string {
    if (tenant < trace.manifest.tenants.size()) {
      return trace.manifest.tenants[tenant].name;
    }
    return "";
  };

  // key -> engine global id, per tenant: how deletes find the row an
  // earlier upsert created. Base keys (rows present before replay) map to
  // themselves — the trace generator draws them from [0, corpus_rows) and
  // the snapshot's global ids are exactly that range.
  std::vector<std::unordered_map<uint64_t, uint64_t>> upsert_ids(
      report.per_tenant.size());
  // kTimed defers upsert futures until a delete needs the id (blocking the
  // open loop on every mutation would serialize the workload), and delete
  // futures until the final drain.
  std::vector<
      std::unordered_map<uint64_t, std::future<Result<serve::MutateReply>>>>
      pending_upserts(report.per_tenant.size());
  std::vector<std::pair<size_t, std::future<Result<serve::MutateReply>>>>
      pending_deletes;

  std::deque<Outstanding> outstanding;
  uint64_t digest = 0x2545f4914f6cdd1dULL;
  auto fold_decision = [&digest](uint64_t index, Decision decision) {
    digest = SplitMix64(digest ^ SplitMix64(index * 3 +
                                            static_cast<uint64_t>(decision)));
  };

  // Counts one settled future as completed, expired or failed.
  auto settle = [&](size_t tenant_index, const Status& status) {
    TenantReplay& tenant = report.per_tenant[tenant_index];
    if (status.ok()) {
      report.completed++;
      tenant.completed++;
    } else if (status.code() == Status::Code::kDeadlineExceeded) {
      report.expired++;
      tenant.expired++;
    } else {
      report.failed++;
      tenant.failed++;
    }
  };
  auto settle_query = [&](Outstanding pending) {
    settle(pending.tenant, pending.future.get().status());
  };
  auto settle_upsert = [&](size_t tenant_index,
                           Result<serve::MutateReply> reply, uint64_t key) {
    settle(tenant_index, reply.status());
    if (reply.ok()) upsert_ids[tenant_index][key] = reply.value().id;
  };
  // Resolves the pending upsert for `key` (the kTimed lazy path) so a
  // following delete can look up the id it was assigned.
  auto resolve_upsert = [&](size_t tenant_index, uint64_t key) {
    auto it = pending_upserts[tenant_index].find(key);
    if (it == pending_upserts[tenant_index].end()) return;
    Result<serve::MutateReply> reply = it->second.get();
    pending_upserts[tenant_index].erase(it);
    settle_upsert(tenant_index, std::move(reply), key);
  };

  WallTimer timer;
  const SteadyTime virtual_epoch = VirtualEpoch();
  const SteadyTime wall_epoch = SteadyNow();

  for (size_t index = 0; index < trace.events.size(); ++index) {
    const TraceEvent& event = trace.events[index];
    report.events++;
    const size_t tenant_index =
        std::min<size_t>(event.tenant, report.per_tenant.size() - 1);
    TenantReplay& tenant = report.per_tenant[tenant_index];
    serve::Engine& engine = engine_for(event.tenant);

    if (event.op == TraceEvent::Op::kReload) {
      report.reloads++;
      if (event.tenant < options.reload_paths.size() &&
          !options.reload_paths[event.tenant].empty()) {
        // A failed reload keeps the old snapshot serving; the replay
        // carries on — the trace records the attempt either way.
        (void)engine.ReloadSnapshot(options.reload_paths[event.tenant]);
      }
      continue;
    }

    serve::SubmitOptions submit;
    submit.tenant = tenant_name(event.tenant);
    if (virtual_mode) {
      // Virtual time: the bucket charges this event at its trace arrival
      // instant; no wall-clock deadline (shedding depends on scheduling,
      // which determinism excludes).
      submit.admit_time = AfterMicros(virtual_epoch, event.arrival_micros);
      submit.deadline = kNoDeadline;
    } else {
      const int64_t scaled =
          static_cast<int64_t>(static_cast<double>(event.arrival_micros) /
                               speed);
      const SteadyTime target = AfterMicros(wall_epoch, scaled);
      std::this_thread::sleep_until(target);
      submit.admit_time = serve::kAdmitNow;
      submit.deadline = event.deadline_micros > 0
                            ? AfterMicros(target, event.deadline_micros)
                            : kNoDeadline;
    }

    auto record_decision = [&](const Status& status) {
      if (status.ok()) {
        report.submitted++;
        tenant.submitted++;
        fold_decision(index, Decision::kAdmitted);
      } else if (IsThrottle(status)) {
        report.throttled++;
        tenant.throttled++;
        fold_decision(index, Decision::kThrottled);
      } else {
        report.rejected++;
        tenant.rejected++;
        fold_decision(index, Decision::kRejected);
      }
    };

    switch (event.op) {
      case TraceEvent::Op::kQuery: {
        report.queries++;
        auto submitted = engine.Submit(event.record, submit);
        record_decision(submitted.status());
        if (submitted.ok()) {
          outstanding.push_back(
              Outstanding{std::move(submitted.value()), tenant_index});
          while (outstanding.size() >= max_outstanding) {
            settle_query(std::move(outstanding.front()));
            outstanding.pop_front();
          }
        }
        break;
      }
      case TraceEvent::Op::kUpsert: {
        report.upserts++;
        auto submitted = engine.Upsert(event.record, submit);
        record_decision(submitted.status());
        if (submitted.ok()) {
          if (virtual_mode) {
            // Block in trace order: replica id assignment then depends only
            // on the admitted-upsert sequence, never on scheduling.
            settle_upsert(tenant_index, submitted.value().get(), event.key);
          } else {
            pending_upserts[tenant_index][event.key] =
                std::move(submitted.value());
          }
        }
        break;
      }
      case TraceEvent::Op::kDelete: {
        report.deletes++;
        if (!virtual_mode) resolve_upsert(tenant_index, event.key);
        const auto id_it = upsert_ids[tenant_index].find(event.key);
        uint64_t global_id = event.key;  // base rows: key IS the global id
        if (id_it != upsert_ids[tenant_index].end()) {
          global_id = id_it->second;
        } else if (event.key >= engine.snapshot()->manifest().rows &&
                   engine.live()) {
          // The upsert that created this key was refused (throttled or
          // rejected) — there is no row to delete. Deterministic skip.
          report.unmapped_deletes++;
          fold_decision(index, Decision::kRejected);
          break;
        }
        auto submitted = engine.Delete(global_id, submit);
        record_decision(submitted.status());
        if (submitted.ok()) {
          if (virtual_mode) {
            settle(tenant_index, submitted.value().get().status());
          } else {
            pending_deletes.emplace_back(tenant_index,
                                         std::move(submitted.value()));
          }
        }
        break;
      }
      case TraceEvent::Op::kReload:
        break;  // handled above
    }
  }

  // Drain: every future settles before the report is final.
  while (!outstanding.empty()) {
    settle_query(std::move(outstanding.front()));
    outstanding.pop_front();
  }
  for (size_t t = 0; t < pending_upserts.size(); ++t) {
    for (auto& [key, future] : pending_upserts[t]) {
      settle_upsert(t, future.get(), key);
    }
    pending_upserts[t].clear();
  }
  for (auto& [tenant_index, future] : pending_deletes) {
    settle(tenant_index, future.get().status());
  }

  report.admission_digest = digest;
  report.wall_seconds = timer.Seconds();
  return report;
}

}  // namespace ember::load
