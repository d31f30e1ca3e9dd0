// Weighted-fair, quota-enforcing admission front of a fleet shard. The
// paper's fleet scheduler shares one fabric across many training jobs; this
// is the isolation layer that keeps a misbehaving tenant from starving the
// rest:
//
//   * Per-tenant TOKEN BUCKETS enforce quota: Offer() spends one token per
//     command and rejects (kResourceExhausted, reason "quota") when the
//     tenant's bucket is dry. Tick(seconds) refills buckets at the tenant's
//     configured rate, up to its burst.
//   * Per-tenant BOUNDED QUEUES replace one shared queue, so backpressure is
//     per tenant instead of head-of-line: a tenant flooding its own queue is
//     rejected (reason "backpressure") while every other tenant's queue
//     stays open.
//   * DEFICIT ROUND ROBIN dequeues: each PopBatch round grants every
//     backlogged tenant a quantum (8 commands per unit weight) proportional
//     to its weight, so service is weight-fair over time regardless of who
//     shoves hardest.
//
// All entry points are mutex-guarded: the router offers from its thread
// while a pipelined shard's journal thread pops batches.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "svc/command.h"

namespace lightwave::telemetry {
class Counter;
class Gauge;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::fleet {

/// Per-tenant admission contract.
struct TenantQuota {
  /// Tokens (commands) granted per Tick second.
  double rate = 64.0;
  /// Bucket capacity; also the initial fill, so a tenant can burst this
  /// many commands cold.
  double burst = 64.0;
  /// DRR weight: relative share of dequeue bandwidth under contention.
  double weight = 1.0;
};

struct AdmissionOptions {
  /// Contract for tenants without an explicit override; checked like a
  /// SetQuota argument.
  TenantQuota default_quota;
  /// Bound of EACH tenant's queue (per-tenant backpressure).
  std::size_t per_tenant_queue_capacity = 64;
};

struct AdmissionStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t popped = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options = {});

  /// Installs (or replaces) `tenant`'s contract. Affects future refills and
  /// rounds; the bucket re-fills to the new burst.
  void SetQuota(std::uint32_t tenant, TenantQuota quota);

  /// Quota + backpressure gate. Ok = the command is queued and WILL be
  /// popped eventually; the caller may still see a duplicate/gap verdict
  /// from the shard's journal stage.
  common::Status Offer(const svc::SliceCommand& cmd);

  /// Advances every tenant's token bucket by `seconds` of refill.
  void Tick(double seconds);

  /// Deficit-round-robin dequeue of up to `max_commands` across backlogged
  /// tenants. Returns fewer only when the queues drain first: with any
  /// command queued and `max_commands` > 0, at least one is returned.
  std::vector<svc::SliceCommand> PopBatch(std::size_t max_commands);

  /// Total queued commands across tenants.
  std::size_t Depth() const;

  AdmissionStats stats() const;

  /// lightwave_fleet_admitted_total / lightwave_fleet_rejected_total
  /// (reason-labeled) counters and the queue-depth gauge, labeled with this
  /// queue's shard. Pass nullptr to detach.
  void AttachTelemetry(telemetry::Hub* hub, const std::string& shard_label);

 private:
  struct TenantState {
    TenantQuota quota;
    double tokens = 0.0;
    double deficit = 0.0;
    std::deque<svc::SliceCommand> queue;
  };

  /// Lookup-or-create under mu_.
  TenantState& StateFor(std::uint32_t tenant) LW_REQUIRES(mu_);
  void UpdateDepthGauge() LW_REQUIRES(mu_);

  /// Rank kFleetAdmission — the outermost lock of the fleet layer: held
  /// while attaching telemetry series (registry, rank kTelemetryRegistry),
  /// never while any other lw::Mutex is taken first.
  mutable lw::Mutex mu_{"fleet.admission", lw::rank::kFleetAdmission};
  AdmissionOptions options_;
  std::map<std::uint32_t, TenantState> tenants_ LW_GUARDED_BY(mu_);
  /// DRR cursor: tenant id the next round resumes after (fairness across
  /// PopBatch calls).
  std::uint32_t resume_after_ LW_GUARDED_BY(mu_) = 0;
  bool has_resume_ LW_GUARDED_BY(mu_) = false;
  std::size_t depth_ LW_GUARDED_BY(mu_) = 0;
  AdmissionStats stats_ LW_GUARDED_BY(mu_);

  telemetry::Counter* admitted_counter_ LW_GUARDED_BY(mu_) = nullptr;
  telemetry::Counter* rejected_quota_counter_ LW_GUARDED_BY(mu_) = nullptr;
  telemetry::Counter* rejected_backpressure_counter_ LW_GUARDED_BY(mu_) = nullptr;
  telemetry::Gauge* depth_gauge_ LW_GUARDED_BY(mu_) = nullptr;
};

}  // namespace lightwave::fleet
