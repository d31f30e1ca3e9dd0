#include "fleet/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "telemetry/hub.h"

namespace lightwave::fleet {

using common::Status;

namespace {

/// DRR quantum: commands credited per round to a weight-1.0 tenant.
constexpr double kDrrQuantum = 8.0;

bool WellFormed(const TenantQuota& quota) {
  return quota.rate >= 0.0 && quota.burst > 0.0 && quota.weight > 0.0;
}

}  // namespace

AdmissionQueue::AdmissionQueue(AdmissionOptions options) : options_(options) {
  LW_CHECK(options_.per_tenant_queue_capacity > 0) << "zero tenant queue capacity";
  LW_CHECK(WellFormed(options_.default_quota)) << "malformed default quota";
}

AdmissionQueue::TenantState& AdmissionQueue::StateFor(std::uint32_t tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    it->second.quota = options_.default_quota;
    it->second.tokens = it->second.quota.burst;
  }
  return it->second;
}

void AdmissionQueue::SetQuota(std::uint32_t tenant, TenantQuota quota) {
  LW_CHECK(WellFormed(quota)) << "malformed quota for tenant " << tenant;
  lw::MutexLock lock(mu_);
  TenantState& state = StateFor(tenant);
  state.quota = quota;
  state.tokens = quota.burst;
}

Status AdmissionQueue::Offer(const svc::SliceCommand& cmd) {
  lw::MutexLock lock(mu_);
  ++stats_.offered;
  TenantState& state = StateFor(cmd.tenant_id);
  if (state.tokens < 1.0) {
    ++stats_.rejected_quota;
    if (rejected_quota_counter_ != nullptr) rejected_quota_counter_->Inc();
    return common::ResourceExhausted("tenant " + std::to_string(cmd.tenant_id) +
                                     " over quota");
  }
  if (state.queue.size() >= options_.per_tenant_queue_capacity) {
    ++stats_.rejected_backpressure;
    if (rejected_backpressure_counter_ != nullptr) rejected_backpressure_counter_->Inc();
    return common::ResourceExhausted("tenant " + std::to_string(cmd.tenant_id) +
                                     " queue full (" +
                                     std::to_string(options_.per_tenant_queue_capacity) +
                                     ")");
  }
  state.tokens -= 1.0;
  state.queue.push_back(cmd);
  ++depth_;
  ++stats_.admitted;
  if (admitted_counter_ != nullptr) admitted_counter_->Inc();
  UpdateDepthGauge();
  return Status::Ok();
}

void AdmissionQueue::Tick(double seconds) {
  LW_CHECK(seconds >= 0.0) << "negative tick";
  lw::MutexLock lock(mu_);
  for (auto& [tenant, state] : tenants_) {
    state.tokens = std::min(state.quota.burst, state.tokens + state.quota.rate * seconds);
  }
}

std::vector<svc::SliceCommand> AdmissionQueue::PopBatch(std::size_t max_commands) {
  lw::MutexLock lock(mu_);
  std::vector<svc::SliceCommand> out;
  if (max_commands == 0 || depth_ == 0) return out;
  out.reserve(std::min(max_commands, depth_));
  // Deficit round robin over tenant ids in a fixed cyclic order, resuming
  // after the last tenant served by the previous call so no tenant gets a
  // standing head start. Each round credits weight-proportional quantum;
  // a backlogged tenant drains as much of its deficit as fits.
  while (out.size() < max_commands && depth_ > 0) {
    // One full round, starting after the resume cursor.
    auto round_start = has_resume_ ? tenants_.upper_bound(resume_after_)
                                   : tenants_.begin();
    bool served_any = false;
    for (std::size_t visited = 0; visited < tenants_.size() && out.size() < max_commands;
         ++visited) {
      if (round_start == tenants_.end()) round_start = tenants_.begin();
      auto it = round_start++;
      TenantState& state = it->second;
      if (state.queue.empty()) {
        state.deficit = 0.0;  // idle tenants accumulate nothing (classic DRR)
        continue;
      }
      state.deficit += kDrrQuantum * state.quota.weight;
      while (!state.queue.empty() && state.deficit >= 1.0 &&
             out.size() < max_commands) {
        out.push_back(state.queue.front());
        state.queue.pop_front();
        state.deficit -= 1.0;
        --depth_;
        served_any = true;
      }
      resume_after_ = it->first;
      has_resume_ = true;
    }
    if (served_any) continue;
    // A full round served nobody: every backlogged tenant's deficit is still
    // below one command (quantum x weight < 1). Skip the idle rounds the
    // first of them needs before the next round serves it, crediting every
    // backlogged tenant what running those rounds would.
    double idle_rounds = std::numeric_limits<double>::infinity();
    for (const auto& [tenant, state] : tenants_) {
      if (state.queue.empty()) continue;
      const double credit = kDrrQuantum * state.quota.weight;
      idle_rounds = std::min(idle_rounds, std::ceil((1.0 - state.deficit) / credit) - 1.0);
    }
    for (auto& [tenant, state] : tenants_) {
      if (!state.queue.empty()) {
        state.deficit += idle_rounds * kDrrQuantum * state.quota.weight;
      }
    }
  }
  stats_.popped += out.size();
  UpdateDepthGauge();
  return out;
}

std::size_t AdmissionQueue::Depth() const {
  lw::MutexLock lock(mu_);
  return depth_;
}

AdmissionStats AdmissionQueue::stats() const {
  lw::MutexLock lock(mu_);
  return stats_;
}

void AdmissionQueue::AttachTelemetry(telemetry::Hub* hub,
                                     const std::string& shard_label) {
  lw::MutexLock lock(mu_);
  if (hub == nullptr) {
    admitted_counter_ = rejected_quota_counter_ = nullptr;
    rejected_backpressure_counter_ = nullptr;
    depth_gauge_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  admitted_counter_ =
      &metrics.GetCounter("lightwave_fleet_admitted_total", {{"shard", shard_label}});
  rejected_quota_counter_ = &metrics.GetCounter(
      "lightwave_fleet_rejected_total", {{"reason", "quota"}, {"shard", shard_label}});
  rejected_backpressure_counter_ =
      &metrics.GetCounter("lightwave_fleet_rejected_total",
                          {{"reason", "backpressure"}, {"shard", shard_label}});
  depth_gauge_ =
      &metrics.GetGauge("lightwave_fleet_shard_queue_depth", {{"shard", shard_label}});
  UpdateDepthGauge();
}

void AdmissionQueue::UpdateDepthGauge() {
  if (depth_gauge_ != nullptr) depth_gauge_->Set(static_cast<double>(depth_));
}

}  // namespace lightwave::fleet
