#include "fleet/shard.h"

#include <chrono>
#include <string>

#include "common/check.h"
#include "telemetry/hub.h"
#include "telemetry/metrics.h"

namespace lightwave::fleet {

using common::Result;
using common::Status;

namespace {
/// Journal-thread poll interval while admission is empty. The pipeline is
/// notification-free on the offer side (admission has no cv), so the
/// journal thread naps briefly between empty polls.
constexpr auto kIdlePoll = std::chrono::microseconds(50);
}  // namespace

Shard::Shard(std::uint32_t shard_id, tpu::Superpod& pod, core::AllocationPolicy policy,
             journal::Storage& wal_storage, journal::Storage& snapshot_storage,
             ShardOptions options)
    : shard_id_(shard_id),
      options_(options),
      service_(pod, policy, wal_storage, snapshot_storage, options_.service),
      admission_(options_.admission) {
  LW_CHECK(options_.batch_size > 0) << "zero batch size";
  LW_CHECK(options_.pipeline_depth > 0) << "zero pipeline depth";
}

Shard::~Shard() { Stop(); }

Result<journal::RecoveryStats> Shard::Recover() { return service_.Recover(); }

Status Shard::Offer(const svc::SliceCommand& cmd) { return admission_.Offer(cmd); }

std::size_t Shard::PumpOnce() {
  LW_CHECK(!running()) << "sync pump while the pipeline is running";
  if (service_.crashed()) return 0;
  JournaledBatch batch;
  if (!Journal(admission_.PopBatch(options_.batch_size), &batch)) return 0;
  return service_.ApplyJournaled(batch.commands, batch.first_seq);
}

std::size_t Shard::PumpAll() {
  std::size_t total = 0;
  while (admission_.Depth() > 0 && !service_.crashed()) total += PumpOnce();
  return total;
}

Status Shard::SubmitControl(const svc::SliceCommand& cmd) {
  LW_CHECK(!running()) << "control submit while the pipeline is running";
  if (service_.crashed()) return common::Unavailable("shard crashed");
  switch (service_.AcceptPending(cmd)) {
    case svc::AdmitCheck::kDuplicate: return Status::Ok();  // already journaled
    case svc::AdmitCheck::kGap:
      return common::InvalidArgument("command id gap for tenant " +
                                     std::to_string(cmd.tenant_id) + " at id " +
                                     std::to_string(cmd.command_id));
    case svc::AdmitCheck::kAccept: break;
  }
  const std::vector<svc::SliceCommand> batch{cmd};
  auto appended = service_.JournalBatch(batch);
  if (appended.ok()) service_.ApplyJournaled(batch, appended.value());
  if (service_.crashed()) return common::Unavailable("shard crashed");
  LW_CHECK(appended.ok()) << "journal append failed: " << appended.error().message;
  return Status::Ok();
}

void Shard::Start() {
  LW_CHECK(!running()) << "pipeline already running";
  stop_requested_.store(false, std::memory_order_release);
  {
    lw::MutexLock lock(handoff_mu_);
    journal_done_ = false;
  }
  running_.store(true, std::memory_order_release);
  journal_thread_ = std::thread([this] { JournalLoop(); });
  apply_thread_ = std::thread([this] { ApplyLoop(); });
}

void Shard::Stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  journal_thread_.join();  // drains admission (or stops at a crash) first
  {
    lw::MutexLock lock(handoff_mu_);
    journal_done_ = true;
  }
  handoff_cv_.NotifyAll();
  apply_thread_.join();  // drains the handoff queue before exiting
  running_.store(false, std::memory_order_release);
}

void Shard::Drain() {
  LW_CHECK(running()) << "drain without a running pipeline";
  while (!service_.crashed()) {
    if (admission_.Depth() == 0) {
      lw::MutexLock lock(handoff_mu_);
      if (handoff_.empty() && !journal_busy_ && applying_ == 0) return;
    }
    std::this_thread::sleep_for(kIdlePoll);
  }
}

std::vector<svc::SliceCommand> Shard::FilterPending(
    std::vector<svc::SliceCommand> batch) {
  std::uint64_t duplicates = 0;
  std::uint64_t gaps = 0;
  std::size_t kept = 0;
  for (svc::SliceCommand& cmd : batch) {
    switch (service_.AcceptPending(cmd)) {
      case svc::AdmitCheck::kAccept: batch[kept++] = std::move(cmd); break;
      case svc::AdmitCheck::kDuplicate: ++duplicates; break;
      case svc::AdmitCheck::kGap: ++gaps; break;
    }
  }
  batch.resize(kept);
  if (duplicates > 0 || gaps > 0) {
    lw::MutexLock lock(stats_mu_);
    stats_.pipeline_duplicates += duplicates;
    stats_.pipeline_gaps += gaps;
  }
  return batch;
}

bool Shard::Journal(std::vector<svc::SliceCommand> popped, JournaledBatch* out) {
  out->commands = FilterPending(std::move(popped));
  if (out->commands.empty()) return false;
  auto appended = service_.JournalBatch(out->commands);
  if (!appended.ok()) {
    LW_CHECK(service_.crashed()) << "journal append failed: " << appended.error().message;
    return false;
  }
  out->first_seq = appended.value();
  if (batch_histogram_ != nullptr) {
    batch_histogram_->Observe(static_cast<double>(out->commands.size()));
  }
  return true;
}

void Shard::JournalLoop() {
  while (!service_.crashed()) {
    {
      lw::MutexLock lock(handoff_mu_);
      journal_busy_ = true;
    }
    auto popped = admission_.PopBatch(options_.batch_size);
    if (popped.empty()) {
      {
        lw::MutexLock lock(handoff_mu_);
        journal_busy_ = false;
      }
      if (stop_requested_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    JournaledBatch batch;
    const bool journaled = Journal(std::move(popped), &batch);
    {
      lw::MutexLock lock(handoff_mu_);
      if (journaled) {
        // The apply thread keeps popping after a crash (its applies are
        // no-ops), so a full handoff always frees up.
        while (handoff_.size() >= options_.pipeline_depth) handoff_cv_.Wait(handoff_mu_);
        handoff_.push_back(std::move(batch));
      }
      journal_busy_ = false;
    }
    if (journaled) handoff_cv_.NotifyAll();
  }
}

void Shard::ApplyLoop() {
  while (true) {
    JournaledBatch batch;
    {
      lw::MutexLock lock(handoff_mu_);
      while (handoff_.empty() && !journal_done_) handoff_cv_.Wait(handoff_mu_);
      if (handoff_.empty()) return;  // journal_done_ and fully drained
      batch = std::move(handoff_.front());
      handoff_.pop_front();
      ++applying_;
    }
    handoff_cv_.NotifyAll();  // freed a handoff slot for the journal thread
    service_.ApplyJournaled(batch.commands, batch.first_seq);
    {
      lw::MutexLock lock(handoff_mu_);
      --applying_;
    }
  }
}

ShardStats Shard::stats() const {
  LW_CHECK(!running()) << "stats while the pipeline is running (quiesce first)";
  lw::MutexLock lock(stats_mu_);
  ShardStats out = stats_;
  out.batches = service_.stats().batches;
  return out;
}

void Shard::AttachTelemetry(telemetry::Hub* hub) {
  LW_CHECK(!running()) << "attach telemetry before starting the pipeline";
  service_.AttachTelemetry(hub);
  const std::string label = std::to_string(shard_id_);
  admission_.AttachTelemetry(hub, label);
  batch_histogram_ =
      hub == nullptr
          ? nullptr
          : &hub->metrics().GetHistogram("lightwave_fleet_batch_commands",
                                         {{"shard", label}});
}

}  // namespace lightwave::fleet
