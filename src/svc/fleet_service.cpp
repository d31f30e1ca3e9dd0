#include "svc/fleet_service.h"

#include <algorithm>

#include "common/check.h"
#include "ctrl/controller.h"
#include "ctrl/wire.h"
#include "telemetry/hub.h"

namespace lightwave::svc {

using common::Result;
using common::Status;
using ctrl::CrashPoint;

namespace {

std::uint64_t FrontierOf(const std::map<std::uint32_t, std::uint64_t>& map,
                         std::uint32_t tenant) {
  auto it = map.find(tenant);
  return it == map.end() ? 1 : it->second;
}

}  // namespace

FleetService::FleetService(tpu::Superpod& pod, core::AllocationPolicy policy,
                           journal::Storage& wal_storage,
                           journal::Storage& snapshot_storage,
                           FleetServiceOptions options)
    : pod_(pod),
      scheduler_(pod, policy),
      snapshot_storage_(snapshot_storage),
      wal_(wal_storage),  // opening the log IS the WAL half of recovery
      options_(options) {}

Result<journal::RecoveryStats> FleetService::Recover() {
  LW_CHECK(!recovered_) << "Recover must run exactly once, before serving";
  recovered_ = true;
  replaying_ = true;
  // Snapshot import and WAL replay stage their installs and removals; the
  // pod programs once, at the end, only the slices that survive the log.
  tpu::Superpod::Batch programming(pod_);
  auto recovery = journal::Replay(
      snapshot_storage_, wal_,
      [this](const journal::Snapshot& snapshot) {
        Status restored = DeserializeState(snapshot.state);
        if (restored.ok()) applied_seq_ = snapshot.last_included_seq;
        return restored;
      },
      [this](const journal::WalRecord& record) -> Status {
        auto cmd = SliceCommand::Decode(record.payload);
        if (!cmd.ok()) return cmd.error();
        ApplyCommand(cmd.value());
        AdvanceCommitted(cmd.value());
        applied_seq_ = record.seq;
        ++commands_since_snapshot_;
        return Status::Ok();
      },
      hub_);
  replaying_ = false;
  // The journal-side frontier resumes at the committed frontier; this copy
  // is the only cross-stage transfer, and it happens before any thread
  // starts.
  pending_next_ = committed_next_;
  return recovery;
}

std::uint64_t FleetService::next_command_id(std::uint32_t tenant) const {
  return FrontierOf(committed_next_, tenant);
}

std::vector<std::uint32_t> FleetService::tenants() const {
  std::vector<std::uint32_t> out;
  for (const auto& [tenant, next] : committed_next_) {
    if (next > 1) out.push_back(tenant);
  }
  return out;
}

AdmitCheck FleetService::CheckPending(const SliceCommand& cmd) const {
  const std::uint64_t expected = FrontierOf(pending_next_, cmd.tenant_id);
  if (cmd.command_id < expected) return AdmitCheck::kDuplicate;
  if (cmd.command_id > expected) return AdmitCheck::kGap;
  return AdmitCheck::kAccept;
}

AdmitCheck FleetService::AcceptPending(const SliceCommand& cmd) {
  const AdmitCheck check = CheckPending(cmd);
  if (check == AdmitCheck::kAccept) pending_next_[cmd.tenant_id] = cmd.command_id + 1;
  return check;
}

void FleetService::AdvancePending(const SliceCommand& cmd) {
  std::uint64_t& next = pending_next_[cmd.tenant_id];
  if (next == 0) next = 1;
  next = std::max(next, cmd.command_id + 1);
}

void FleetService::AdvanceCommitted(const SliceCommand& cmd) {
  std::uint64_t& next = committed_next_[cmd.tenant_id];
  if (next == 0) next = 1;
  next = std::max(next, cmd.command_id + 1);
}

Result<std::uint64_t> FleetService::JournalBatch(const std::vector<SliceCommand>& batch) {
  LW_CHECK(recovered_) << "serve before Recover";
  // Write-ahead order: the crash points bracket the append, and recovery's
  // obligations follow from which side of it the crash landed on (see the
  // header comment). A batch is journaled atomically, so "committed" after
  // a post-append crash means the WHOLE batch.
  if (crashed() || CrashIf(CrashPoint::kPreAppend)) {
    return common::Unavailable("service crashed; recover a successor");
  }
  for (const SliceCommand& cmd : batch) AdvancePending(cmd);
  std::uint64_t first_seq = 0;
  if (options_.journaling) {
    // Honor the compaction floor the apply stage published with its last
    // snapshot: the WAL belongs to this stage.
    const std::uint64_t floor = compact_floor_.load(std::memory_order_acquire);
    if (floor > last_compacted_floor_) {
      Status compacted = wal_.Compact(floor);
      if (!compacted.ok()) return compacted.error();
      last_compacted_floor_ = floor;
    }
    // The scratch vector (and each payload buffer inside it) keeps its
    // capacity across batches: steady-state journaling allocates nothing.
    payload_scratch_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) batch[i].EncodeTo(&payload_scratch_[i]);
    auto appended = wal_.AppendBatch(payload_scratch_);
    if (!appended.ok()) return appended;
    first_seq = appended.value();
  }
  ++stats_.batches;
  if (CrashIf(CrashPoint::kPostAppendPreApply)) {
    return common::Unavailable("service crashed; recover a successor");
  }
  return first_seq;
}

std::size_t FleetService::ApplyJournaled(const std::vector<SliceCommand>& batch,
                                         std::uint64_t first_seq) {
  // One commit for the whole batch, however the loop below ends.
  tpu::Superpod::Batch programming(pod_);
  std::size_t applied = 0;
  for (const SliceCommand& cmd : batch) {
    // A crash on either stage stops the apply, kMidApply firing inside
    // ApplyCommand included.
    if (crashed()) return applied;
    ApplyCommand(cmd);
    if (crashed()) return applied;
    AdvanceCommitted(cmd);
    if (first_seq != 0) applied_seq_ = first_seq + applied;
    ++applied;
    ++stats_.processed;
  }
  MaybeSnapshot(applied);
  return applied;
}

void FleetService::ApplyCommand(const SliceCommand& cmd) {
  auto reject = [this] {
    ++stats_.rejected_apply;
    if (rejected_apply_counter_ != nullptr) rejected_apply_counter_->Inc();
  };
  if (cmd.txn_id != 0) max_txn_seen_ = std::max(max_txn_seen_, cmd.txn_id);
  const std::pair<std::uint32_t, std::uint64_t> job_key{cmd.tenant_id, cmd.job_id};
  switch (cmd.kind) {
    case CommandKind::kAdmit: {
      if (live_jobs_.contains(job_key)) {
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      auto allocated = scheduler_.Allocate(cmd.shape);
      // The crash lands between the fabric mutation and the job-table
      // update. The half-applied state is volatile and abandoned; replay
      // redoes the whole command against the recovered state.
      if (CrashIf(CrashPoint::kMidApply)) return;
      if (!allocated.ok()) {
        reject();
        return;
      }
      live_jobs_[job_key] = allocated.value();
      ++stats_.admitted;
      if (admitted_counter_ != nullptr) admitted_counter_->Inc();
      return;
    }
    case CommandKind::kRelease: {
      auto it = live_jobs_.find(job_key);
      if (it == live_jobs_.end()) {
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      if (CrashIf(CrashPoint::kMidApply)) return;
      LW_CHECK_OK(scheduler_.Release(it->second))
          << "job table referenced slice " << it->second;
      live_jobs_.erase(it);
      ++stats_.released;
      return;
    }
    case CommandKind::kResize: {
      auto it = live_jobs_.find(job_key);
      if (it == live_jobs_.end()) {
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      // Make-before-break: allocate the new shape while the old slice still
      // holds, so a resize the pod cannot fit rejects without disturbing
      // the running job.
      auto allocated = scheduler_.Allocate(cmd.shape);
      if (CrashIf(CrashPoint::kMidApply)) return;
      if (!allocated.ok()) {
        reject();
        return;
      }
      LW_CHECK_OK(scheduler_.Release(it->second))
          << "job table referenced slice " << it->second;
      it->second = allocated.value();
      ++stats_.resized;
      return;
    }
    case CommandKind::kPrepare: {
      if (cmd.txn_id == 0 || prepared_.contains(cmd.txn_id) ||
          decided_.contains(cmd.txn_id)) {
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      // The vote is a pure function of the state: yes iff the reservation
      // places. A no-vote is RECORDED (not just rejected) so replay and the
      // router's decision logic reproduce it.
      auto allocated = scheduler_.Allocate(cmd.shape);
      if (CrashIf(CrashPoint::kMidApply)) return;
      prepared_[cmd.txn_id] =
          PreparedTxn{.tenant_id = cmd.tenant_id,
                      .job_id = cmd.job_id,
                      .slice_id = allocated.ok() ? allocated.value() : 0,
                      .vote_yes = allocated.ok()};
      ++stats_.prepared;
      if (!allocated.ok()) reject();
      return;
    }
    case CommandKind::kCommitTxn: {
      auto it = prepared_.find(cmd.txn_id);
      if (it == prepared_.end()) {
        // Unknown or already decided: duplicate delivery, reject-ack.
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      if (CrashIf(CrashPoint::kMidApply)) return;
      if (!it->second.vote_yes) {
        // A commit against a no-vote is a coordinator bug; record the only
        // safe decision.
        decided_[cmd.txn_id] = TxnDecision::kAborted;
        prepared_.erase(it);
        reject();
        return;
      }
      const std::pair<std::uint32_t, std::uint64_t> txn_job{it->second.tenant_id,
                                                           it->second.job_id};
      if (auto live = live_jobs_.find(txn_job); live != live_jobs_.end()) {
        // Cross-shard resize: the committed reservation replaces the job's
        // old slice (make-before-break across shards).
        LW_CHECK_OK(scheduler_.Release(live->second))
            << "job table referenced slice " << live->second;
        live->second = it->second.slice_id;
        ++stats_.resized;
      } else {
        live_jobs_[txn_job] = it->second.slice_id;
        ++stats_.admitted;
        if (admitted_counter_ != nullptr) admitted_counter_->Inc();
      }
      decided_[cmd.txn_id] = TxnDecision::kCommitted;
      prepared_.erase(it);
      ++stats_.committed_txns;
      return;
    }
    case CommandKind::kAbortTxn: {
      auto it = prepared_.find(cmd.txn_id);
      if (it == prepared_.end()) {
        if (CrashIf(CrashPoint::kMidApply)) return;
        reject();
        return;
      }
      if (CrashIf(CrashPoint::kMidApply)) return;
      // Reverse-order rollback: the reservation is released exactly as
      // ctrl::ApplyTopology unwinds a failed transaction.
      if (it->second.vote_yes) {
        LW_CHECK_OK(scheduler_.Release(it->second.slice_id))
            << "prepared txn referenced slice " << it->second.slice_id;
      }
      decided_[cmd.txn_id] = TxnDecision::kAborted;
      prepared_.erase(it);
      ++stats_.aborted_txns;
      return;
    }
  }
}

std::vector<std::uint64_t> FleetService::InDoubtTxns() const {
  std::vector<std::uint64_t> out;
  out.reserve(prepared_.size());
  for (const auto& [txn_id, txn] : prepared_) out.push_back(txn_id);
  return out;
}

const PreparedTxn* FleetService::prepared_txn(std::uint64_t txn_id) const {
  auto it = prepared_.find(txn_id);
  return it == prepared_.end() ? nullptr : &it->second;
}

std::optional<TxnDecision> FleetService::txn_decision(std::uint64_t txn_id) const {
  auto it = decided_.find(txn_id);
  if (it == decided_.end()) return std::nullopt;
  return it->second;
}

bool FleetService::CrashIf(CrashPoint point) {
  // Crash points model the serving path; replay re-applies committed
  // commands and must never "die" again.
  if (replaying_ || injector_ == nullptr) return false;
  if (!injector_->ShouldCrash(point)) return false;
  crashed_.store(true, std::memory_order_release);
  ++stats_.crashes;
  return true;
}

void FleetService::MaybeSnapshot(std::uint64_t commands_applied) {
  if (!options_.journaling || options_.snapshot_interval == 0) return;
  commands_since_snapshot_ += commands_applied;
  if (commands_since_snapshot_ < options_.snapshot_interval) return;
  LW_CHECK_OK(TakeSnapshot()) << "snapshot failed";
}

Status FleetService::TakeSnapshot() {
  // No crash point sits between the apply and this write, so snapshot +
  // compaction are atomic under the crash model — mirroring a real
  // write-to-temp-then-rename snapshot protocol.
  Status written =
      journal::SnapshotWriter::Write(snapshot_storage_, applied_seq_, SerializeState());
  if (!written.ok()) return written;
  commands_since_snapshot_ = 0;
  ++stats_.snapshots;
  if (snapshot_counter_ != nullptr) snapshot_counter_->Inc();
  // The WAL belongs to the journal stage; publish the floor and let it
  // compact before its next append.
  compact_floor_.store(applied_seq_, std::memory_order_release);
  return Status::Ok();
}

std::vector<std::uint8_t> FleetService::SerializeState() const {
  ctrl::WireWriter writer;
  writer.PutVarint(committed_next_.size());
  for (const auto& [tenant, next] : committed_next_) {
    writer.PutVarint(tenant);
    writer.PutU64(next);
  }
  writer.PutVarint(live_jobs_.size());
  for (const auto& [job_key, slice_id] : live_jobs_) {
    writer.PutVarint(job_key.first);
    writer.PutVarint(job_key.second);
    writer.PutU64(slice_id);
  }
  writer.PutVarint(prepared_.size());
  for (const auto& [txn_id, txn] : prepared_) {
    writer.PutVarint(txn_id);
    writer.PutVarint(txn.tenant_id);
    writer.PutVarint(txn.job_id);
    writer.PutU8(txn.vote_yes ? 1 : 0);
    writer.PutU64(txn.slice_id);
  }
  writer.PutVarint(decided_.size());
  for (const auto& [txn_id, decision] : decided_) {
    writer.PutVarint(txn_id);
    writer.PutU8(static_cast<std::uint8_t>(decision));
  }
  writer.PutVarint(max_txn_seen_);
  scheduler_.ExportState(writer);
  writer.PutU8(controller_ != nullptr ? 1 : 0);
  if (controller_ != nullptr) controller_->ExportState(writer);
  return writer.Take();
}

Status FleetService::DeserializeState(const std::vector<std::uint8_t>& bytes) {
  // The snapshot's bytes are outside input: a tenant id is read against 32
  // bits, so tenant 2^32+5 fails to decode instead of reading as tenant 5.
  ctrl::WireReader reader(bytes);
  const auto get_tenant = [&reader] {
    return static_cast<std::uint32_t>(reader.GetVarint(UINT32_MAX));
  };
  std::map<std::uint32_t, std::uint64_t> frontiers;
  for (std::uint64_t i = reader.GetVarint(); i > 0 && reader.ok(); --i) {
    const std::uint32_t tenant = get_tenant();
    frontiers[tenant] = reader.GetU64();
  }
  std::map<std::pair<std::uint32_t, std::uint64_t>, tpu::SliceId> jobs;
  for (std::uint64_t i = reader.GetVarint(); i > 0 && reader.ok(); --i) {
    const std::pair<std::uint32_t, std::uint64_t> job{get_tenant(), reader.GetVarint()};
    jobs[job] = reader.GetU64();
  }
  std::map<std::uint64_t, PreparedTxn> prepared;
  for (std::uint64_t i = reader.GetVarint(); i > 0 && reader.ok(); --i) {
    PreparedTxn& txn = prepared[reader.GetVarint()];
    txn.tenant_id = get_tenant();
    txn.job_id = reader.GetVarint();
    txn.vote_yes = reader.GetU8() != 0;
    txn.slice_id = reader.GetU64();
  }
  std::map<std::uint64_t, TxnDecision> decided;
  for (std::uint64_t i = reader.GetVarint(); i > 0 && reader.ok(); --i) {
    const std::uint64_t txn_id = reader.GetVarint();
    decided[txn_id] = static_cast<TxnDecision>(reader.GetU8());
  }
  const std::uint64_t max_txn = reader.GetVarint();
  if (!reader.ok()) return common::Internal("service state truncated or past 32-bit tenants");
  for (const auto& [txn_id, decision] : decided) {
    if (decision != TxnDecision::kCommitted && decision != TxnDecision::kAborted) {
      return common::Internal("service decided-txn table carries an unknown decision");
    }
  }
  // Every section decodes into plain values, and the trailing-byte check
  // runs, before anything is assigned or installed.
  auto scheduler_state = scheduler_.DecodeState(reader);
  if (!scheduler_state.ok()) return scheduler_state.error();
  std::optional<ctrl::FabricController::SavedState> controller_state;
  if (reader.GetU8() != 0) {
    if (controller_ == nullptr) {
      return common::FailedPrecondition(
          "snapshot carries controller state but no controller is bound");
    }
    auto decoded = ctrl::FabricController::DecodeState(reader);
    if (!decoded.ok()) return decoded.error();
    controller_state = std::move(decoded).value();
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return common::Internal("service state truncated or overlong");
  }
  // The scheduler validates its whole slice set against the pod before it
  // installs one, so this is the last step that can fail.
  if (Status restored = scheduler_.RestoreState(std::move(scheduler_state).value());
      !restored.ok()) {
    return restored;
  }
  if (controller_state.has_value()) controller_->RestoreState(std::move(*controller_state));
  committed_next_ = std::move(frontiers);
  live_jobs_ = std::move(jobs);
  prepared_ = std::move(prepared);
  decided_ = std::move(decided);
  max_txn_seen_ = max_txn;
  return Status::Ok();
}

void FleetService::AttachTelemetry(telemetry::Hub* hub) {
  hub_ = hub;
  wal_.AttachTelemetry(hub);
  scheduler_.AttachTelemetry(hub);
  if (hub == nullptr) {
    admitted_counter_ = rejected_apply_counter_ = snapshot_counter_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  admitted_counter_ = &metrics.GetCounter("lightwave_svc_admitted_total");
  rejected_apply_counter_ =
      &metrics.GetCounter("lightwave_svc_rejected_total", {{"reason", "apply"}});
  snapshot_counter_ = &metrics.GetCounter("lightwave_svc_snapshots_total");
}

}  // namespace lightwave::svc
