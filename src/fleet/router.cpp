#include "fleet/router.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ctrl/controller.h"

namespace lightwave::fleet {

using common::Result;
using common::Status;

namespace {

/// The ring's point hash: one SplitMix64 step from `key`, so ring geometry
/// is stable across runs and processes.
std::uint64_t Mix64(std::uint64_t key) { return common::SplitMix64(key); }

constexpr std::uint64_t kTenantSalt = 0x5bf0'3635'0c18'9d4full;

/// Virtual nodes per shard on the hash ring. More = smoother balance,
/// linearly larger ring.
constexpr std::size_t kVirtualNodes = 16;

}  // namespace

void Router::AddShard(Shard* shard) {
  LW_CHECK(shard != nullptr) << "null shard";
  const std::uint32_t id = shard->shard_id();
  LW_CHECK(!shards_.contains(id)) << "duplicate shard id " << id;
  shards_[id] = shard;
  healthy_[id] = true;
  control_next_[id] = 1;
  for (std::size_t v = 0; v < kVirtualNodes; ++v) {
    ring_.push_back(RingEntry{
        Mix64((static_cast<std::uint64_t>(id) << 20) | static_cast<std::uint64_t>(v)),
        id});
  }
  std::sort(ring_.begin(), ring_.end());
}

Shard* Router::shard(std::uint32_t shard_id) {
  auto it = shards_.find(shard_id);
  return it == shards_.end() ? nullptr : it->second;
}

const Shard* Router::shard(std::uint32_t shard_id) const {
  auto it = shards_.find(shard_id);
  return it == shards_.end() ? nullptr : it->second;
}

std::vector<std::uint32_t> Router::shard_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) out.push_back(id);
  return out;
}

Result<std::uint32_t> Router::ShardFor(std::uint32_t tenant) const {
  if (ring_.empty()) return common::Unavailable("no shards registered");
  const std::uint64_t point = Mix64(static_cast<std::uint64_t>(tenant) ^ kTenantSalt);
  const std::size_t base = static_cast<std::size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), RingEntry{point, 0}) -
      ring_.begin());
  // Walk clockwise from the tenant's arc, skipping unhealthy shards; first
  // healthy owner wins. Bounded by ring size (then: everything is down).
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    const RingEntry& entry = ring_[(base + step) % ring_.size()];
    if (healthy_.at(entry.shard_id)) return entry.shard_id;
  }
  return common::Unavailable("all shards unhealthy");
}

void Router::SetShardHealth(std::uint32_t shard_id, bool healthy) {
  auto it = healthy_.find(shard_id);
  LW_CHECK(it != healthy_.end()) << "unknown shard " << shard_id;
  it->second = healthy;
}

bool Router::ShardHealthy(std::uint32_t shard_id) const {
  auto it = healthy_.find(shard_id);
  LW_CHECK(it != healthy_.end()) << "unknown shard " << shard_id;
  return it->second;
}

void Router::SyncBreaker(std::uint32_t shard_id, const ctrl::FabricController& controller,
                         int ocs_id) {
  SetShardHealth(shard_id, controller.breaker_state(ocs_id) != ctrl::BreakerState::kOpen);
}

Status Router::Submit(const svc::SliceCommand& cmd) {
  if (cmd.tenant_id == kControlTenant) {
    return common::InvalidArgument("control tenant is router-internal");
  }
  auto routed = ShardFor(cmd.tenant_id);
  if (!routed.ok()) return routed.error();
  ++stats_.routed;
  // Detect a detour: would a fully healthy ring have picked the same shard?
  // (Cheap enough, and makes rerouting observable to tests and operators.)
  if (!std::all_of(healthy_.begin(), healthy_.end(),
                   [](const auto& kv) { return kv.second; })) {
    const std::uint64_t point =
        Mix64(static_cast<std::uint64_t>(cmd.tenant_id) ^ kTenantSalt);
    auto it = std::lower_bound(ring_.begin(), ring_.end(), RingEntry{point, 0});
    if (it == ring_.end()) it = ring_.begin();
    if (it->shard_id != routed.value()) ++stats_.rerouted;
  }
  return shards_.at(routed.value())->Offer(cmd);
}

void Router::Tick(double seconds) {
  for (auto& [id, shard] : shards_) shard->Tick(seconds);
}

std::size_t Router::PumpAll() {
  std::size_t total = 0;
  for (auto& [id, shard] : shards_) total += shard->PumpAll();
  return total;
}

std::uint64_t Router::MintControlId(std::uint32_t shard_id) {
  return control_next_.at(shard_id)++;
}

Status Router::SubmitControl(std::uint32_t shard_id, svc::CommandKind kind,
                             std::uint64_t job_id, std::uint64_t txn_id,
                             const tpu::SliceShape& shape) {
  svc::SliceCommand cmd;
  cmd.command_id = MintControlId(shard_id);
  cmd.tenant_id = kControlTenant;
  cmd.kind = kind;
  cmd.job_id = job_id;
  cmd.txn_id = txn_id;
  cmd.shape = shape;
  return shards_.at(shard_id)->SubmitControl(cmd);
}

Result<std::uint64_t> Router::CrossShardAdmit(std::uint64_t job_id,
                                              const tpu::SliceShape& shape,
                                              const std::vector<std::uint32_t>& shard_ids) {
  if (shard_ids.empty()) return common::InvalidArgument("empty participant list");
  for (std::uint32_t id : shard_ids) {
    if (!shards_.contains(id)) {
      return common::NotFound("unknown shard " + std::to_string(id));
    }
  }
  const std::uint64_t txn = ++next_txn_;
  ++stats_.txns_started;
  // Phase 1: journal a prepare on every participant. Votes (yes AND no) are
  // durable shard state, so a crash after this point leaves evidence.
  bool all_yes = true;
  for (std::uint32_t id : shard_ids) {
    Status prepared = SubmitControl(id, svc::CommandKind::kPrepare, job_id, txn, shape);
    if (!prepared.ok()) return prepared.error();
    const svc::PreparedTxn* vote = shards_.at(id)->service().prepared_txn(txn);
    LW_CHECK(vote != nullptr) << "prepare applied but no vote recorded";
    all_yes = all_yes && vote->vote_yes;
  }
  // Phase 2: unanimous yes commits everywhere; any no aborts everywhere
  // (including the yes-voters, releasing their reservations).
  const svc::CommandKind decision =
      all_yes ? svc::CommandKind::kCommitTxn : svc::CommandKind::kAbortTxn;
  for (std::uint32_t id : shard_ids) {
    Status decided = SubmitControl(id, decision, job_id, txn, shape);
    if (!decided.ok()) return decided.error();
  }
  if (!all_yes) {
    ++stats_.txns_aborted;
    return common::ResourceExhausted("cross-shard admit aborted: a participant voted no");
  }
  ++stats_.txns_committed;
  return txn;
}

Result<journal::RecoveryStats> Router::RecoverAll() {
  std::vector<Shard*> shard_list;
  shard_list.reserve(shards_.size());
  for (auto& [id, shard] : shards_) shard_list.push_back(shard);
  // Shards are disjoint partitions over disjoint devices, so recovery is
  // embarrassingly parallel (the PR 5 crash matrix runs per shard).
  std::vector<Result<journal::RecoveryStats>> results(
      shard_list.size(), Result<journal::RecoveryStats>(journal::RecoveryStats{}));
  common::parallel::ParallelFor(
      shard_list.size(), 1,
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t /*chunk*/) {
        for (std::uint64_t i = begin; i < end; ++i) {
          results[static_cast<std::size_t>(i)] = shard_list[i]->Recover();
        }
      });
  journal::RecoveryStats aggregate;
  for (const auto& result : results) {
    if (!result.ok()) return result.error();
    const journal::RecoveryStats& stats = result.value();
    aggregate.snapshot_loaded = aggregate.snapshot_loaded || stats.snapshot_loaded;
    aggregate.records_scanned += stats.records_scanned;
    aggregate.records_replayed += stats.records_replayed;
    aggregate.records_skipped += stats.records_skipped;
    aggregate.torn_bytes_discarded += stats.torn_bytes_discarded;
    aggregate.wal_clean = aggregate.wal_clean && stats.wal_clean;
    aggregate.tail_truncations += stats.tail_truncations;
    aggregate.tail_corruptions += stats.tail_corruptions;
    if (aggregate.tail_note.empty()) aggregate.tail_note = stats.tail_note;
  }
  // Resume the control-plane mints above everything any shard ever saw.
  for (auto& [id, shard] : shards_) {
    control_next_[id] = shard->service().next_command_id(kControlTenant);
    next_txn_ = std::max(next_txn_, shard->service().max_txn_seen());
  }
  // Resolve in-doubt transactions. Presumed abort: a txn commits only when
  // some participant durably recorded the commit decision — the router only
  // issues commits after unanimous yes votes, so one recorded commit
  // implies the decision was made.
  std::map<std::uint64_t, std::vector<std::uint32_t>> in_doubt;
  std::map<std::uint64_t, bool> committed_somewhere;
  for (auto& [id, shard] : shards_) {
    for (std::uint64_t txn : shard->service().InDoubtTxns()) {
      in_doubt[txn].push_back(id);
    }
  }
  for (auto& [txn, participants] : in_doubt) {
    for (auto& [id, shard] : shards_) {
      auto decision = shard->service().txn_decision(txn);
      if (decision.has_value() && *decision == svc::TxnDecision::kCommitted) {
        committed_somewhere[txn] = true;
      }
    }
  }
  for (auto& [txn, participants] : in_doubt) {
    const bool commit = committed_somewhere.contains(txn);
    for (std::uint32_t id : participants) {
      const svc::PreparedTxn* prepared = shards_.at(id)->service().prepared_txn(txn);
      LW_CHECK(prepared != nullptr) << "in-doubt txn lost its reservation";
      Status resolved = SubmitControl(
          id, commit ? svc::CommandKind::kCommitTxn : svc::CommandKind::kAbortTxn,
          prepared->job_id, txn, tpu::SliceShape{});
      if (!resolved.ok()) return resolved.error();
    }
    if (commit) {
      ++stats_.resolved_commit;
    } else {
      ++stats_.resolved_abort;
    }
  }
  return aggregate;
}

}  // namespace lightwave::fleet
