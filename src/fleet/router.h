// Fleet router: the front door of the sharded fleet service. Tenants are
// mapped to shards by consistent hashing (a ring of virtual nodes per
// shard), so adding a shard or losing one to a tripped circuit breaker
// relocates only the tenants whose arc moved — not the whole fleet. The
// router also coordinates cross-shard jobs with two-phase commit, journaling
// the prepare/commit/abort verbs through each participant shard's WAL so a
// crash anywhere leaves enough durable evidence to finish the transaction.
//
// Health: a shard marked unhealthy (directly, or via SyncBreaker reading a
// PR 4 ctrl::FabricController circuit breaker) is skipped on the ring —
// its tenants re-hash clockwise to the next healthy shard. The relocated
// tenants' command ids restart from 1 on the new shard (the old shard's
// history did not move), which the new shard surfaces as gap rejections
// until the tenant re-syncs; the fairness/quota machinery is unaffected.
//
// Cross-shard transactions (CrossShardAdmit): the router mints a fleet-wide
// txn id, journals kPrepare on every participant under the reserved control
// tenant, collects votes (a vote is durable state on the shard), and
// journals kCommitTxn everywhere iff all voted yes, else kAbortTxn.
// RecoverAll resolves in-doubt transactions by presumed abort: commit only
// if some participant already recorded a commit decision (the router never
// issues commits before all votes are yes, so a recorded commit implies
// unanimous yes); abort otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/shard.h"

namespace lightwave::ctrl {
class FabricController;
}  // namespace lightwave::ctrl

namespace lightwave::fleet {

/// Reserved tenant id carrying router-issued control commands (2PC verbs).
/// Client tenants must stay below it; the router owns its command-id space
/// on every shard.
inline constexpr std::uint32_t kControlTenant = 0xFFFFFFFFu;

struct RouterStats {
  std::uint64_t routed = 0;
  /// Commands routed past at least one unhealthy shard on the ring.
  std::uint64_t rerouted = 0;
  std::uint64_t txns_started = 0;
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  /// In-doubt transactions RecoverAll resolved, by outcome.
  std::uint64_t resolved_commit = 0;
  std::uint64_t resolved_abort = 0;
};

class Router {
 public:
  /// Registers a shard (non-owning; the shard outlives the router). Shard
  /// ids must be unique. Shards start healthy.
  void AddShard(Shard* shard);

  std::size_t shard_count() const { return shards_.size(); }
  Shard* shard(std::uint32_t shard_id);
  const Shard* shard(std::uint32_t shard_id) const;
  std::vector<std::uint32_t> shard_ids() const;

  /// The healthy shard `tenant` hashes to. Fails kUnavailable when every
  /// shard is unhealthy.
  common::Result<std::uint32_t> ShardFor(std::uint32_t tenant) const;

  void SetShardHealth(std::uint32_t shard_id, bool healthy);
  bool ShardHealthy(std::uint32_t shard_id) const;
  /// Health from the shard's fabric circuit breaker (PR 4): an OPEN breaker
  /// on `ocs_id` marks the shard unhealthy; closed/half-open marks it
  /// healthy again.
  void SyncBreaker(std::uint32_t shard_id, const ctrl::FabricController& controller,
                   int ocs_id);

  /// Routes by tenant and offers to the shard's admission queue. Control
  /// tenant commands are rejected — use CrossShardAdmit.
  common::Status Submit(const svc::SliceCommand& cmd);

  /// Refills every shard's tenant token buckets.
  void Tick(double seconds);

  /// Sync-drives every shard's pump until all admission queues are empty.
  /// Returns commands applied fleet-wide.
  std::size_t PumpAll();

  /// Two-phase commit of a job spanning `shard_ids`: each participant
  /// tentatively allocates `shape` (phase 1), and the job materializes on
  /// ALL of them or none (phase 2). Returns the txn id on commit; fails
  /// kResourceExhausted when any participant voted no (the transaction is
  /// aborted everywhere). Sync mode only.
  common::Result<std::uint64_t> CrossShardAdmit(std::uint64_t job_id,
                                                const tpu::SliceShape& shape,
                                                const std::vector<std::uint32_t>& shard_ids);

  /// Recovers every shard in parallel (common::parallel), restores the
  /// router's control frontiers and txn-id mint, then resolves in-doubt
  /// cross-shard transactions (presumed abort; see file comment). Returns
  /// aggregate replay stats.
  common::Result<journal::RecoveryStats> RecoverAll();

  const RouterStats& stats() const { return stats_; }

 private:
  struct RingEntry {
    std::uint64_t point;
    std::uint32_t shard_id;
    bool operator<(const RingEntry& other) const {
      return point < other.point || (point == other.point && shard_id < other.shard_id);
    }
  };

  /// Next control command id for `shard_id`, minting in the control
  /// tenant's dense space.
  std::uint64_t MintControlId(std::uint32_t shard_id);
  /// Journals one control verb on a shard, synchronously.
  common::Status SubmitControl(std::uint32_t shard_id, svc::CommandKind kind,
                               std::uint64_t job_id, std::uint64_t txn_id,
                               const tpu::SliceShape& shape);

  std::map<std::uint32_t, Shard*> shards_;
  std::map<std::uint32_t, bool> healthy_;
  std::vector<RingEntry> ring_;
  /// Per-shard next control command id (resumes from the shard's committed
  /// control frontier after RecoverAll).
  std::map<std::uint32_t, std::uint64_t> control_next_;
  std::uint64_t next_txn_ = 0;
  RouterStats stats_;
};

}  // namespace lightwave::fleet
