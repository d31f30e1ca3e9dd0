// Crash-recoverable, shard-embeddable fleet service engine: the journal and
// apply stages of a fleet::Shard. Every command is journaled BEFORE it is
// applied — write-ahead order is the entire durability argument:
//
//   crash before the append  -> the command was never acknowledged as
//                               committed; the client resubmits it;
//   crash after the append   -> the command is durable; recovery re-applies
//                               it exactly once, keyed on its journal
//                               sequence number.
//
// The service object itself is volatile — a simulated crash (armed through
// ctrl::FaultInjector's crash points) abandons it, and a fresh service over
// the SAME two Storage devices recovers: load the snapshot, replay the WAL
// suffix, resume the stream from the committed frontier. Periodic snapshots
// bound replay work; each snapshot hands the log prefix it covers to the
// journal stage, which compacts it before its next append.
//
// The engine is multi-tenant and batch-oriented:
//   - every command belongs to a tenant; duplicate/gap detection and the
//     resubmission frontier are per tenant;
//   - the journal stage (JournalBatch) group-commits a batch through one
//     Wal::AppendBatch and the apply stage (ApplyJournaled) applies it. A
//     sync shard runs both on its calling thread, a pipelined shard on two
//     threads; either way the apply stage never touches the WAL;
//   - cross-shard transactions journal kPrepare/kCommitTxn/kAbortTxn, with
//     reservations and decisions part of the durable state, so a router can
//     resolve in-doubt transactions deterministically after any crash.
//
// Concurrency contract: this class holds NO locks of its own. The stage
// split above is a data-partition argument (journal-thread state vs
// apply-thread state, with the compaction floor and the crash flag as the
// atomic handoffs), not a mutex discipline — the owning fleet::Shard
// serializes everything else with its annotated lw::Mutex set (see
// common/sync.h and DESIGN.md §5.5 for the process-wide lock hierarchy).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/scheduler.h"
#include "ctrl/fault_injector.h"
#include "journal/replay.h"
#include "journal/snapshot.h"
#include "journal/wal.h"
#include "svc/command.h"

namespace lightwave::telemetry {
class Counter;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::ctrl {
class FabricController;
}  // namespace lightwave::ctrl

namespace lightwave::svc {

struct FleetServiceOptions {
  /// Commands applied between snapshots (0 disables snapshotting; recovery
  /// then replays the whole log).
  std::uint64_t snapshot_interval = 64;
  /// Bench knob: false skips the append, measuring the journaling overhead
  /// against the same apply path. Crash recovery is meaningless without it.
  bool journaling = true;
};

struct FleetServiceStats {
  std::uint64_t processed = 0;
  /// Group-commit batches journaled.
  std::uint64_t batches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t resized = 0;
  std::uint64_t released = 0;
  /// Commands journaled and applied whose outcome was a deterministic
  /// rejection (no capacity, unknown job, duplicate job id, bad txn).
  std::uint64_t rejected_apply = 0;
  /// Cross-shard transaction verbs applied.
  std::uint64_t prepared = 0;
  std::uint64_t committed_txns = 0;
  std::uint64_t aborted_txns = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t crashes = 0;
};

/// A phase-1 reservation held for an undecided cross-shard transaction.
struct PreparedTxn {
  std::uint32_t tenant_id = 0;
  std::uint64_t job_id = 0;
  /// Valid only when `vote_yes`; the tentatively allocated slice.
  tpu::SliceId slice_id = 0;
  /// false = the shard could not place the shape (recorded so replay
  /// reproduces the vote).
  bool vote_yes = false;
};

enum class TxnDecision : std::uint8_t { kCommitted = 1, kAborted = 2 };

/// Journal-side verdict on a command id against its tenant's frontier.
enum class AdmitCheck { kAccept, kDuplicate, kGap };

class FleetService {
 public:
  /// The pod and the two storages outlive the service. `wal_storage` and
  /// `snapshot_storage` are the durable media a successor service recovers
  /// from; everything else dies with this object.
  FleetService(tpu::Superpod& pod, core::AllocationPolicy policy,
               journal::Storage& wal_storage, journal::Storage& snapshot_storage,
               FleetServiceOptions options = {});

  /// Rebuilds state = snapshot + WAL suffix. Call exactly once, before
  /// serving (a fresh deployment recovers to the empty state). The pod is
  /// programmed once, after import and replay, with only the slices that
  /// survive them. Returns what replay found; fails on corrupt
  /// snapshot/command bytes, and a snapshot that fails to decode or to fit
  /// the pod changes nothing.
  common::Result<journal::RecoveryStats> Recover();

  // --- journal stage ---------------------------------------------------------
  //
  // The journal stage (CheckPending/AcceptPending/JournalBatch) and the
  // apply stage (ApplyJournaled) touch disjoint state (WAL + pending
  // frontiers vs scheduler + committed frontiers), so a pipelined shard
  // may run them on two threads.

  /// Check of `cmd` against its tenant's pending frontier (committed
  /// frontier + everything already journaled but not yet applied).
  AdmitCheck CheckPending(const SliceCommand& cmd) const;

  /// CheckPending, and on kAccept advances the tenant's pending frontier
  /// past `cmd`, so the tenant's next id checks against it in place.
  AdmitCheck AcceptPending(const SliceCommand& cmd);

  /// Group-appends the batch (which must be non-empty and per-tenant dense
  /// against the pending frontiers), advances them, and returns the first
  /// record's sequence number. Compacts the log up to the floor the last
  /// snapshot published first. The kPreAppend and kPostAppendPreApply
  /// crash points bracket the append, once per batch; a fired crash, or a
  /// call after one, returns kUnavailable. With journaling off, appends
  /// nothing and returns 0 — ApplyJournaled(first_seq == 0) then leaves
  /// applied_seq() untouched.
  common::Result<std::uint64_t> JournalBatch(const std::vector<SliceCommand>& batch);

  // --- apply stage -----------------------------------------------------------

  /// Applies a journaled batch, advancing the per-tenant committed
  /// frontiers and (when first_seq != 0) applied_seq, and programs the
  /// pod's switches once for the whole batch (a tpu::Superpod::Batch), also
  /// when a crash stops it. Takes the periodic snapshot when the interval
  /// elapses. Returns commands applied before any crash; applies nothing
  /// once crashed().
  std::size_t ApplyJournaled(const std::vector<SliceCommand>& batch,
                             std::uint64_t first_seq);

  /// True once a crash point fired; both stages are then inert and the
  /// object is only good for inspecting stats.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Next command id the service expects to commit for `tenant` (the
  /// resubmission frontier: everything below is applied and acknowledged).
  std::uint64_t next_command_id(std::uint32_t tenant) const;
  /// Tenants with a committed frontier above 1.
  std::vector<std::uint32_t> tenants() const;

  std::uint64_t applied_seq() const { return applied_seq_; }
  std::uint64_t live_jobs() const { return live_jobs_.size(); }

  /// Cross-shard transaction introspection (router recovery): transactions
  /// prepared on this shard but not yet decided, the recorded reservation,
  /// the decision history, and the highest txn id this shard ever saw
  /// (router id minting resumes above it).
  std::vector<std::uint64_t> InDoubtTxns() const;
  const PreparedTxn* prepared_txn(std::uint64_t txn_id) const;
  std::optional<TxnDecision> txn_decision(std::uint64_t txn_id) const;
  std::uint64_t max_txn_seen() const { return max_txn_seen_; }

  /// Canonical bytes of the committed state: per-tenant frontiers + job
  /// table + prepared/decided transactions + scheduler (slices, stats, id
  /// counter) + bound controller state. Used verbatim as the snapshot
  /// payload and, in tests, as the byte-identity digest. Volatile service
  /// stats are deliberately excluded.
  std::vector<std::uint8_t> SerializeState() const;

  /// Includes `controller`'s replayable state in snapshots and digests
  /// (nullptr detaches). Bind before Recover when the snapshot carries
  /// controller state.
  void BindController(ctrl::FabricController* controller) { controller_ = controller; }

  /// Installs the crash-point hook (nullptr detaches). Crash points are
  /// consulted on the serving path only, never during replay.
  void SetFaultInjector(ctrl::FaultInjector* injector) { injector_ = injector; }

  /// lightwave_svc_{admitted,rejected,snapshots}_total counters and the
  /// journal's own series (nullptr detaches).
  void AttachTelemetry(telemetry::Hub* hub);

  const FleetServiceStats& stats() const { return stats_; }
  const journal::Wal& wal() const { return wal_; }
  core::SliceScheduler& scheduler() { return scheduler_; }
  const core::SliceScheduler& scheduler() const { return scheduler_; }
  const FleetServiceOptions& options() const { return options_; }

 private:
  /// Applies one committed command to the scheduler/job table. Total and
  /// deterministic: every outcome (including rejection) is a pure function
  /// of the command and the current state. Visits the kMidApply crash point
  /// exactly once per call on the serving path.
  void ApplyCommand(const SliceCommand& cmd);
  /// Advances the pending (journal-side) frontier past `cmd`.
  void AdvancePending(const SliceCommand& cmd);
  /// Advances the committed frontier past an applied `cmd`.
  void AdvanceCommitted(const SliceCommand& cmd);
  /// Consults the injector at `point`; true = the process just died.
  bool CrashIf(ctrl::CrashPoint point);
  void MaybeSnapshot(std::uint64_t commands_applied);
  common::Status TakeSnapshot();
  common::Status DeserializeState(const std::vector<std::uint8_t>& bytes);

  tpu::Superpod& pod_;
  core::SliceScheduler scheduler_;
  journal::Storage& snapshot_storage_;
  journal::Wal wal_;
  FleetServiceOptions options_;

  // --- journal-thread state --------------------------------------------------
  /// Per-tenant pending frontier: the next command id acceptable for the
  /// journal. Starts at the committed frontier after Recover.
  std::map<std::uint32_t, std::uint64_t> pending_next_;
  std::uint64_t last_compacted_floor_ = 0;
  /// Reusable encode buffers for JournalBatch (capacity persists across
  /// batches so steady-state journaling is allocation-free).
  std::vector<std::vector<std::uint8_t>> payload_scratch_;

  // --- apply-thread state ---------------------------------------------------
  /// Per-tenant committed frontier (absent tenant = 1).
  std::map<std::uint32_t, std::uint64_t> committed_next_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, tpu::SliceId> live_jobs_;
  std::map<std::uint64_t, PreparedTxn> prepared_;
  std::map<std::uint64_t, TxnDecision> decided_;
  std::uint64_t max_txn_seen_ = 0;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t commands_since_snapshot_ = 0;

  // --- shared between stages ------------------------------------------------
  std::atomic<bool> crashed_{false};
  /// Snapshot (apply thread) -> compaction (journal thread) handoff.
  std::atomic<std::uint64_t> compact_floor_{0};

  bool recovered_ = false;
  bool replaying_ = false;
  FleetServiceStats stats_;
  ctrl::FabricController* controller_ = nullptr;
  ctrl::FaultInjector* injector_ = nullptr;
  telemetry::Hub* hub_ = nullptr;
  telemetry::Counter* admitted_counter_ = nullptr;
  telemetry::Counter* rejected_apply_counter_ = nullptr;
  telemetry::Counter* snapshot_counter_ = nullptr;
};

}  // namespace lightwave::svc
