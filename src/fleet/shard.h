// One fleet shard: a disjoint partition of the fleet (its own Superpod,
// FleetService, WAL + snapshot devices) fronted by a weighted-fair
// AdmissionQueue. The shard is where group commit happens — commands pop
// from admission in DRR batches, pass the one duplicate/gap filter
// (FilterPending), and journal through ONE Wal::AppendBatch.
//
// The service's journal stage (JournalBatch) and apply stage
// (ApplyJournaled) run in one of two modes:
//
//   * SYNC (PumpOnce): both stages run on the calling thread, one popped
//     batch at a time.
//
//   * PIPELINED (Start/Stop): a journal thread pops, filters and
//     group-appends; a bounded handoff queue carries journaled batches to
//     an apply thread that applies them and takes snapshots. The two
//     threads touch disjoint FleetService state (see fleet_service.h); the
//     snapshot->compaction handoff is the service's atomic floor. This is
//     the throughput mode the bench sweeps.
//
// Both modes visit the same crash points (kPreAppend and
// kPostAppendPreApply once per journaled batch, kMidApply per applied
// command), so one crash matrix covers either. A fired crash stops both
// stages: nothing is appended or applied after it, Drain returns and Stop
// joins.
//
// The shard does not own the pod or the storage devices: like FleetService,
// it is a volatile process over durable media, so a crash trial can abandon
// one shard object and recover a successor over the same devices.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "fleet/admission.h"
#include "svc/fleet_service.h"

namespace lightwave::telemetry {
class HistogramMetric;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::fleet {

struct ShardOptions {
  /// Commands per group-commit batch (PopBatch bound and AppendBatch size).
  std::size_t batch_size = 32;
  /// Handoff-queue bound between the journal and apply threads (batches);
  /// a full queue blocks the journal thread (backpressure, not drops).
  std::size_t pipeline_depth = 8;
  svc::FleetServiceOptions service;
  AdmissionOptions admission;
};

struct ShardStats {
  /// Batches the journal stage appended (== service stats().batches).
  std::uint64_t batches = 0;
  /// Duplicates acked and gaps dropped by the journal stage's filter.
  std::uint64_t pipeline_duplicates = 0;
  std::uint64_t pipeline_gaps = 0;
};

class Shard {
 public:
  /// `pod`, `wal_storage`, `snapshot_storage` outlive the shard (durable
  /// media + fabric; the shard object itself is volatile).
  Shard(std::uint32_t shard_id, tpu::Superpod& pod, core::AllocationPolicy policy,
        journal::Storage& wal_storage, journal::Storage& snapshot_storage,
        ShardOptions options = {});
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Recovers the embedded service (snapshot + WAL replay). Must run before
  /// any pumping; see FleetService::Recover.
  common::Result<journal::RecoveryStats> Recover();

  /// Admission gate (quota + per-tenant backpressure). Thread-safe; callable
  /// while the pipeline runs.
  common::Status Offer(const svc::SliceCommand& cmd);

  /// Refills tenant token buckets (router clock).
  void Tick(double seconds) { admission_.Tick(seconds); }

  /// SYNC mode: pop one DRR batch, filter it, and run the journal stage
  /// then the apply stage on this thread. Returns commands applied; 0 when
  /// admission is empty, the batch held only duplicates and gaps, or the
  /// service crashed.
  std::size_t PumpOnce();

  /// Drains admission synchronously until empty (or crash).
  std::size_t PumpAll();

  /// Control-plane submit (2PC verbs): bypasses admission, journals and
  /// applies `cmd` on this thread. A duplicate is acknowledged Ok, a gap is
  /// kInvalidArgument. Sync mode only.
  common::Status SubmitControl(const svc::SliceCommand& cmd);

  // --- pipelined mode -------------------------------------------------------

  /// Starts the journal and apply threads. Offer() feeds them; Stop() joins.
  void Start();
  /// Signals both threads, drains in-flight batches, and joins. Idempotent.
  void Stop();
  /// Blocks until admission and the handoff queue are empty and the apply
  /// thread is idle (pipeline quiesced), or the service crashed. Pipeline
  /// must be running.
  void Drain();
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::uint32_t shard_id() const { return shard_id_; }
  svc::FleetService& service() { return service_; }
  const svc::FleetService& service() const { return service_; }
  AdmissionQueue& admission() { return admission_; }
  ShardStats stats() const;

  /// Shard-labeled fleet metrics: admission counters/gauge plus the
  /// lightwave_fleet_batch_commands histogram (group-commit batch sizes).
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  struct JournaledBatch {
    std::vector<svc::SliceCommand> commands;
    std::uint64_t first_seq = 0;
  };

  void JournalLoop();
  void ApplyLoop();
  /// Filters `batch` against the service's pending frontiers, advancing
  /// them in place: duplicates are acked (counted), gaps dropped (counted),
  /// accepted commands returned in order.
  std::vector<svc::SliceCommand> FilterPending(std::vector<svc::SliceCommand> batch);
  /// The journal stage over one popped batch: FilterPending, then the group
  /// append. False when nothing was journaled (everything filtered, or the
  /// service crashed).
  bool Journal(std::vector<svc::SliceCommand> popped, JournaledBatch* out);

  std::uint32_t shard_id_;
  ShardOptions options_;
  svc::FleetService service_;
  AdmissionQueue admission_;

  // Pipeline machinery. The handoff queue is the ONLY shared mutable state
  // between the two loops (the service's stage split handles the rest).
  // handoff_mu_ (rank kShardHandoff) nests inside admission's mu_ never —
  // PopBatch completes before the handoff lock is taken — and stats_mu_
  // (rank kShardStats) is always innermost of the two.
  lw::Mutex handoff_mu_{"fleet.shard.handoff", lw::rank::kShardHandoff};
  lw::CondVar handoff_cv_;
  std::deque<JournaledBatch> handoff_ LW_GUARDED_BY(handoff_mu_);
  bool journal_done_ LW_GUARDED_BY(handoff_mu_) = false;
  /// True while the journal thread holds a popped-but-not-yet-handed-off
  /// batch (Drain must not declare quiescence in that window).
  bool journal_busy_ LW_GUARDED_BY(handoff_mu_) = false;
  /// Batches popped but not yet fully applied.
  std::size_t applying_ LW_GUARDED_BY(handoff_mu_) = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread journal_thread_;
  std::thread apply_thread_;

  mutable lw::Mutex stats_mu_{"fleet.shard.stats", lw::rank::kShardStats};
  ShardStats stats_ LW_GUARDED_BY(stats_mu_);

  /// Resolved once in AttachTelemetry, before Start(); the loops read it
  /// without locking.
  telemetry::HistogramMetric* batch_histogram_ = nullptr;
};

}  // namespace lightwave::fleet
