// Cluster-level slice scheduler (§4.2.4). Two allocation policies:
//   - kReconfigurable: the lightwave fabric composes a slice from ANY set of
//     idle healthy cubes (the production TPU v4 behaviour; enables >98%
//     utilization and failed-cube swap);
//   - kContiguous: the TPU v3-style baseline — a slice needs an aligned
//     contiguous sub-box of the pod's fixed 4x4x4 cube grid.
// An event-driven workload simulation measures acceptance and utilization
// under each policy (the §4.2.4 ablation).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "tpu/superpod.h"

namespace lightwave::telemetry {
class Counter;
class Gauge;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::ctrl {
class WireReader;
class WireWriter;
}  // namespace lightwave::ctrl

namespace lightwave::core {

enum class AllocationPolicy { kReconfigurable, kContiguous };

const char* ToString(AllocationPolicy policy);

class SliceScheduler {
 public:
  SliceScheduler(tpu::Superpod& pod, AllocationPolicy policy);

  AllocationPolicy policy() const { return policy_; }

  /// Allocates cubes for `shape` under the policy and installs the slice.
  common::Result<tpu::SliceId> Allocate(const tpu::SliceShape& shape);

  common::Status Release(tpu::SliceId id);

  /// Replaces every unhealthy cube of a degraded slice with free healthy
  /// cubes and reinstalls it (same shape, new id) through
  /// Superpod::ReplaceSlice, so a repair that fails leaves the slice as it
  /// was. Only the reconfigurable policy can do this; the contiguous policy
  /// fails.
  common::Result<tpu::SliceId> RepairSlice(tpu::SliceId id);

  /// Cubes currently owned by slices (for utilization accounting).
  int BusyCubes() const;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t repairs = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Starts mirroring allocation outcomes and the busy-cube gauge into
  /// `hub` (nullptr detaches). Series carry a `policy=<name>` label.
  void AttachTelemetry(telemetry::Hub* hub);

  /// Durability hooks (journal snapshots): serializes the scheduler's
  /// replayable state — allocation stats plus every installed slice (id,
  /// shape, cube assignment) and the pod's slice-id counter — into `writer`.
  /// The switch configurations are NOT serialized; RestoreState rebuilds
  /// them by reinstalling the slices, and a circuit's physics depends only
  /// on its path, so the rebuilt switches match the exported pod's.
  void ExportState(ctrl::WireWriter& writer) const;

  /// ExportState's bytes decoded into plain values; nothing installed.
  struct SavedState {
    struct Slice {
      tpu::SliceId id = 0;
      tpu::SliceShape shape;
      std::vector<int> cubes;
    };
    Stats stats;
    std::vector<Slice> slices;
    tpu::SliceId next_slice_id = 0;
  };
  /// Reads one ExportState section, every count, dimension and cube id
  /// bounded by this scheduler's pod. Changes nothing; fails on truncated
  /// or out-of-range bytes.
  common::Result<SavedState> DecodeState(ctrl::WireReader& reader) const;
  /// Validates the whole slice set against the pod before it stages any
  /// install: ids unique; cubes in range, disjoint, unowned and healthy;
  /// every OCS up; every circuit free on its switch. Only then installs
  /// every slice (one pod commit) and takes the stats and id counter, so a
  /// state that fails leaves the pod and the stats untouched.
  common::Status RestoreState(SavedState state);
  /// DecodeState then RestoreState: the inverse of ExportState against a
  /// scheduler over a fresh pod of the same geometry.
  common::Status ImportState(ctrl::WireReader& reader);

  /// Structural audit of slice accounting: every installed slice's cube
  /// list matches its shape, no cube is owned by two slices
  /// (double-booked), and the pod's ownership index agrees with the slice
  /// tables in both directions. Runs automatically after
  /// Allocate/Release/RepairSlice when validation mode is on.
  common::Status ValidateInvariants() const;

 private:
  /// Picks cube ids for the shape; nullopt when the policy cannot place it.
  std::optional<std::vector<int>> PickCubes(const tpu::SliceShape& shape) const;
  void UpdateBusyGauge();
  /// Runs ValidateInvariants through LW_CHECK_OK when validation mode is on.
  void MaybeValidate(const char* boundary) const;

  tpu::Superpod& pod_;
  AllocationPolicy policy_;
  Stats stats_;
  telemetry::Counter* request_counter_ = nullptr;
  telemetry::Counter* accepted_counter_ = nullptr;
  telemetry::Counter* rejected_counter_ = nullptr;
  telemetry::Counter* repair_counter_ = nullptr;
  telemetry::Gauge* busy_gauge_ = nullptr;
};

/// Workload simulation: Poisson job arrivals with a shape mix and
/// exponential durations; measures acceptance rate and cube-hours
/// utilization for a policy.
struct WorkloadConfig {
  double arrival_rate_per_hour = 10.0;
  double mean_duration_hours = 8.0;
  /// Job sizes in cubes, drawn uniformly from this menu and shaped into the
  /// most compact canonical form.
  std::vector<int> size_menu_cubes = {1, 1, 2, 2, 4, 4, 8, 16};
  double sim_hours = 2000.0;
  std::uint64_t seed = 7;
  /// true: rejected jobs wait in a FIFO queue and are retried whenever
  /// capacity frees up (the production behaviour); false: rejected jobs are
  /// lost (admission-control view).
  bool queue_jobs = false;
  /// Mean time between cube-host failures across the pod (0 disables).
  double cube_mtbf_hours = 0.0;
  double cube_repair_hours = 12.0;
  /// Optional telemetry sink: the simulation binds the hub clock to its
  /// event queue, attaches the scheduler, and records a sim-clock time
  /// series of busy cubes. nullptr (the default) records nothing.
  telemetry::Hub* hub = nullptr;
};

struct WorkloadResult {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t repaired = 0;
  std::uint64_t lost_to_failure = 0;
  double acceptance_rate = 0.0;
  /// Busy cube-hours / available cube-hours.
  double utilization = 0.0;
  /// Queueing mode only: jobs that ran after waiting, mean/max wait, and
  /// jobs still queued at the end of the simulation.
  std::uint64_t started_from_queue = 0;
  double mean_wait_hours = 0.0;
  double max_wait_hours = 0.0;
  std::uint64_t left_in_queue = 0;
};

WorkloadResult SimulateWorkload(tpu::Superpod& pod, AllocationPolicy policy,
                                const WorkloadConfig& config);

}  // namespace lightwave::core
