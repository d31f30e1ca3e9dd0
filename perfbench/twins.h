// Stateful command traces and the twin pods that predict them.
//
// The trace is generated in set-up, command by command, against twin A: a
// core::SliceScheduler over its own Superpod that applies each command with
// FleetService's admit/resize/release semantics. Applying a command is
// deterministic, so twin A's outcome is exactly what the service will do:
// releases and resizes target jobs that are live at that point, and the
// useful fraction of the trace is known before anything is timed.
//
// With a span log attached (the traced run), each allocation is also
// re-issued one layer at a time on two more pods:
//   twin B  Superpod::InstallSliceWithId / RemoveSlice of twin A's topology;
//   twin C  one PalomarSwitch::Reconfigure per OCS, target =
//           CurrentMapping() plus (or minus) the slice's OcsConnections.
// All twins must end in the same scheduler and switch state as the service.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "harness.h"
#include "svc/command.h"
#include "tpu/superpod.h"

namespace perfbench {

struct PodGeometry {
  int cubes = 64;
  int ocs_per_dim = 16;
};

/// Per-layer counters gathered by the twin pass (the parts a span cannot
/// carry).
struct FabricCounters {
  FabricCounters& operator+=(const FabricCounters& other);

  std::uint64_t allocations = 0;
  std::uint64_t accepted = 0;
  std::uint64_t installs = 0;
  std::uint64_t ocs_touched = 0;
  std::uint64_t reconfigures = 0;
  std::uint64_t ports_diffed = 0;
  std::uint64_t ports_changed = 0;
};

class Twins {
 public:
  enum class Outcome { kAdmitted, kResized, kReleased, kRejected };

  /// `spans` null: twin A only (the predictor). Otherwise twins B and C are
  /// built too and every fabric call is recorded.
  Twins(std::uint64_t pod_seed, PodGeometry geometry, SpanLog* spans);

  Outcome Apply(const svc::SliceCommand& cmd, std::uint64_t window);

  int FreeCubes() const { return static_cast<int>(pod_a_.FreeHealthyCubes().size()); }
  bool Live(std::uint32_t tenant, std::uint64_t job) const {
    return live_.contains({tenant, job});
  }
  const std::map<std::pair<std::uint32_t, std::uint64_t>, tpu::SliceId>& live() const {
    return live_;
  }

  const core::SliceScheduler& scheduler() const { return scheduler_a_; }
  const tpu::Superpod& pod_a() const { return pod_a_; }
  const tpu::Superpod* pod_b() const { return pod_b_.get(); }
  const tpu::Superpod* pod_c() const { return pod_c_.get(); }
  const FabricCounters& counters() const { return counters_; }

 private:
  /// Allocates on twin A and mirrors the install on twins B and C.
  common::Result<tpu::SliceId> Allocate(const tpu::SliceShape& shape, std::uint64_t window);
  void Release(tpu::SliceId id, std::uint64_t window);
  /// Twin C: one Reconfigure per OCS the slice uses.
  void ReconfigureTwinC(const std::map<int, std::map<int, int>>& connections, bool add,
                        std::uint64_t window);

  SpanLog* spans_;
  tpu::Superpod pod_a_;
  core::SliceScheduler scheduler_a_;
  std::unique_ptr<tpu::Superpod> pod_b_;
  std::unique_ptr<tpu::Superpod> pod_c_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, tpu::SliceId> live_;
  FabricCounters counters_;
};

/// Canonical bytes of scheduler state (ExportState: stats, slices, id mint).
std::vector<std::uint8_t> SchedulerBytes(const core::SliceScheduler& scheduler);
/// Every OCS's connection table, north, south and both losses.
std::vector<std::uint8_t> SwitchBytes(const tpu::Superpod& pod);
/// Installed slices: id, cubes and per-OCS connections.
std::vector<std::uint8_t> SliceBytes(const tpu::Superpod& pod);

enum class TraceKind { kChurn, kFlood };

/// Commands the client offers per window (two group-commit batches).
inline constexpr std::size_t kWindowCommands = 64;

struct TraceConfig {
  TraceKind kind = TraceKind::kChurn;
  PodGeometry geometry;
  std::size_t windows = 32;
};

struct Trace {
  std::uint64_t pod_seed = 0;
  std::vector<std::vector<svc::SliceCommand>> windows;
  std::uint64_t commands = 0;
  std::uint64_t admitted = 0;
  std::uint64_t resized = 0;
  std::uint64_t released = 0;
  /// Windows with commands from more than one tenant whose outcome would
  /// depend on the admission order (must stay 0; see GenerateTrace).
  std::uint64_t order_dependent_windows = 0;
  std::vector<std::uint8_t> expected_scheduler;
  std::vector<std::uint8_t> expected_switches;
  std::vector<std::uint8_t> expected_slices;
};

/// Builds a seeded trace against `twins`, which must be fresh and built with
/// the same seed (the service's pod is too). A window with several tenants may be popped in any
/// interleaving the admission queue's DRR produces, so the generator only
/// mixes tenants in windows where every command is rejected whatever the
/// order; windows that change state belong to one tenant (FIFO).
Trace GenerateTrace(const TraceConfig& config, std::uint64_t seed, Twins& twins,
                    std::uint64_t first_window_id);

/// Most-compact shape for `cubes` (minimizes max/min dimension).
tpu::SliceShape CompactShape(int cubes);

}  // namespace perfbench
