// The TPU v4 superpod (Fig. 14): 64 electrically-wired 4x4x4 cubes joined by
// a lightwave fabric of 48 Palomar OCSes. Slices are installed and removed
// as per-OCS delta transactions that touch only the slice's own ports, so
// installing or removing one slice never blips another (§4.2.4). An install
// of 48 or more circuits programs its OCSes in parallel on the process-wide
// thread pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/result.h"
#include "ocs/palomar.h"
#include "tpu/cube.h"
#include "tpu/slice.h"
#include "tpu/wiring.h"

namespace lightwave::tpu {

using SliceId = std::uint64_t;

struct InstalledSlice {
  SliceId id = 0;
  SliceTopology topology;
  /// The connections the slice owns, per OCS (north -> south).
  std::map<int, std::map<int, int>> connections;
  double install_time_ms = 0.0;
};

class Superpod {
 public:
  explicit Superpod(std::uint64_t seed, int cubes = kCubesPerPod,
                    int ocs_per_dim = kOcsPerDim);

  int cube_count() const { return static_cast<int>(cubes_.size()); }
  int ocs_count() const { return static_cast<int>(switches_.size()); }
  const WiringPlan& plan() const { return plan_; }

  Cube& cube(int id) { return cubes_[static_cast<std::size_t>(id)]; }
  const Cube& cube(int id) const { return cubes_[static_cast<std::size_t>(id)]; }
  ocs::PalomarSwitch& ocs(int id) { return *switches_[static_cast<std::size_t>(id)]; }
  const ocs::PalomarSwitch& ocs(int id) const {
    return *switches_[static_cast<std::size_t>(id)];
  }

  /// Installs a slice. Fails (leaving the fabric untouched) when a cube is
  /// out of range, unhealthy, or already owned by a running slice, or when
  /// an OCS is down or would reject the slice's circuits.
  common::Result<SliceId> InstallSlice(const SliceTopology& topology);

  /// Installs a slice under a caller-chosen id (recovery replay reinstalls
  /// journaled slices under their original ids so job -> slice references
  /// survive a restart). Same failure modes as InstallSlice, plus
  /// kAlreadyExists when the id is taken. The id counter advances past `id`
  /// so future InstallSlice calls never collide.
  common::Result<SliceId> InstallSliceWithId(SliceId id, const SliceTopology& topology);

  SliceId next_slice_id() const { return next_slice_id_; }
  /// Recovery hook: advances the slice-id counter (never rewinds), so a
  /// restored pod keeps minting fresh ids even when the latest slices were
  /// released before the crash.
  void SetNextSliceId(SliceId next);

  common::Status RemoveSlice(SliceId id);

  const std::map<SliceId, InstalledSlice>& slices() const { return slices_; }
  std::optional<SliceId> SliceOwningCube(int cube_id) const;

  /// Cubes that are healthy and not owned by any slice.
  std::vector<int> FreeHealthyCubes() const;

  /// --- failure injection ---------------------------------------------------
  void FailOcs(int ocs_id);
  /// Brings the OCS back up, programmed with exactly the circuits the
  /// running slices own on it.
  void RepairOcs(int ocs_id);

  /// A slice is degraded when any owning cube is unhealthy or any OCS
  /// carrying its connections is down. Single-cube slices never depend on
  /// the fabric (§4.2.2: "no reconfiguration between cubes is used").
  bool SliceDegraded(SliceId id) const;

  /// Wall-clock spent reconfiguring switches since construction.
  double TotalReconfigMs() const;

  /// Test-only corruption hooks for the slice-accounting validator's
  /// negative tests: write the slice tables directly, bypassing
  /// InstallSlice/RemoveSlice.
  void TestOnlySetCubeOwner(int cube_id, SliceId id) {
    cube_owner_.at(static_cast<std::size_t>(cube_id)) = id;
  }
  /// Duplicates an installed slice's record under a fresh id without
  /// touching any switch: its cubes become double-booked.
  SliceId TestOnlyDuplicateSliceRecord(SliceId id) {
    InstalledSlice copy = slices_.at(id);
    copy.id = next_slice_id_++;
    return slices_.insert({copy.id, std::move(copy)}).first->first;
  }

 private:
  WiringPlan plan_;
  std::vector<Cube> cubes_;
  std::vector<std::unique_ptr<ocs::PalomarSwitch>> switches_;
  std::vector<bool> ocs_up_;
  std::map<SliceId, InstalledSlice> slices_;
  /// The slice owning each cube, indexed by cube id.
  std::vector<std::optional<SliceId>> cube_owner_;
  SliceId next_slice_id_ = 1;
};

}  // namespace lightwave::tpu
