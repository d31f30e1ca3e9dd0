// The TPU v4 superpod (Fig. 14): 64 electrically-wired 4x4x4 cubes joined by
// a lightwave fabric of 48 Palomar OCSes. Every OCS of a dimension carries
// the same cube-level rings (Appendix A), so the pod keeps, checks, stages
// and tears down a slice's circuits as its three ring lists
// (SliceTopology::RingCircuits), walked from the topology with no allocation.
// An install validates the slice completely against the pod (cubes,
// switches, and each switch's ring list under the deltas already staged);
// installs and removals stage per-OCS deltas that touch only the slice's own
// ports, so installing or removing one slice never blips another (§4.2.4).
// A commit programs what is staged: each OCS with work gets one
// DisconnectDelta then one ConnectDelta over flat lists, the OCSes in
// parallel on the process-wide thread pool once the commit establishes
// enough circuits to pay for it. A circuit installed and removed before one
// commit is never programmed, and its slice's record is never filled in.
// Outside a Batch scope every install and removal commits as it returns;
// svc::FleetService opens a Batch per applied command batch and one around
// recovery, so recovery programs only the slices that survive the log. A
// circuit's physics depends only on its path (ocs/optical_core.h), so each
// commit leaves the same circuits and losses as programming one command at
// a time; switch counters and TotalReconfigMs count what was programmed.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
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
  /// The connections the slice owns, per OCS (north -> south): its
  /// topology's OcsConnections. Set when the slice is programmed, empty
  /// while it is staged; the pod itself works from the ring lists.
  std::map<int, std::map<int, int>> connections;
  /// Command overhead plus the slowest of its circuits' alignments; set
  /// when the slice is programmed, 0 while it is staged.
  double install_time_ms = 0.0;
};

class Superpod {
 public:
  /// LW_CHECKs that every cube has a port on an OCS (at most
  /// ocs::kPalomarUsablePorts cubes).
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

  /// Installs a slice. Fails (leaving the pod untouched) when a cube is out
  /// of range, unhealthy, or already owned by a slice, or when an OCS is
  /// down or would reject the slice's circuits, counting the circuits staged
  /// but not yet programmed. Its install_time_ms (command overhead plus its
  /// slowest circuit's alignment) is set when it is programmed.
  common::Result<SliceId> InstallSlice(const SliceTopology& topology);

  /// Installs a slice under a caller-chosen id (recovery replay reinstalls
  /// journaled slices under their original ids so job -> slice references
  /// survive a restart). Same failure modes as InstallSlice, plus
  /// kAlreadyExists when the id is taken. The id counter advances past `id`
  /// so future InstallSlice calls never collide.
  common::Result<SliceId> InstallSliceWithId(SliceId id, const SliceTopology& topology);
  /// InstallSliceWithId's checks alone, with no state change: a slice it
  /// passes installs.
  common::Status CheckInstall(SliceId id, const SliceTopology& topology) const;

  SliceId next_slice_id() const { return next_slice_id_; }
  /// Recovery hook: advances the slice-id counter (never rewinds), so a
  /// restored pod keeps minting fresh ids even when the latest slices were
  /// released before the crash.
  void SetNextSliceId(SliceId next);

  /// Removes a slice. Circuits staged for it and not yet programmed are
  /// dropped; its programmed circuits on up OCSes are staged for teardown.
  common::Status RemoveSlice(SliceId id);

  /// Replaces slice `old_id` by a slice of `topology` under a fresh id, as
  /// RemoveSlice then InstallSlice in one Batch would. The new slice is
  /// checked against the pod as it would stand without the old one (its
  /// cubes free, its circuits torn down) before anything changes, so a
  /// replacement that cannot install fails with the pod untouched.
  common::Result<SliceId> ReplaceSlice(SliceId old_id, const SliceTopology& topology);

  /// Defers programming: installs and removals made while a Batch lives
  /// stage their deltas, and the outermost scope commits them as it closes,
  /// early returns included. Scopes nest; the pod must not be shared across
  /// threads while one is open.
  class Batch {
   public:
    explicit Batch(Superpod& pod) : pod_(pod) { ++pod_.batch_depth_; }
    ~Batch() {
      if (--pod_.batch_depth_ == 0) pod_.Commit();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    Superpod& pod_;
  };

  const std::map<SliceId, InstalledSlice>& slices() const { return slices_; }
  std::optional<SliceId> SliceOwningCube(int cube_id) const;

  /// Cubes that are healthy and not owned by any slice.
  std::vector<int> FreeHealthyCubes() const;

  /// --- failure injection ---------------------------------------------------
  /// Both commit what is staged first: a switch that goes down keeps the
  /// circuits it was programmed with. Both LW_CHECK that `ocs_id` is one of
  /// the pod's and do nothing when it is not.
  void FailOcs(int ocs_id);
  /// Brings the OCS back up, programmed with exactly the circuits the
  /// running slices own on it (each slice's ring list for its dimension)
  /// whose two ports are usable; a circuit on a dead port stays down, and
  /// every other circuit on the switch is torn down.
  void RepairOcs(int ocs_id);

  /// A slice is degraded when any owning cube is unhealthy or, for a
  /// multi-cube slice, any OCS is down: every OCS carries a circuit of every
  /// slice. Single-cube slices never depend on the fabric (§4.2.2: "no
  /// reconfiguration between cubes is used"). LW_CHECKs that the slice
  /// exists; an unknown id reads as not degraded.
  bool SliceDegraded(SliceId id) const;

  /// Wall-clock spent reconfiguring switches since construction (committed
  /// transactions only).
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
  /// One OCS's deltas staged since the last commit.
  struct Staged {
    /// New circuits as a flat table over north ports (kNoCircuit where
    /// none), and the north ports written to it, each once.
    std::array<int, ocs::kPalomarUsablePorts> connect;
    std::vector<int> norths;
    std::bitset<ocs::kPalomarUsablePorts> listed;
    /// Live circuits to tear down, from the removed slices' ring lists.
    std::vector<std::pair<int, int>> disconnect;
    /// connect's ports taken, disconnect's freed: what the next commit
    /// changes, which the next install is checked under.
    ocs::PortOverlay overlay;
    /// The commit's connect list, built in north order; kept so its
    /// capacity is reused.
    std::vector<std::pair<int, int>> program;
  };

  /// Every check of an install, the circuits as each switch's ring list
  /// under its staged overlay. With `replacing`, the pod is taken as it
  /// would stand once that slice is removed.
  common::Status ValidateInstall(SliceId id, const SliceTopology& topology,
                                 const InstalledSlice* replacing = nullptr) const;
  /// Frees circuit north -> south of `ocs_id` in `overlay` as removing its
  /// slice does: a circuit staged since the last commit leaves the taken
  /// ports, a live one joins the freed ports. True when it is live, so the
  /// removal tears it down.
  bool FreeCircuit(int ocs_id, int north, int south, ocs::PortOverlay& overlay) const;
  /// The staging area of `ocs_id`, listing the OCS for the next commit.
  Staged& StageOn(int ocs_id);
  /// Programs everything staged (see the header comment) and fills in the
  /// records of the slices it installs; a no-op when nothing is staged.
  /// Validation happened at stage time, so a rejected delta is an invariant
  /// break and LW_CHECKs.
  void Commit();
  /// Commits unless a Batch is open.
  void MaybeCommit() {
    if (batch_depth_ == 0) Commit();
  }

  WiringPlan plan_;
  std::vector<Cube> cubes_;
  std::vector<std::unique_ptr<ocs::PalomarSwitch>> switches_;
  std::vector<bool> ocs_up_;
  std::map<SliceId, InstalledSlice> slices_;
  /// The slice owning each cube, indexed by cube id.
  std::vector<std::optional<SliceId>> cube_owner_;
  SliceId next_slice_id_ = 1;
  std::vector<Staged> staged_;  // indexed by OCS id
  /// OCSes with staged circuits, and the live slices installed, since the
  /// last commit (their install times are set there).
  std::vector<int> staged_ocs_;
  std::vector<SliceId> staged_installs_;
  int batch_depth_ = 0;
};

}  // namespace lightwave::tpu
