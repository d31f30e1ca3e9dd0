#include "tpu/superpod.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace lightwave::tpu {

using common::Result;
using common::Status;

namespace {

/// Circuits a commit must establish before its switches fan out over the
/// thread pool; below it the commit programs them on the calling thread.
/// Counted per commit, so a batch of small installs fans out as one.
/// BM_SliceInstall puts the break-even at about four circuits per OCS on a
/// 48-OCS pod (see EXPERIMENTS.md, "Program circuits at commit").
constexpr std::size_t kMinParallelCircuits = 192;

constexpr int kNoCircuit = -1;

/// Room for one ring list: a slice on the pod has at most one cube per OCS
/// port.
using RingBuffer = std::array<std::pair<int, int>, ocs::kPalomarUsablePorts>;

std::size_t Slot(int port) { return static_cast<std::size_t>(port); }

}  // namespace

Superpod::Superpod(std::uint64_t seed, int cubes, int ocs_per_dim)
    : plan_(cubes, ocs_per_dim), cube_owner_(static_cast<std::size_t>(cubes)) {
  // Cube c owns port c on every OCS (tpu/wiring.h), and the ring buffers
  // hold one pair per port.
  LW_CHECK(cubes <= ocs::kPalomarUsablePorts)
      << "a pod of " << cubes << " cubes outgrows the " << ocs::kPalomarUsablePorts
      << " ports of an OCS";
  common::Rng rng(seed);
  cubes_.reserve(static_cast<std::size_t>(cubes));
  for (int i = 0; i < cubes; ++i) cubes_.emplace_back(i);
  const int ocs_total = plan_.ocs_count();
  switches_.reserve(static_cast<std::size_t>(ocs_total));
  for (int i = 0; i < ocs_total; ++i) {
    switches_.push_back(std::make_unique<ocs::PalomarSwitch>(
        rng.NextU64(), "ocs-" + std::to_string(i)));
  }
  ocs_up_.assign(static_cast<std::size_t>(ocs_total), true);
  staged_.resize(static_cast<std::size_t>(ocs_total));
  for (Staged& staged : staged_) staged.connect.fill(kNoCircuit);
}

Result<SliceId> Superpod::InstallSlice(const SliceTopology& topology) {
  return InstallSliceWithId(next_slice_id_, topology);
}

Status Superpod::ValidateInstall(SliceId slice_id, const SliceTopology& topology,
                                 const InstalledSlice* replacing) const {
  if (slices_.contains(slice_id)) {
    return common::AlreadyExists("slice id " + std::to_string(slice_id) + " taken");
  }
  for (int id : topology.cube_ids()) {
    if (id >= cube_count()) {
      return common::InvalidArgument("cube id out of range");
    }
    if (!cubes_[static_cast<std::size_t>(id)].Healthy()) {
      return common::FailedPrecondition("cube " + std::to_string(id) + " unhealthy");
    }
    const std::optional<SliceId>& owner = cube_owner_[static_cast<std::size_t>(id)];
    if (owner.has_value() && (replacing == nullptr || *owner != replacing->id)) {
      return common::AlreadyExists("cube " + std::to_string(id) + " owned by a slice");
    }
  }
  // The cubes are the pod's and distinct, so each ring list fits a buffer.
  // Every switch is checked under the deltas staged on it, so a commit
  // programs every delta it holds in full.
  RingBuffer ring_buffer, replaced_buffer;
  for (Dim dim : kAllDims) {
    const ocs::PortPairs ring = topology.RingCircuits(dim, ring_buffer);
    const ocs::PortPairs replaced = replacing == nullptr
                                        ? ocs::PortPairs{}
                                        : replacing->topology.RingCircuits(dim, replaced_buffer);
    for (int face = 0; face < plan_.ocs_per_dim(); ++face) {
      const int ocs_id = plan_.OcsFor(dim, face);
      const auto slot = static_cast<std::size_t>(ocs_id);
      if (!ocs_up_[slot]) {
        return common::Unavailable("ocs " + std::to_string(ocs_id) + " is down");
      }
      ocs::PortOverlay overlay = staged_[slot].overlay;
      for (const auto& [north, south] : replaced) (void)FreeCircuit(ocs_id, north, south, overlay);
      if (auto invalid = ocs(ocs_id).CheckConnectDelta(ring, overlay); !invalid.ok()) {
        return common::Error{invalid.error().code,
                             "ocs " + std::to_string(ocs_id) + ": " + invalid.error().message};
      }
    }
  }
  return Status::Ok();
}

bool Superpod::FreeCircuit(int ocs_id, int north, int south, ocs::PortOverlay& overlay) const {
  if (staged_[static_cast<std::size_t>(ocs_id)].connect[Slot(north)] == south) {
    overlay.north_taken.reset(Slot(north));
    overlay.south_taken.reset(Slot(south));
    return false;
  }
  const auto live = ocs(ocs_id).ConnectionOn(north);
  if (!live.has_value() || live->south != south) return false;
  overlay.north_freed.set(Slot(north));
  overlay.south_freed.set(Slot(south));
  return true;
}

Status Superpod::CheckInstall(SliceId id, const SliceTopology& topology) const {
  return ValidateInstall(id, topology);
}

Result<SliceId> Superpod::InstallSliceWithId(SliceId slice_id,
                                             const SliceTopology& topology) {
  if (Status valid = ValidateInstall(slice_id, topology); !valid.ok()) return valid.error();
  // Each switch gains only the slice's circuits, so every running slice is
  // undisturbed by construction. Single-cube slices have self-loop-only
  // rings; they still program the wraparound so the cube sees a closed
  // 4x4x4 torus.
  RingBuffer buffer;
  for (Dim dim : kAllDims) {
    const ocs::PortPairs ring = topology.RingCircuits(dim, buffer);
    for (int face = 0; face < plan_.ocs_per_dim(); ++face) {
      Staged& staged = StageOn(plan_.OcsFor(dim, face));
      for (const auto& [north, south] : ring) {
        staged.connect[Slot(north)] = south;
        if (!staged.listed.test(Slot(north))) {
          staged.listed.set(Slot(north));
          staged.norths.push_back(north);
        }
        staged.overlay.north_taken.set(Slot(north));
        staged.overlay.south_taken.set(Slot(south));
      }
    }
  }
  staged_installs_.push_back(slice_id);

  if (slice_id >= next_slice_id_) next_slice_id_ = slice_id + 1;
  for (int cube_id : topology.cube_ids()) {
    cube_owner_[static_cast<std::size_t>(cube_id)] = slice_id;
  }
  // The record's connections and install time are filled in at commit.
  slices_.emplace(slice_id, InstalledSlice{
                                .id = slice_id,
                                .topology = topology,
                                .connections = {},
                                .install_time_ms = 0.0,
                            });
  MaybeCommit();
  return slice_id;
}

void Superpod::SetNextSliceId(SliceId next) {
  if (next > next_slice_id_) next_slice_id_ = next;
}

Status Superpod::RemoveSlice(SliceId id) {
  auto it = slices_.find(id);
  if (it == slices_.end()) return common::NotFound("no such slice");
  RingBuffer buffer;
  for (Dim dim : kAllDims) {
    const ocs::PortPairs ring = it->second.topology.RingCircuits(dim, buffer);
    for (int face = 0; face < plan_.ocs_per_dim(); ++face) {
      const int ocs_id = plan_.OcsFor(dim, face);
      // A down switch keeps its circuits until RepairOcs re-targets it.
      if (!ocs_up_[static_cast<std::size_t>(ocs_id)]) continue;
      Staged& staged = staged_[static_cast<std::size_t>(ocs_id)];
      for (const auto& [north, south] : ring) {
        if (FreeCircuit(ocs_id, north, south, staged.overlay)) {
          StageOn(ocs_id).disconnect.emplace_back(north, south);
        } else if (staged.connect[Slot(north)] == south) {
          // Staged by this slice and never programmed: nothing to tear down.
          staged.connect[Slot(north)] = kNoCircuit;
        }
      }
    }
  }
  for (int cube_id : it->second.topology.cube_ids()) {
    cube_owner_[static_cast<std::size_t>(cube_id)].reset();
  }
  slices_.erase(it);
  std::erase(staged_installs_, id);
  MaybeCommit();
  return Status::Ok();
}

Result<SliceId> Superpod::ReplaceSlice(SliceId old_id, const SliceTopology& topology) {
  auto it = slices_.find(old_id);
  if (it == slices_.end()) return common::NotFound("no such slice");
  if (Status valid = ValidateInstall(next_slice_id_, topology, &it->second); !valid.ok()) {
    return valid.error();
  }
  Batch batch(*this);
  LW_CHECK_OK(RemoveSlice(old_id)) << "replaced slice " << old_id;
  auto installed = InstallSlice(topology);
  LW_CHECK_OK(installed) << "replacement of slice " << old_id;
  return installed;
}

Superpod::Staged& Superpod::StageOn(int ocs_id) {
  Staged& staged = staged_[static_cast<std::size_t>(ocs_id)];
  if (staged.norths.empty() && staged.disconnect.empty()) staged_ocs_.push_back(ocs_id);
  return staged;
}

void Superpod::Commit() {
  if (staged_ocs_.empty() && staged_installs_.empty()) return;
  std::size_t circuits = 0;
  for (int ocs_id : staged_ocs_) {
    circuits += staged_[static_cast<std::size_t>(ocs_id)].overlay.north_taken.count();
  }
  const auto program = [this](std::uint64_t begin, std::uint64_t end, std::uint64_t /*chunk*/) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const int ocs_id = staged_ocs_[i];
      Staged& staged = staged_[static_cast<std::size_t>(ocs_id)];
      // Establish in north order, as a full-target Reconfigure does.
      std::sort(staged.norths.begin(), staged.norths.end());
      staged.program.clear();
      for (int north : staged.norths) {
        int& south = staged.connect[Slot(north)];
        if (south != kNoCircuit) staged.program.emplace_back(north, south);
        south = kNoCircuit;
      }
      staged.norths.clear();
      staged.listed.reset();
      staged.overlay = {};
      if (!staged.disconnect.empty()) {
        LW_CHECK_OK(ocs(ocs_id).DisconnectDelta(staged.disconnect))
            << "ocs " << ocs_id << " rejected a staged teardown";
        staged.disconnect.clear();
      }
      if (!staged.program.empty()) {
        LW_CHECK_OK(ocs(ocs_id).ConnectDelta(staged.program))
            << "ocs " << ocs_id << " rejected a checked delta";
      }
    }
  };
  // One chunk per switch, as the hardware's switches act concurrently: each
  // owns its optical core, its telemetry series and its staging lists, and
  // a circuit's draws depend only on its path, so every output is the
  // serial loop's. Below kMinParallelCircuits the commit programs its
  // switches on this thread.
  if (circuits >= kMinParallelCircuits) {
    common::parallel::ParallelFor(staged_ocs_.size(), 1, program);
  } else {
    program(0, staged_ocs_.size(), 0);
  }
  staged_ocs_.clear();
  // The record of each slice programmed here. Its install time is the
  // transaction overhead plus its own slowest circuit, as if its circuits
  // had been a transaction of their own.
  for (SliceId id : staged_installs_) {
    InstalledSlice& slice = slices_.at(id);
    slice.connections = slice.topology.OcsConnections(plan_);
    double slowest_ms = 0.0;
    for (const auto& [ocs_id, conns] : slice.connections) {
      for (const auto& [north, south] : conns) {
        slowest_ms = std::max(slowest_ms, ocs(ocs_id).CircuitAlignmentMs(north));
      }
    }
    slice.install_time_ms =
        slice.connections.empty() ? 0.0 : ocs::PalomarSwitch::kCommandOverheadMs + slowest_ms;
  }
  staged_installs_.clear();
}

std::optional<SliceId> Superpod::SliceOwningCube(int cube_id) const {
  if (cube_id < 0 || cube_id >= cube_count()) return std::nullopt;
  return cube_owner_[static_cast<std::size_t>(cube_id)];
}

std::vector<int> Superpod::FreeHealthyCubes() const {
  std::vector<int> free;
  for (int i = 0; i < cube_count(); ++i) {
    const auto slot = static_cast<std::size_t>(i);
    if (cubes_[slot].Healthy() && !cube_owner_[slot].has_value()) {
      free.push_back(i);
    }
  }
  return free;
}

void Superpod::FailOcs(int ocs_id) {
  const bool known = ocs_id >= 0 && ocs_id < ocs_count();
  LW_CHECK(known) << "FailOcs of ocs " << ocs_id << " on a pod of " << ocs_count();
  if (!known) return;
  Commit();
  ocs_up_[static_cast<std::size_t>(ocs_id)] = false;
}

void Superpod::RepairOcs(int ocs_id) {
  const bool known = ocs_id >= 0 && ocs_id < ocs_count();
  LW_CHECK(known) << "RepairOcs of ocs " << ocs_id << " on a pod of " << ocs_count();
  if (!known) return;
  Commit();
  ocs_up_[static_cast<std::size_t>(ocs_id)] = true;
  // Mirror state is volatile: the switch comes back with exactly the
  // circuits the running slices own on it, each one's ring list along the
  // switch's dimension, less any circuit on a dead port (a mirror failure
  // took it down and it stays down). Circuits of slices removed while it
  // was down are torn down here. Running slices own disjoint cubes, so the
  // target is bijective and every port in it usable: it cannot be rejected.
  const Dim dim = plan_.DimOfOcs(ocs_id);
  ocs::PalomarSwitch& sw = ocs(ocs_id);
  RingBuffer buffer;
  std::map<int, int> target;
  for (const auto& [id, slice] : slices_) {
    for (const auto& [north, south] : slice.topology.RingCircuits(dim, buffer)) {
      if (sw.PortUsable(true, north) && sw.PortUsable(false, south)) target.emplace(north, south);
    }
  }
  LW_CHECK_OK(sw.Reconfigure(target)) << "repair of ocs " << ocs_id;
}

bool Superpod::SliceDegraded(SliceId id) const {
  auto it = slices_.find(id);
  LW_CHECK(it != slices_.end()) << "SliceDegraded of unknown slice " << id;
  if (it == slices_.end()) return false;
  const std::vector<int>& cube_ids = it->second.topology.cube_ids();
  for (int cube_id : cube_ids) {
    if (!cubes_[static_cast<std::size_t>(cube_id)].Healthy()) return true;
  }
  return cube_ids.size() > 1 && std::find(ocs_up_.begin(), ocs_up_.end(), false) != ocs_up_.end();
}

double Superpod::TotalReconfigMs() const {
  double total = 0.0;
  for (const auto& sw : switches_) total += sw->telemetry().cumulative_switch_ms;
  return total;
}

}  // namespace lightwave::tpu
