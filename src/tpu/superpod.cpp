#include "tpu/superpod.h"

#include <algorithm>
#include <cassert>
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

std::size_t Slot(int port) { return static_cast<std::size_t>(port); }

}  // namespace

Superpod::Superpod(std::uint64_t seed, int cubes, int ocs_per_dim)
    : plan_(cubes, ocs_per_dim), cube_owner_(static_cast<std::size_t>(cubes)) {
  assert(cubes <= ocs::kPalomarUsablePorts);
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

Result<Superpod::OcsCircuits> Superpod::ValidateInstall(SliceId slice_id,
                                                        const SliceTopology& topology) const {
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
    if (cube_owner_[static_cast<std::size_t>(id)].has_value()) {
      return common::AlreadyExists("cube " + std::to_string(id) + " owned by a slice");
    }
  }
  OcsCircuits wanted = topology.OcsConnections(plan_);
  // Every switch is checked under the deltas staged on it, so a commit
  // programs every delta it holds in full.
  for (const auto& [ocs_id, conns] : wanted) {
    const auto slot = static_cast<std::size_t>(ocs_id);
    if (!ocs_up_[slot]) {
      return common::Unavailable("ocs " + std::to_string(ocs_id) + " is down");
    }
    if (auto invalid = ocs(ocs_id).CheckConnectDelta(conns, staged_[slot].overlay);
        !invalid.ok()) {
      return common::Error{invalid.error().code,
                           "ocs " + std::to_string(ocs_id) + ": " + invalid.error().message};
    }
  }
  return wanted;
}

Status Superpod::CheckInstall(SliceId id, const SliceTopology& topology) const {
  auto wanted = ValidateInstall(id, topology);
  if (!wanted.ok()) return wanted.error();
  return Status::Ok();
}

Result<SliceId> Superpod::InstallSliceWithId(SliceId slice_id,
                                             const SliceTopology& topology) {
  auto wanted = ValidateInstall(slice_id, topology);
  if (!wanted.ok()) return wanted.error();
  // Each switch gains only the slice's circuits, so every running slice is
  // undisturbed by construction. Single-cube slices have self-loop-only
  // rings; they still program the wraparound so the cube sees a closed
  // 4x4x4 torus.
  for (const auto& [ocs_id, conns] : wanted.value()) {
    Staged& staged = StageOn(ocs_id);
    for (const auto& [north, south] : conns) {
      staged.connect[Slot(north)] = south;
      if (!staged.listed.test(Slot(north))) {
        staged.listed.set(Slot(north));
        staged.norths.push_back(north);
      }
      staged.overlay.north_taken.set(Slot(north));
      staged.overlay.south_taken.set(Slot(south));
    }
  }
  staged_installs_.push_back(slice_id);

  if (slice_id >= next_slice_id_) next_slice_id_ = slice_id + 1;
  for (int cube_id : topology.cube_ids()) {
    cube_owner_[static_cast<std::size_t>(cube_id)] = slice_id;
  }
  slices_.emplace(slice_id, InstalledSlice{
                                .id = slice_id,
                                .topology = topology,
                                .connections = std::move(wanted).value(),
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
  for (auto& [ocs_id, conns] : it->second.connections) {
    // A down switch keeps its circuits until RepairOcs re-targets it.
    if (!ocs_up_[static_cast<std::size_t>(ocs_id)]) continue;
    Staged& staged = staged_[static_cast<std::size_t>(ocs_id)];
    const ocs::PalomarSwitch& sw = ocs(ocs_id);
    // Keep in `conns` only the slice's live circuits; the slice's record
    // goes below, so they move to the teardown as they are.
    for (auto circuit = conns.begin(); circuit != conns.end();) {
      const auto [north, south] = *circuit;
      if (staged.connect[Slot(north)] == south) {
        // Staged by this slice and never programmed: nothing to tear down.
        staged.connect[Slot(north)] = kNoCircuit;
        staged.overlay.north_taken.reset(Slot(north));
        staged.overlay.south_taken.reset(Slot(south));
        circuit = conns.erase(circuit);
      } else if (auto live = sw.ConnectionOn(north); live.has_value() && live->south == south) {
        staged.overlay.north_freed.set(Slot(north));
        staged.overlay.south_freed.set(Slot(south));
        ++circuit;
      } else {
        circuit = conns.erase(circuit);
      }
    }
    if (conns.empty()) continue;
    std::map<int, int>& teardown = StageOn(ocs_id).disconnect;
    if (teardown.empty()) {
      teardown.swap(conns);
    } else {
      teardown.merge(conns);
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
      std::sort(staged.norths.begin(), staged.norths.end());
      std::map<int, int> connect;
      for (int north : staged.norths) {
        int& south = staged.connect[Slot(north)];
        if (south != kNoCircuit) connect.emplace_hint(connect.end(), north, south);
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
      if (!connect.empty()) {
        LW_CHECK_OK(ocs(ocs_id).ConnectDelta(connect))
            << "ocs " << ocs_id << " rejected a checked delta";
      }
    }
  };
  // One chunk per switch, as the hardware's switches act concurrently: each
  // owns its optical core and its telemetry series, and a circuit's draws
  // depend only on its path, so every output is the serial loop's. Below
  // kMinParallelCircuits the commit programs its switches on this thread.
  if (circuits >= kMinParallelCircuits) {
    common::parallel::ParallelFor(staged_ocs_.size(), 1, program);
  } else {
    program(0, staged_ocs_.size(), 0);
  }
  staged_ocs_.clear();
  // A slice's install time is the transaction overhead plus its own slowest
  // circuit, as if its circuits had been a transaction of their own.
  for (SliceId id : staged_installs_) {
    InstalledSlice& slice = slices_.at(id);
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
  assert(ocs_id >= 0 && ocs_id < ocs_count());
  Commit();
  ocs_up_[static_cast<std::size_t>(ocs_id)] = false;
}

void Superpod::RepairOcs(int ocs_id) {
  assert(ocs_id >= 0 && ocs_id < ocs_count());
  Commit();
  ocs_up_[static_cast<std::size_t>(ocs_id)] = true;
  // Mirror state is volatile: the switch comes back with exactly the
  // circuits the running slices own on it. Circuits of slices removed while
  // it was down are torn down here.
  std::map<int, int> target;
  for (const auto& [id, slice] : slices_) {
    auto it = slice.connections.find(ocs_id);
    if (it != slice.connections.end()) target.insert(it->second.begin(), it->second.end());
  }
  (void)ocs(ocs_id).Reconfigure(target);
}

bool Superpod::SliceDegraded(SliceId id) const {
  auto it = slices_.find(id);
  assert(it != slices_.end());
  const InstalledSlice& slice = it->second;
  for (int cube_id : slice.topology.cube_ids()) {
    if (!cubes_[static_cast<std::size_t>(cube_id)].Healthy()) return true;
  }
  if (slice.topology.cube_ids().size() > 1) {
    for (const auto& [ocs_id, conns] : slice.connections) {
      if (!ocs_up_[static_cast<std::size_t>(ocs_id)]) return true;
    }
  }
  return false;
}

double Superpod::TotalReconfigMs() const {
  double total = 0.0;
  for (const auto& sw : switches_) total += sw->telemetry().cumulative_switch_ms;
  return total;
}

}  // namespace lightwave::tpu
