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

/// Circuits an install must program before its switches fan out over the
/// thread pool. Below this the fan-out does not pay on the serve path: a
/// 6-OCS pod's 1- to 4-cube installs (6 to 24 circuits) arrive between long
/// runs of other work, so each one wakes an idle pool, and fanning them out
/// cost the flood benchmark throughput. Every install on a 48-OCS pod (at
/// least 48 circuits) fans out.
constexpr std::size_t kMinParallelCircuits = 48;

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
}

Result<SliceId> Superpod::InstallSlice(const SliceTopology& topology) {
  return InstallSliceWithId(next_slice_id_, topology);
}

Result<SliceId> Superpod::InstallSliceWithId(SliceId slice_id,
                                             const SliceTopology& topology) {
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

  auto wanted = topology.OcsConnections(plan_);
  // Check every switch before programming any, so a failed install leaves
  // the fabric untouched.
  for (const auto& [ocs_id, conns] : wanted) {
    if (!ocs_up_[static_cast<std::size_t>(ocs_id)]) {
      return common::Unavailable("ocs " + std::to_string(ocs_id) + " is down");
    }
    if (auto invalid = ocs(ocs_id).CheckConnectDelta(conns); !invalid.ok()) {
      return common::Error{invalid.error().code,
                           "ocs " + std::to_string(ocs_id) + ": " + invalid.error().message};
    }
  }
  // Each switch gains only the slice's circuits, so every running slice is
  // undisturbed by construction. Single-cube slices have self-loop-only
  // rings; they still program the wraparound so the cube sees a closed
  // 4x4x4 torus. The switches are programmed in parallel, as the install
  // time (the slowest switch) already assumes: each owns its optical core's
  // RNG and its telemetry series, so every output is the serial loop's. An
  // install below kMinParallelCircuits runs as one chunk on this thread.
  std::vector<std::pair<int, const std::map<int, int>*>> programs;
  std::size_t circuits = 0;
  programs.reserve(wanted.size());
  for (const auto& [ocs_id, conns] : wanted) {
    programs.emplace_back(ocs_id, &conns);
    circuits += conns.size();
  }
  std::vector<double> durations(programs.size());
  common::parallel::ParallelFor(
      programs.size(), circuits >= kMinParallelCircuits ? 1 : programs.size(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t /*chunk*/) {
        for (std::uint64_t i = begin; i < end; ++i) {
          const auto& [ocs_id, conns] = programs[i];
          auto duration = ocs(ocs_id).ConnectDelta(*conns);
          LW_CHECK_OK(duration) << "ocs " << ocs_id << " rejected a checked delta";
          durations[i] = duration.value();
        }
      });
  double install_ms = 0.0;
  for (double duration : durations) install_ms = std::max(install_ms, duration);

  if (slice_id >= next_slice_id_) next_slice_id_ = slice_id + 1;
  for (int cube_id : topology.cube_ids()) {
    cube_owner_[static_cast<std::size_t>(cube_id)] = slice_id;
  }
  slices_.emplace(slice_id, InstalledSlice{
                                .id = slice_id,
                                .topology = topology,
                                .connections = std::move(wanted),
                                .install_time_ms = install_ms,
                            });
  return slice_id;
}

void Superpod::SetNextSliceId(SliceId next) {
  if (next > next_slice_id_) next_slice_id_ = next;
}

Status Superpod::RemoveSlice(SliceId id) {
  auto it = slices_.find(id);
  if (it == slices_.end()) return common::NotFound("no such slice");
  for (const auto& [ocs_id, conns] : it->second.connections) {
    // A down switch keeps its circuits until RepairOcs re-targets it.
    if (!ocs_up_[static_cast<std::size_t>(ocs_id)]) continue;
    auto removed = ocs(ocs_id).DisconnectDelta(conns);
    if (!removed.ok()) return removed.error();
  }
  for (int cube_id : it->second.topology.cube_ids()) {
    cube_owner_[static_cast<std::size_t>(cube_id)].reset();
  }
  slices_.erase(it);
  return Status::Ok();
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
  ocs_up_[static_cast<std::size_t>(ocs_id)] = false;
}

void Superpod::RepairOcs(int ocs_id) {
  assert(ocs_id >= 0 && ocs_id < ocs_count());
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
