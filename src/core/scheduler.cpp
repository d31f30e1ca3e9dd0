#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common/check.h"
#include "ctrl/wire.h"
#include "sim/event.h"
#include "telemetry/hub.h"

namespace lightwave::core {

using common::Result;
using common::Status;
using tpu::SliceId;
using tpu::SliceShape;
using tpu::SliceTopology;

const char* ToString(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kReconfigurable: return "reconfigurable";
    case AllocationPolicy::kContiguous: return "contiguous";
  }
  return "?";
}

SliceScheduler::SliceScheduler(tpu::Superpod& pod, AllocationPolicy policy)
    : pod_(pod), policy_(policy) {}

void SliceScheduler::AttachTelemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    request_counter_ = accepted_counter_ = rejected_counter_ = repair_counter_ = nullptr;
    busy_gauge_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  const telemetry::LabelSet labels{{"policy", ToString(policy_)}};
  request_counter_ = &metrics.GetCounter("lightwave_core_slice_requests_total", labels);
  accepted_counter_ = &metrics.GetCounter("lightwave_core_slices_accepted_total", labels);
  rejected_counter_ = &metrics.GetCounter("lightwave_core_slices_rejected_total", labels);
  repair_counter_ = &metrics.GetCounter("lightwave_core_slice_repairs_total", labels);
  busy_gauge_ = &metrics.GetGauge("lightwave_core_busy_cubes", labels);
  UpdateBusyGauge();
}

void SliceScheduler::UpdateBusyGauge() {
  if (busy_gauge_ != nullptr) busy_gauge_->Set(BusyCubes());
}

std::optional<std::vector<int>> SliceScheduler::PickCubes(const SliceShape& shape) const {
  const int want = shape.CubeCount();
  if (policy_ == AllocationPolicy::kReconfigurable) {
    std::vector<int> free = pod_.FreeHealthyCubes();
    if (static_cast<int>(free.size()) < want) return std::nullopt;
    free.resize(static_cast<std::size_t>(want));
    return free;
  }

  // Contiguous policy: the pod's cubes live on a fixed side x side x side
  // grid; the slice must occupy an aligned sub-box (in any axis order).
  const int side = static_cast<int>(std::lround(std::cbrt(pod_.cube_count())));
  if (side * side * side != pod_.cube_count()) return std::nullopt;
  auto grid_id = [&](int x, int y, int z) { return x + side * (y + side * z); };

  std::set<int> free_set;
  for (int id : pod_.FreeHealthyCubes()) free_set.insert(id);

  int dims[3] = {shape.a, shape.b, shape.c};
  std::sort(dims, dims + 3);
  // Try all axis orders of the sorted dims.
  int perm[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (auto& p : perm) {
    const int dx = dims[p[0]], dy = dims[p[1]], dz = dims[p[2]];
    if (dx > side || dy > side || dz > side) continue;
    for (int ox = 0; ox + dx <= side; ++ox) {
      for (int oy = 0; oy + dy <= side; ++oy) {
        for (int oz = 0; oz + dz <= side; ++oz) {
          std::vector<int> cubes;
          cubes.reserve(static_cast<std::size_t>(dx) * dy * dz);
          bool ok = true;
          for (int z = oz; ok && z < oz + dz; ++z) {
            for (int y = oy; ok && y < oy + dy; ++y) {
              for (int x = ox; ok && x < ox + dx; ++x) {
                const int id = grid_id(x, y, z);
                if (!free_set.contains(id)) {
                  ok = false;
                } else {
                  cubes.push_back(id);
                }
              }
            }
          }
          if (ok) return cubes;
        }
      }
    }
  }
  return std::nullopt;
}

Result<SliceId> SliceScheduler::Allocate(const SliceShape& shape) {
  ++stats_.requests;
  if (request_counter_ != nullptr) request_counter_->Inc();
  auto reject = [this] {
    ++stats_.rejected;
    if (rejected_counter_ != nullptr) rejected_counter_->Inc();
  };
  // Bound every dimension before the cube count is computed: a shape from
  // the wire can be anything, and three unbounded ints overflow the
  // product. No dimension longer than the pod can place.
  for (int dim : {shape.a, shape.b, shape.c}) {
    if (dim < 1 || dim > pod_.cube_count()) {
      reject();
      return common::InvalidArgument("slice shape " + shape.ToCubeString() +
                                     " needs every dimension in [1, " +
                                     std::to_string(pod_.cube_count()) + "]");
    }
  }
  auto cubes = PickCubes(shape);
  if (!cubes.has_value()) {
    reject();
    return common::ResourceExhausted("no placement for shape " + shape.ToCubeString() +
                                     " under " + ToString(policy_) + " policy");
  }
  auto topology = SliceTopology::Create(shape, std::move(*cubes));
  if (!topology.ok()) {
    reject();
    return topology.error();
  }
  auto installed = pod_.InstallSlice(topology.value());
  if (!installed.ok()) {
    reject();
    return installed.error();
  }
  ++stats_.accepted;
  if (accepted_counter_ != nullptr) accepted_counter_->Inc();
  UpdateBusyGauge();
  MaybeValidate("Allocate");
  return installed.value();
}

Status SliceScheduler::Release(SliceId id) {
  auto released = pod_.RemoveSlice(id);
  UpdateBusyGauge();
  MaybeValidate("Release");
  return released;
}

Result<SliceId> SliceScheduler::RepairSlice(SliceId id) {
  auto it = pod_.slices().find(id);
  if (it == pod_.slices().end()) return common::NotFound("no such slice");
  const SliceShape shape = it->second.topology.shape();
  std::vector<int> cubes = it->second.topology.cube_ids();

  if (policy_ != AllocationPolicy::kReconfigurable) {
    return common::FailedPrecondition("static fabric cannot swap cubes");
  }

  // Identify dead cubes and candidate spares.
  std::vector<std::size_t> dead_positions;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (!pod_.cube(cubes[i]).Healthy()) dead_positions.push_back(i);
  }
  if (dead_positions.empty()) return id;  // nothing to do

  auto spares = pod_.FreeHealthyCubes();
  if (spares.size() < dead_positions.size()) {
    return common::ResourceExhausted("not enough healthy spare cubes");
  }

  // Patch the assignment and swap the slice for it: the pod checks the
  // replacement before it removes anything, so a repair that cannot install
  // leaves the slice running. Other slices stay untouched thanks to the
  // switches' undisturbed reconfiguration.
  for (std::size_t i = 0; i < dead_positions.size(); ++i) {
    cubes[dead_positions[i]] = spares[i];
  }
  auto topology = SliceTopology::Create(shape, std::move(cubes));
  if (!topology.ok()) return topology.error();
  auto installed = pod_.ReplaceSlice(id, topology.value());
  if (!installed.ok()) return installed.error();
  ++stats_.repairs;
  if (repair_counter_ != nullptr) repair_counter_->Inc();
  MaybeValidate("RepairSlice");
  return installed.value();
}

void SliceScheduler::ExportState(ctrl::WireWriter& writer) const {
  writer.PutVarint(stats_.requests);
  writer.PutVarint(stats_.accepted);
  writer.PutVarint(stats_.rejected);
  writer.PutVarint(stats_.repairs);
  writer.PutVarint(pod_.slices().size());
  for (const auto& [id, slice] : pod_.slices()) {
    writer.PutU64(id);
    const SliceShape& shape = slice.topology.shape();
    writer.PutInt(shape.a);
    writer.PutInt(shape.b);
    writer.PutInt(shape.c);
    writer.PutVarint(slice.topology.cube_ids().size());
    for (int cube : slice.topology.cube_ids()) writer.PutInt(cube);
  }
  writer.PutU64(pod_.next_slice_id());
}

Result<SliceScheduler::SavedState> SliceScheduler::DecodeState(
    ctrl::WireReader& reader) const {
  // The snapshot's bytes are outside input, so every count, dimension and
  // cube id is read against the pod: a crafted 2^40-cube entry fails at its
  // read instead of in the allocator, and a = 2^32+1 is not read as 1.
  const auto pod_cubes = static_cast<std::uint64_t>(pod_.cube_count());
  SavedState state;
  state.stats = Stats{.requests = reader.GetVarint(),
                      .accepted = reader.GetVarint(),
                      .rejected = reader.GetVarint(),
                      .repairs = reader.GetVarint()};
  for (std::uint64_t i = reader.GetVarint(pod_cubes); i > 0 && reader.ok(); --i) {
    SavedState::Slice& slice = state.slices.emplace_back(SavedState::Slice{
        .id = reader.GetU64(),
        .shape = {static_cast<int>(reader.GetVarint(pod_cubes)),
                  static_cast<int>(reader.GetVarint(pod_cubes)),
                  static_cast<int>(reader.GetVarint(pod_cubes))},
        .cubes = {}});
    for (std::uint64_t j = reader.GetVarint(pod_cubes); j > 0 && reader.ok(); --j) {
      slice.cubes.push_back(static_cast<int>(reader.GetVarint(pod_cubes - 1)));
    }
  }
  state.next_slice_id = reader.GetU64();
  if (!reader.ok()) return common::Internal("scheduler state truncated or beyond the pod");
  return state;
}

common::Status SliceScheduler::RestoreState(SavedState state) {
  std::vector<SliceTopology> topologies;
  std::set<SliceId> ids;
  std::vector<bool> claimed(static_cast<std::size_t>(pod_.cube_count()), false);
  for (SavedState::Slice& slice : state.slices) {
    auto topology = SliceTopology::Create(slice.shape, std::move(slice.cubes));
    if (!topology.ok()) return topology.error();
    // The pod checks each slice alone: id, cube range, health and owner,
    // OCS up and every circuit free. What it cannot see is the set itself.
    if (Status fits = pod_.CheckInstall(slice.id, topology.value()); !fits.ok()) return fits;
    if (!ids.insert(slice.id).second) {
      return common::AlreadyExists("slice id " + std::to_string(slice.id) + " repeats");
    }
    for (int cube : topology.value().cube_ids()) {
      if (claimed[static_cast<std::size_t>(cube)]) {
        return common::AlreadyExists("cube " + std::to_string(cube) + " in two slices");
      }
      claimed[static_cast<std::size_t>(cube)] = true;
    }
    topologies.push_back(std::move(topology).value());
  }
  // Cube c owns north and south port c on every OCS (tpu/wiring.h), so
  // disjoint slices have disjoint circuits and each passes its switches
  // beside the others: every install below succeeds.
  {
    tpu::Superpod::Batch batch(pod_);
    for (std::size_t i = 0; i < topologies.size(); ++i) {
      LW_CHECK_OK(pod_.InstallSliceWithId(state.slices[i].id, topologies[i]))
          << "validated slice " << state.slices[i].id;
    }
  }
  pod_.SetNextSliceId(state.next_slice_id);
  stats_ = state.stats;
  UpdateBusyGauge();
  MaybeValidate("ImportState");
  return Status::Ok();
}

common::Status SliceScheduler::ImportState(ctrl::WireReader& reader) {
  auto state = DecodeState(reader);
  if (!state.ok()) return state.error();
  return RestoreState(std::move(state).value());
}

common::Status SliceScheduler::ValidateInvariants() const {
  std::map<int, SliceId> owner;
  for (const auto& [id, slice] : pod_.slices()) {
    const auto& cubes = slice.topology.cube_ids();
    if (static_cast<int>(cubes.size()) != slice.topology.shape().CubeCount()) {
      return common::Internal("slice " + std::to_string(id) +
                              " cube list disagrees with its shape");
    }
    for (int cube : cubes) {
      if (cube < 0 || cube >= pod_.cube_count()) {
        return common::Internal("slice " + std::to_string(id) +
                                " references out-of-range cube " + std::to_string(cube));
      }
      auto [it, inserted] = owner.emplace(cube, id);
      if (!inserted) {
        return common::Internal("cube " + std::to_string(cube) +
                                " double-booked by slices " + std::to_string(it->second) +
                                " and " + std::to_string(id));
      }
    }
  }
  // Ownership index must agree with the slice tables in both directions.
  for (int cube = 0; cube < pod_.cube_count(); ++cube) {
    const auto indexed = pod_.SliceOwningCube(cube);
    const auto it = owner.find(cube);
    if (indexed.has_value() != (it != owner.end()) ||
        (indexed.has_value() && *indexed != it->second)) {
      return common::Internal("ownership index disagrees with slice tables at cube " +
                              std::to_string(cube));
    }
  }
  return common::Status::Ok();
}

void SliceScheduler::MaybeValidate(const char* boundary) const {
  if (!common::ValidationEnabled()) return;
  LW_CHECK_OK(ValidateInvariants()) << ToString(policy_) << " scheduler after " << boundary;
}

int SliceScheduler::BusyCubes() const {
  int busy = 0;
  for (const auto& [id, slice] : pod_.slices()) {
    busy += slice.topology.shape().CubeCount();
  }
  return busy;
}

namespace {

/// Most-compact shape for n cubes: the factor triple minimizing max/min.
SliceShape MostCompactShape(int n) {
  SliceShape best{1, 1, n};
  double best_score = 1e18;
  for (const auto& s : tpu::EnumerateCanonicalShapes(n)) {
    const double score = static_cast<double>(std::max({s.a, s.b, s.c})) /
                         std::min({s.a, s.b, s.c});
    if (score < best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

}  // namespace

WorkloadResult SimulateWorkload(tpu::Superpod& pod, AllocationPolicy policy,
                                const WorkloadConfig& config) {
  SliceScheduler scheduler(pod, policy);
  sim::EventQueue queue;
  common::Rng rng(config.seed);

  // Optional observability: spans and time series are stamped with the
  // simulation clock, so instrumented runs stay deterministic.
  telemetry::Hub* hub = config.hub;
  telemetry::TimeSeries* busy_series = nullptr;
  // Admission-control view: what the scheduler's own counters cannot see —
  // jobs that waited in the backlog, jobs lost to failures, and the capacity
  // the pod lost to unhealthy cubes — exported so the Prometheus text dump
  // shows the §4.2.4 acceptance story, not just raw allocate outcomes.
  telemetry::Counter* submitted_counter = nullptr;
  telemetry::Counter* queued_counter = nullptr;
  telemetry::Counter* lost_counter = nullptr;
  telemetry::Gauge* backlog_gauge = nullptr;
  telemetry::Gauge* lost_capacity_gauge = nullptr;
  telemetry::Gauge* acceptance_gauge = nullptr;
  if (hub != nullptr) {
    hub->SetClock([&queue] { return queue.now(); });
    scheduler.AttachTelemetry(hub);
    const telemetry::LabelSet labels{{"policy", ToString(policy)}};
    busy_series =
        &hub->metrics().GetTimeSeries("lightwave_core_busy_cubes_series", labels);
    auto& metrics = hub->metrics();
    submitted_counter = &metrics.GetCounter("lightwave_core_jobs_submitted_total", labels);
    queued_counter = &metrics.GetCounter("lightwave_core_jobs_queued_total", labels);
    lost_counter = &metrics.GetCounter("lightwave_core_jobs_lost_total", labels);
    backlog_gauge = &metrics.GetGauge("lightwave_core_backlog_depth", labels);
    lost_capacity_gauge =
        &metrics.GetGauge("lightwave_core_lost_capacity_fraction", labels);
    acceptance_gauge = &metrics.GetGauge("lightwave_core_acceptance_rate", labels);
  }

  WorkloadResult result;
  // Jobs survive slice re-homing (repair changes the slice id), so track
  // both directions of the job <-> slice association.
  std::map<std::uint64_t, SliceId> job_to_slice;
  std::map<SliceId, std::uint64_t> slice_to_job;
  std::uint64_t next_job = 1;
  double busy_integral = 0.0;  // cube-hours
  double unhealthy_integral = 0.0;
  double last_t = 0.0;
  int unhealthy_cubes = 0;

  auto advance_integrals = [&] {
    const double now = queue.now();
    busy_integral += scheduler.BusyCubes() * (now - last_t);
    unhealthy_integral += unhealthy_cubes * (now - last_t);
    last_t = now;
  };

  // --- job lifecycle ----------------------------------------------------------
  struct PendingJob {
    SliceShape shape;
    double duration;
    double submitted_at;
  };
  std::deque<PendingJob> backlog;
  double wait_sum = 0.0;
  std::uint64_t wait_count = 0;

  // Starts a job now if capacity allows; schedules its completion.
  std::function<void()> drain_backlog;  // forward declaration for completions
  auto try_start = [&](const PendingJob& pending) {
    auto allocated = scheduler.Allocate(pending.shape);
    if (!allocated.ok()) return false;
    ++result.accepted;
    const double wait = queue.now() - pending.submitted_at;
    if (wait > 0.0) {
      ++result.started_from_queue;
      wait_sum += wait;
      ++wait_count;
      result.max_wait_hours = std::max(result.max_wait_hours, wait);
    }
    const std::uint64_t job = next_job++;
    job_to_slice[job] = allocated.value();
    slice_to_job[allocated.value()] = job;
    queue.After(pending.duration, [&, job] {
      advance_integrals();
      // The job may have been re-homed by a repair; look up the live id.
      auto it = job_to_slice.find(job);
      if (it != job_to_slice.end()) {
        (void)scheduler.Release(it->second);
        slice_to_job.erase(it->second);
        job_to_slice.erase(it);
      }
      drain_backlog();  // freed capacity: admit waiting jobs FIFO
    });
    return true;
  };
  drain_backlog = [&] {
    while (!backlog.empty() && try_start(backlog.front())) backlog.pop_front();
    if (backlog_gauge != nullptr) backlog_gauge->Set(static_cast<double>(backlog.size()));
  };

  std::function<void()> schedule_arrival = [&] {
    advance_integrals();
    ++result.submitted;
    if (submitted_counter != nullptr) submitted_counter->Inc();
    const int size = config.size_menu_cubes[static_cast<std::size_t>(
        rng.UniformInt(config.size_menu_cubes.size()))];
    const SliceShape shape = MostCompactShape(size);
    // Draw the duration regardless of acceptance so the RNG stream (and
    // hence the offered workload) is identical across policies.
    const double duration = rng.Exponential(1.0 / config.mean_duration_hours);
    const PendingJob pending{shape, duration, queue.now()};
    // FIFO fairness: a job may only jump the queue when nothing is waiting.
    const bool started = (backlog.empty() || !config.queue_jobs) && try_start(pending);
    if (!started && config.queue_jobs) {
      backlog.push_back(pending);
      if (queued_counter != nullptr) queued_counter->Inc();
      if (backlog_gauge != nullptr) {
        backlog_gauge->Set(static_cast<double>(backlog.size()));
      }
    }
    if (busy_series != nullptr) busy_series->Record(queue.now(), scheduler.BusyCubes());
    queue.After(rng.Exponential(config.arrival_rate_per_hour), schedule_arrival);
  };
  queue.After(rng.Exponential(config.arrival_rate_per_hour), schedule_arrival);

  // --- failures ---------------------------------------------------------------
  std::function<void()> schedule_failure = [&] {
    advance_integrals();
    const int cube_id = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(pod.cube_count())));
    if (pod.cube(cube_id).Healthy()) {
      pod.cube(cube_id).SetHostHealth(
          static_cast<int>(rng.UniformInt(tpu::kHostsPerCube)), false);
      ++unhealthy_cubes;
      queue.After(config.cube_repair_hours, [&, cube_id] {
        advance_integrals();
        pod.cube(cube_id).Restore();
        --unhealthy_cubes;
        drain_backlog();  // a cube came back: waiting jobs may now fit
      });
      // If a slice owned the cube, try to repair it (cube swap).
      auto owner = pod.SliceOwningCube(cube_id);
      if (owner.has_value() && slice_to_job.contains(*owner)) {
        const std::uint64_t job = slice_to_job.at(*owner);
        auto repaired = scheduler.RepairSlice(*owner);
        slice_to_job.erase(*owner);
        if (repaired.ok()) {
          ++result.repaired;
          job_to_slice[job] = repaired.value();
          slice_to_job[repaired.value()] = job;
        } else {
          ++result.lost_to_failure;
          if (lost_counter != nullptr) lost_counter->Inc();
          job_to_slice.erase(job);
          (void)pod.RemoveSlice(*owner);
          drain_backlog();  // the dead job's cubes freed up
        }
      }
    }
    queue.After(rng.Exponential(pod.cube_count() / config.cube_mtbf_hours),
                schedule_failure);
  };
  if (config.cube_mtbf_hours > 0.0) {
    queue.After(rng.Exponential(pod.cube_count() / config.cube_mtbf_hours),
                schedule_failure);
  }

  queue.Run(config.sim_hours);
  advance_integrals();
  // The hub outlives the local queue the clock captured; unbind it.
  if (hub != nullptr) hub->SetClock({});

  result.acceptance_rate =
      result.submitted > 0
          ? static_cast<double>(result.accepted) / static_cast<double>(result.submitted)
          : 0.0;
  const double available = pod.cube_count() * config.sim_hours - unhealthy_integral;
  result.utilization = available > 0.0 ? busy_integral / available : 0.0;
  result.mean_wait_hours = wait_count > 0 ? wait_sum / static_cast<double>(wait_count) : 0.0;
  result.left_in_queue = backlog.size();
  if (lost_capacity_gauge != nullptr) {
    const double offered = pod.cube_count() * config.sim_hours;
    lost_capacity_gauge->Set(offered > 0.0 ? unhealthy_integral / offered : 0.0);
  }
  if (acceptance_gauge != nullptr) acceptance_gauge->Set(result.acceptance_rate);
  return result;
}

}  // namespace lightwave::core
