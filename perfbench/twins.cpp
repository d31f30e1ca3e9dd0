#include "twins.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "common/check.h"
#include "common/rng.h"
#include "ctrl/wire.h"

namespace perfbench {

using svc::CommandKind;
using svc::SliceCommand;

tpu::SliceShape CompactShape(int cubes) {
  tpu::SliceShape best{1, 1, cubes};
  double best_score = 1e18;
  for (const auto& s : tpu::EnumerateCanonicalShapes(cubes)) {
    const double score =
        static_cast<double>(std::max({s.a, s.b, s.c})) / std::min({s.a, s.b, s.c});
    if (score < best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

FabricCounters& FabricCounters::operator+=(const FabricCounters& other) {
  allocations += other.allocations;
  accepted += other.accepted;
  installs += other.installs;
  ocs_touched += other.ocs_touched;
  reconfigures += other.reconfigures;
  ports_diffed += other.ports_diffed;
  ports_changed += other.ports_changed;
  return *this;
}

Twins::Twins(std::uint64_t pod_seed, PodGeometry geometry, SpanLog* spans)
    : spans_(spans),
      pod_a_(pod_seed, geometry.cubes, geometry.ocs_per_dim),
      scheduler_a_(pod_a_, core::AllocationPolicy::kReconfigurable) {
  if (spans_ != nullptr) {
    pod_b_ = std::make_unique<tpu::Superpod>(pod_seed, geometry.cubes, geometry.ocs_per_dim);
    pod_c_ = std::make_unique<tpu::Superpod>(pod_seed, geometry.cubes, geometry.ocs_per_dim);
  }
}

common::Result<tpu::SliceId> Twins::Allocate(const tpu::SliceShape& shape,
                                              std::uint64_t window) {
  if (spans_ != nullptr) {
    // The reconfigurable policy's cube pick is the free-cube scan; timed
    // here as its own call, ahead of the Allocate that repeats it.
    ScopedSpan span(spans_, "core.pick", window);
    const std::vector<int> free = pod_a_.FreeHealthyCubes();
    (void)free;
  }
  ++counters_.allocations;
  common::Result<tpu::SliceId> allocated = [&] {
    ScopedSpan span(spans_, "core.allocate", window);
    return scheduler_a_.Allocate(shape);
  }();
  if (!allocated.ok()) return allocated;
  ++counters_.accepted;
  if (spans_ != nullptr) {
    const tpu::InstalledSlice& slice = pod_a_.slices().at(allocated.value());
    {
      ScopedSpan span(spans_, "tpu.install", window);
      LW_CHECK_OK(pod_b_->InstallSliceWithId(allocated.value(), slice.topology))
          << "twin B install";
    }
    ++counters_.installs;
    counters_.ocs_touched += slice.connections.size();
    ReconfigureTwinC(slice.connections, /*add=*/true, window);
  }
  return allocated;
}

void Twins::Release(tpu::SliceId id, std::uint64_t window) {
  std::map<int, std::map<int, int>> connections;
  if (spans_ != nullptr) connections = pod_a_.slices().at(id).connections;
  {
    ScopedSpan span(spans_, "core.release", window);
    LW_CHECK_OK(scheduler_a_.Release(id)) << "twin A release";
  }
  if (spans_ != nullptr) {
    {
      ScopedSpan span(spans_, "tpu.remove", window);
      LW_CHECK_OK(pod_b_->RemoveSlice(id)) << "twin B remove";
    }
    ReconfigureTwinC(connections, /*add=*/false, window);
  }
}

void Twins::ReconfigureTwinC(const std::map<int, std::map<int, int>>& connections, bool add,
                             std::uint64_t window) {
  for (const auto& [ocs_id, conns] : connections) {
    ocs::PalomarSwitch& sw = pod_c_->ocs(ocs_id);
    std::map<int, int> target = sw.CurrentMapping();
    // Every port of the larger of the two configurations is compared.
    const std::size_t before = target.size();
    for (const auto& [north, south] : conns) {
      if (add) {
        target[north] = south;
      } else if (auto it = target.find(north); it != target.end() && it->second == south) {
        target.erase(it);
      }
    }
    const std::size_t diffed = std::max(before, target.size());
    auto report = [&] {
      ScopedSpan span(spans_, "ocs.reconfigure", window);
      return sw.Reconfigure(target);
    }();
    LW_CHECK_OK(report) << "twin C reconfigure of ocs " << ocs_id;
    ++counters_.reconfigures;
    counters_.ports_diffed += diffed;
    counters_.ports_changed += report.value().established.size() + report.value().removed.size();
  }
}

Twins::Outcome Twins::Apply(const SliceCommand& cmd, std::uint64_t window) {
  // Mirrors FleetService::ApplyCommand for the single-shard verbs.
  const std::pair<std::uint32_t, std::uint64_t> key{cmd.tenant_id, cmd.job_id};
  switch (cmd.kind) {
    case CommandKind::kAdmit: {
      if (live_.contains(key)) return Outcome::kRejected;
      auto allocated = Allocate(cmd.shape, window);
      if (!allocated.ok()) return Outcome::kRejected;
      live_[key] = allocated.value();
      return Outcome::kAdmitted;
    }
    case CommandKind::kRelease: {
      auto it = live_.find(key);
      if (it == live_.end()) return Outcome::kRejected;
      Release(it->second, window);
      live_.erase(it);
      return Outcome::kReleased;
    }
    case CommandKind::kResize: {
      auto it = live_.find(key);
      if (it == live_.end()) return Outcome::kRejected;
      auto allocated = Allocate(cmd.shape, window);
      if (!allocated.ok()) return Outcome::kRejected;
      Release(it->second, window);
      it->second = allocated.value();
      return Outcome::kResized;
    }
    default: break;
  }
  LW_CHECK(false) << "the benchmark trace carries no " << svc::ToString(cmd.kind);
  return Outcome::kRejected;
}

std::vector<std::uint8_t> SchedulerBytes(const core::SliceScheduler& scheduler) {
  ctrl::WireWriter writer;
  scheduler.ExportState(writer);
  return writer.Take();
}

std::vector<std::uint8_t> SwitchBytes(const tpu::Superpod& pod) {
  ctrl::WireWriter writer;
  for (int i = 0; i < pod.ocs_count(); ++i) {
    const auto connections = pod.ocs(i).Connections();
    writer.PutVarint(connections.size());
    for (const ocs::Connection& conn : connections) {
      writer.PutVarint(static_cast<std::uint64_t>(conn.north));
      writer.PutVarint(static_cast<std::uint64_t>(conn.south));
      writer.PutDouble(conn.insertion_loss.value());
      writer.PutDouble(conn.return_loss.value());
    }
  }
  return writer.Take();
}

std::vector<std::uint8_t> SliceBytes(const tpu::Superpod& pod) {
  ctrl::WireWriter writer;
  writer.PutVarint(pod.slices().size());
  for (const auto& [id, slice] : pod.slices()) {
    writer.PutU64(id);
    for (int cube : slice.topology.cube_ids()) writer.PutVarint(static_cast<std::uint64_t>(cube));
    for (const auto& [ocs_id, conns] : slice.connections) {
      writer.PutVarint(static_cast<std::uint64_t>(ocs_id));
      for (const auto& [north, south] : conns) {
        writer.PutVarint(static_cast<std::uint64_t>(north));
        writer.PutVarint(static_cast<std::uint64_t>(south));
      }
    }
  }
  writer.PutU64(pod.next_slice_id());
  return writer.Take();
}

namespace {

/// Command/job id mints per tenant plus the outcome tally.
class TraceBuilder {
 public:
  TraceBuilder(Twins& twins, Trace& trace) : twins_(twins), trace_(trace) {}

  Twins::Outcome Issue(std::uint32_t tenant, CommandKind kind, std::uint64_t job,
                       tpu::SliceShape shape, std::vector<SliceCommand>& window,
                       std::uint64_t window_id) {
    SliceCommand cmd;
    cmd.tenant_id = tenant;
    cmd.command_id = ++command_ids_[tenant];
    cmd.kind = kind;
    cmd.job_id = job;
    if (kind != CommandKind::kRelease) cmd.shape = shape;
    const Twins::Outcome outcome = twins_.Apply(cmd, window_id);
    switch (outcome) {
      case Twins::Outcome::kAdmitted: ++trace_.admitted; break;
      case Twins::Outcome::kResized: ++trace_.resized; break;
      case Twins::Outcome::kReleased: ++trace_.released; break;
      case Twins::Outcome::kRejected: break;
    }
    ++trace_.commands;
    window.push_back(cmd);
    return outcome;
  }

  std::uint64_t NewJob(std::uint32_t tenant) { return ++job_ids_[tenant]; }

 private:
  Twins& twins_;
  Trace& trace_;
  std::map<std::uint32_t, std::uint64_t> command_ids_;
  std::map<std::uint32_t, std::uint64_t> job_ids_;
};

// Churn: one client's jobs at 80% offered load (busy cubes / pod cubes),
// sizes from SimulateWorkload's menu; a quarter of admitted jobs is resized
// once while running.
constexpr int kChurnMenu[] = {1, 1, 2, 2, 4, 4, 8, 16};
constexpr double kChurnLoad = 0.8;
constexpr double kChurnResizeProb = 0.25;
// Flood: 64 Zipf(1.0) tenants; every 4th window is a maintenance window in
// which one tenant releases up to 4 jobs and refills the pod; flood windows
// resize a live job 15% of the time, else ask for a new one.
constexpr int kFloodMenu[] = {1, 2, 4, 8};
constexpr int kFloodMaxSize = kFloodMenu[std::size(kFloodMenu) - 1];
constexpr std::uint32_t kFloodTenants = 64;
constexpr double kFloodZipfSkew = 1.0;
constexpr std::size_t kFloodMaintenanceEvery = 4;
constexpr std::size_t kFloodMaxReleases = 4;
constexpr double kFloodResizeProb = 0.15;

/// One tenant's Poisson job process: arrivals at rate `load * cubes /
/// mean size` per unit holding time and exponential holding times.
void GenerateChurn(const TraceConfig& config, common::Rng& rng, Twins& twins, Trace& trace,
                   std::uint64_t first_window_id) {
  constexpr std::uint32_t kTenant = 1;
  double mean_cubes = 0.0;
  for (int size : kChurnMenu) mean_cubes += size;
  mean_cubes /= std::size(kChurnMenu);
  const double arrival_rate = kChurnLoad * config.geometry.cubes / mean_cubes;

  enum EventKind { kArrival, kDeparture, kResize };
  struct Event {
    double time;
    std::uint64_t seq;
    EventKind kind;
    std::uint64_t job;
    bool operator>(const Event& other) const {
      return time > other.time || (time == other.time && seq > other.seq);
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  events.push({rng.Exponential(arrival_rate), seq++, kArrival, 0});
  auto draw_shape = [&] {
    return CompactShape(kChurnMenu[rng.UniformInt(std::size(kChurnMenu))]);
  };

  TraceBuilder builder(twins, trace);
  for (std::size_t w = 0; w < config.windows; ++w) {
    std::vector<SliceCommand> window;
    const std::uint64_t window_id = first_window_id + w;
    while (window.size() < kWindowCommands) {
      const Event event = events.top();
      events.pop();
      switch (event.kind) {
        case kArrival: {
          const std::uint64_t job = builder.NewJob(kTenant);
          const auto outcome = builder.Issue(kTenant, CommandKind::kAdmit, job, draw_shape(),
                                             window, window_id);
          if (outcome == Twins::Outcome::kAdmitted) {
            const double hold = rng.Exponential(1.0);
            events.push({event.time + hold, seq++, kDeparture, job});
            if (rng.Bernoulli(kChurnResizeProb)) {
              events.push({event.time + rng.NextDouble() * hold, seq++, kResize, job});
            }
          }
          events.push({event.time + rng.Exponential(arrival_rate), seq++, kArrival, 0});
          break;
        }
        case kDeparture:
          builder.Issue(kTenant, CommandKind::kRelease, event.job, {}, window, window_id);
          break;
        case kResize:
          builder.Issue(kTenant, CommandKind::kResize, event.job, draw_shape(), window,
                        window_id);
          break;
      }
    }
    trace.windows.push_back(std::move(window));
  }
}

/// Zipf-skewed tenants asking a full pod for more. Flood windows mix
/// tenants but hold only admits and resizes against a pod with no free
/// cube, so every command is rejected in any order. A maintenance window
/// belongs to the tenant owning the oldest live job: it releases a few of
/// its jobs and refills the pod exactly.
void GenerateFlood(const TraceConfig& config, common::Rng& rng, Twins& twins, Trace& trace,
                   std::uint64_t first_window_id) {
  std::vector<double> cdf;
  double mass = 0.0;
  for (std::uint32_t t = 0; t < kFloodTenants; ++t) {
    mass += 1.0 / std::pow(static_cast<double>(t + 1), kFloodZipfSkew);
    cdf.push_back(mass);
  }
  for (double& c : cdf) c /= mass;
  auto draw_tenant = [&] {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble());
    return static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
               it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1)) +
           1;
  };
  auto draw_size = [&](int at_most) {
    int fits = 0;
    for (int size : kFloodMenu) fits += size <= at_most ? 1 : 0;
    return kFloodMenu[rng.UniformInt(static_cast<std::uint64_t>(fits))];
  };

  TraceBuilder builder(twins, trace);
  std::deque<std::pair<std::uint32_t, std::uint64_t>> admitted_order;
  for (std::size_t w = 0; w < config.windows; ++w) {
    std::vector<SliceCommand> window;
    const std::uint64_t window_id = first_window_id + w;
    if (w % kFloodMaintenanceEvery == 0) {
      while (!admitted_order.empty() &&
             !twins.Live(admitted_order.front().first, admitted_order.front().second)) {
        admitted_order.pop_front();
      }
      const std::uint32_t tenant =
          admitted_order.empty() ? draw_tenant() : admitted_order.front().first;
      std::size_t releases = 0;
      for (const auto& [owner, job] : admitted_order) {
        if (releases == kFloodMaxReleases) break;
        if (owner != tenant || !twins.Live(owner, job)) continue;
        builder.Issue(tenant, CommandKind::kRelease, job, {}, window, window_id);
        ++releases;
      }
      while (window.size() < kWindowCommands) {
        const int free = twins.FreeCubes();
        const std::uint64_t job = builder.NewJob(tenant);
        const auto outcome =
            builder.Issue(tenant, CommandKind::kAdmit, job,
                          CompactShape(draw_size(free > 0 ? free : kFloodMaxSize)), window, window_id);
        if (outcome == Twins::Outcome::kAdmitted) admitted_order.emplace_back(tenant, job);
      }
    } else {
      bool all_rejected = true;
      while (window.size() < kWindowCommands) {
        const std::uint32_t tenant = draw_tenant();
        const auto live = twins.live().lower_bound({tenant, 0});
        const bool has_job = live != twins.live().end() && live->first.first == tenant;
        const bool resize = has_job && rng.Bernoulli(kFloodResizeProb);
        const std::uint64_t job = resize ? live->first.second : builder.NewJob(tenant);
        const auto outcome =
            builder.Issue(tenant, resize ? CommandKind::kResize : CommandKind::kAdmit, job,
                          CompactShape(draw_size(kFloodMaxSize)),
                          window, window_id);
        all_rejected = all_rejected && outcome == Twins::Outcome::kRejected;
      }
      if (!all_rejected) ++trace.order_dependent_windows;
    }
    trace.windows.push_back(std::move(window));
  }
}

}  // namespace

Trace GenerateTrace(const TraceConfig& config, std::uint64_t seed, Twins& twins,
                    std::uint64_t first_window_id) {
  Trace trace;
  trace.pod_seed = seed;
  common::Rng rng(seed);
  if (config.kind == TraceKind::kChurn) {
    GenerateChurn(config, rng, twins, trace, first_window_id);
  } else {
    GenerateFlood(config, rng, twins, trace, first_window_id);
  }
  trace.expected_scheduler = SchedulerBytes(twins.scheduler());
  trace.expected_switches = SwitchBytes(twins.pod_a());
  trace.expected_slices = SliceBytes(twins.pod_a());
  return trace;
}

}  // namespace perfbench
