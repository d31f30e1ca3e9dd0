// Unit tests for the core control plane: the slice scheduler (both
// policies, repair, workload simulation), the DCN topology engineer (trunk
// allocation, matching decomposition, incremental reconfiguration), the TCO
// models, and the FabricManager facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "core/fabric_manager.h"
#include "core/scheduler.h"
#include "core/tco.h"
#include "core/topology_engineer.h"
#include "ctrl/wire.h"
#include "optics/transceiver.h"
#include "phy/ber_model.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"

namespace lightwave::core {
namespace {

using tpu::SliceShape;

// --- scheduler -------------------------------------------------------------------

/// Every switch's reconfiguration count, in OCS order.
std::vector<std::uint64_t> Reconfigurations(const tpu::Superpod& pod) {
  std::vector<std::uint64_t> counts;
  for (int i = 0; i < pod.ocs_count(); ++i) {
    counts.push_back(pod.ocs(i).telemetry().reconfigurations);
  }
  return counts;
}

TEST(Scheduler, ReconfigurablePlacesNonContiguous) {
  tpu::Superpod pod(1, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  // Occupy cubes 0..3 then free 0 and 1 -> fragmented free set {0,1,4..7}.
  auto a = scheduler.Allocate(SliceShape{1, 1, 2});
  auto b = scheduler.Allocate(SliceShape{1, 1, 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(scheduler.Release(a.value()).ok());
  // 6 free cubes, fragmented; a 6-cube slice must still fit.
  auto c = scheduler.Allocate(SliceShape{1, 2, 3});
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(scheduler.BusyCubes(), 8);

  // The pod is full: a single cube rejects with the usual message, counts
  // as a rejection and touches no switch.
  const auto reconfigurations = Reconfigurations(pod);
  const std::uint64_t rejected = scheduler.stats().rejected;
  auto full = scheduler.Allocate(SliceShape{1, 1, 1});
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, common::Error::Code::kResourceExhausted);
  EXPECT_EQ(full.error().message, "no placement for shape 1x1x1 under reconfigurable policy");
  EXPECT_EQ(scheduler.stats().rejected, rejected + 1);
  EXPECT_EQ(Reconfigurations(pod), reconfigurations);
}

TEST(Scheduler, RejectsShapeDimensionOutsidePod) {
  // A dimension below 1 or above the pod's cube count rejects before the
  // cube count is computed: 65536 x 65536 overflows int to 0 cubes.
  for (const auto policy : {AllocationPolicy::kReconfigurable, AllocationPolicy::kContiguous}) {
    tpu::Superpod pod(4, 8, 2);
    SliceScheduler scheduler(pod, policy);
    const auto reconfigurations = Reconfigurations(pod);
    const std::vector<SliceShape> bad = {
        SliceShape{65536, 65536, 1}, SliceShape{0, 1, 1}, SliceShape{-1, -1, 1},
        SliceShape{1, 1, 9}};
    for (const SliceShape& shape : bad) {
      auto rejected = scheduler.Allocate(shape);
      ASSERT_FALSE(rejected.ok()) << shape.ToCubeString();
      EXPECT_EQ(rejected.error().code, common::Error::Code::kInvalidArgument)
          << ToString(policy) << " " << shape.ToCubeString();
    }
    EXPECT_EQ(scheduler.stats().requests, bad.size());
    EXPECT_EQ(scheduler.stats().rejected, bad.size());
    EXPECT_EQ(scheduler.BusyCubes(), 0);
    EXPECT_EQ(Reconfigurations(pod), reconfigurations);
    // The scheduler still places a valid shape afterwards.
    EXPECT_TRUE(scheduler.Allocate(SliceShape{2, 2, 2}).ok()) << ToString(policy);
  }
}

/// A one-slice scheduler state laid out as ExportState writes it (zero
/// stats, slice id 1, next id 2), with the entry's fields as given.
std::vector<std::uint8_t> OneSliceState(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                                        std::uint64_t cube_count,
                                        const std::vector<std::uint64_t>& cubes) {
  ctrl::WireWriter writer;
  for (int stat = 0; stat < 4; ++stat) writer.PutVarint(0);
  writer.PutVarint(1);
  writer.PutU64(1);
  for (const std::uint64_t field : {a, b, c, cube_count}) writer.PutVarint(field);
  for (const std::uint64_t cube : cubes) writer.PutVarint(cube);
  writer.PutU64(2);
  return writer.Take();
}

TEST(Scheduler, ImportStateRejectsEntriesBeyondThePod) {
  // Snapshot bytes are outside input. A cube count, dimension or cube id
  // above the pod fails as kInternal before the reserve and the int casts,
  // which would otherwise throw bad_alloc (2^40 cubes) or length_error
  // (2^62), or read a = 2^32+1 as 1 and cube 2^32+3 as cube 3.
  const std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> malformed = {
      {"2^40 cubes", OneSliceState(1, 1, 1, std::uint64_t{1} << 40, {})},
      {"2^62 cubes", OneSliceState(1, 1, 1, std::uint64_t{1} << 62, {})},
      {"a = 2^32+1", OneSliceState(kTwo32 + 1, 1, 1, 1, {0})},
      {"c = 2^32+2", OneSliceState(1, 1, kTwo32 + 2, 2, {0, 1})},
      {"cube 2^32+3", OneSliceState(1, 1, 1, 1, {kTwo32 + 3})},
  };
  for (const auto& [name, bytes] : malformed) {
    tpu::Superpod pod(5, 8, 2);
    SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
    ctrl::WireReader reader(bytes);
    const common::Status imported = scheduler.ImportState(reader);
    ASSERT_FALSE(imported.ok()) << name;
    EXPECT_EQ(imported.error().code, common::Error::Code::kInternal) << name;
    EXPECT_TRUE(pod.slices().empty()) << name;
    EXPECT_EQ(Reconfigurations(pod),
              std::vector<std::uint64_t>(static_cast<std::size_t>(pod.ocs_count()), 0))
        << name;
  }
  // The same layout with in-range fields imports and exports unchanged.
  const std::vector<std::uint8_t> valid = OneSliceState(1, 1, 2, 2, {3, 7});
  tpu::Superpod pod(5, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  ctrl::WireReader reader(valid);
  ASSERT_TRUE(scheduler.ImportState(reader).ok());
  EXPECT_EQ(scheduler.BusyCubes(), 2);
  ctrl::WireWriter writer;
  scheduler.ExportState(writer);
  EXPECT_EQ(writer.buffer(), valid);
}

std::vector<std::uint8_t> ExportOf(const SliceScheduler& scheduler) {
  ctrl::WireWriter writer;
  scheduler.ExportState(writer);
  return writer.Take();
}

/// Circuits programmed on the pod's switches.
int Circuits(const tpu::Superpod& pod) {
  int count = 0;
  for (int i = 0; i < pod.ocs_count(); ++i) count += pod.ocs(i).ConnectionCount();
  return count;
}

TEST(Scheduler, FailedImportLeavesThePodUntouched) {
  // ImportState decodes the whole state before it installs a slice, so an
  // export cut at any length fails with no slice, no circuit and no stats
  // change on the pod it was imported into.
  std::vector<std::uint8_t> exported;
  {
    tpu::Superpod pod(6, 8, 2);
    SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
    for (int slice = 0; slice < 3; ++slice) {
      ASSERT_TRUE(scheduler.Allocate(SliceShape{1, 1, 2}).ok());
    }
    exported = ExportOf(scheduler);
  }
  for (std::size_t len = 0; len < exported.size(); ++len) {
    const std::vector<std::uint8_t> cut(exported.begin(),
                                        exported.begin() + static_cast<long>(len));
    tpu::Superpod pod(6, 8, 2);
    SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
    const std::vector<std::uint8_t> untouched = ExportOf(scheduler);
    ctrl::WireReader reader(cut);
    const common::Status imported = scheduler.ImportState(reader);
    ASSERT_FALSE(imported.ok()) << len;
    EXPECT_EQ(imported.error().code, common::Error::Code::kInternal) << len;
    EXPECT_TRUE(pod.slices().empty()) << len;
    EXPECT_EQ(Circuits(pod), 0) << len;
    EXPECT_EQ(ExportOf(scheduler), untouched) << len;
  }
  // Whole, the same bytes install all three slices.
  tpu::Superpod pod(6, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  ctrl::WireReader reader(exported);
  ASSERT_TRUE(scheduler.ImportState(reader).ok());
  EXPECT_EQ(pod.slices().size(), 3u);
  EXPECT_GT(Circuits(pod), 0);
  EXPECT_EQ(ExportOf(scheduler), exported);
}

/// A scheduler state laid out as ExportState writes it (three requests,
/// all accepted; next id 9), holding one 1x1xN slice per (id, cubes) entry.
std::vector<std::uint8_t> SlicesState(
    const std::vector<std::pair<std::uint64_t, std::vector<int>>>& slices) {
  ctrl::WireWriter writer;
  for (const std::uint64_t stat : {3, 3, 0, 0}) writer.PutVarint(stat);
  writer.PutVarint(slices.size());
  for (const auto& [id, cubes] : slices) {
    writer.PutU64(id);
    writer.PutInt(1);
    writer.PutInt(1);
    writer.PutInt(static_cast<int>(cubes.size()));
    writer.PutVarint(cubes.size());
    for (const int cube : cubes) writer.PutInt(cube);
  }
  writer.PutU64(9);
  return writer.Take();
}

TEST(Scheduler, ImportValidatesTheWholeSliceSet) {
  // Each state decodes whole and its first slice fits the pod on its own;
  // the set does not. ImportState validates the set before it stages any
  // install, so the pod keeps no slice and no circuit and the scheduler
  // its stats.
  struct Case {
    const char* name;
    std::vector<std::pair<std::uint64_t, std::vector<int>>> slices;
    int unhealthy_cube;
    int down_ocs;
  };
  const Case cases[] = {
      {"shared cube", {{1, {0, 1}}, {2, {1, 2}}}, -1, -1},
      {"unhealthy cube", {{1, {0, 1}}, {2, {2, 3}}}, 3, -1},
      {"down ocs", {{1, {0, 1}}, {2, {2, 3}}}, -1, 4},
      {"repeated id", {{1, {0, 1}}, {1, {2, 3}}}, -1, -1},
  };
  for (const Case& c : cases) {
    tpu::Superpod pod(7, 8, 2);
    if (c.unhealthy_cube >= 0) pod.cube(c.unhealthy_cube).SetHostHealth(0, false);
    if (c.down_ocs >= 0) pod.FailOcs(c.down_ocs);
    SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
    const std::vector<std::uint8_t> untouched = ExportOf(scheduler);
    const std::vector<std::uint8_t> state = SlicesState(c.slices);
    ctrl::WireReader reader(state);
    EXPECT_FALSE(scheduler.ImportState(reader).ok()) << c.name;
    EXPECT_TRUE(pod.slices().empty()) << c.name;
    EXPECT_EQ(Circuits(pod), 0) << c.name;
    EXPECT_EQ(ExportOf(scheduler), untouched) << c.name;
  }
  // Two slices on disjoint cubes of a healthy pod import whole.
  tpu::Superpod pod(7, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  const std::vector<std::uint8_t> state = SlicesState({{1, {0, 1}}, {2, {2, 3}}});
  ctrl::WireReader reader(state);
  ASSERT_TRUE(scheduler.ImportState(reader).ok());
  EXPECT_EQ(pod.slices().size(), 2u);
  EXPECT_EQ(Circuits(pod), 4 * pod.ocs_count());
  EXPECT_EQ(ExportOf(scheduler), state);
}

TEST(Scheduler, ContiguousRequiresAlignedBox) {
  tpu::Superpod pod(2);  // 64 cubes = 4x4x4 grid
  SliceScheduler scheduler(pod, AllocationPolicy::kContiguous);
  // 2x2x2 fits.
  EXPECT_TRUE(scheduler.Allocate(SliceShape{2, 2, 2}).ok());
  // 1x1x64 cannot fit in a 4x4x4 grid.
  EXPECT_FALSE(scheduler.Allocate(SliceShape{1, 1, 64}).ok());
}

TEST(Scheduler, ContiguousSuffersFragmentation) {
  tpu::Superpod pod_contig(3, 8, 2);
  tpu::Superpod pod_reconf(3, 8, 2);
  SliceScheduler contiguous(pod_contig, AllocationPolicy::kContiguous);
  SliceScheduler reconfigurable(pod_reconf, AllocationPolicy::kReconfigurable);
  // 8 cubes on a 2x2x2 grid. Occupy two diagonal cubes via 1-cube slices,
  // then ask for a 1x1x2 pair... the contiguous policy needs an adjacent
  // aligned pair; fragmentation created by single-cube jobs blocks larger
  // requests earlier than the reconfigurable policy.
  // Fill all 8 with singles, free a diagonal pair (0 and 7: never adjacent).
  std::vector<tpu::SliceId> singles;
  for (int i = 0; i < 8; ++i) {
    auto id = contiguous.Allocate(SliceShape{1, 1, 1});
    ASSERT_TRUE(id.ok());
    singles.push_back(id.value());
  }
  ASSERT_TRUE(contiguous.Release(singles[0]).ok());
  ASSERT_TRUE(contiguous.Release(singles[7]).ok());
  EXPECT_FALSE(contiguous.Allocate(SliceShape{1, 1, 2}).ok());

  // The reconfigurable fabric composes the same fragmented pair happily.
  std::vector<tpu::SliceId> singles2;
  for (int i = 0; i < 8; ++i) {
    auto id = reconfigurable.Allocate(SliceShape{1, 1, 1});
    ASSERT_TRUE(id.ok());
    singles2.push_back(id.value());
  }
  ASSERT_TRUE(reconfigurable.Release(singles2[0]).ok());
  ASSERT_TRUE(reconfigurable.Release(singles2[7]).ok());
  EXPECT_TRUE(reconfigurable.Allocate(SliceShape{1, 1, 2}).ok());
}

TEST(Scheduler, RepairSwapsDeadCube) {
  tpu::Superpod pod(4, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  auto id = scheduler.Allocate(SliceShape{1, 2, 2});
  ASSERT_TRUE(id.ok());
  const auto& cubes = pod.slices().at(id.value()).topology.cube_ids();
  const int victim = cubes[1];
  pod.cube(victim).SetHostHealth(0, false);
  auto repaired = scheduler.RepairSlice(id.value());
  ASSERT_TRUE(repaired.ok());
  // New slice has the same shape, excludes the victim, uses a spare.
  const auto& new_slice = pod.slices().at(repaired.value());
  EXPECT_EQ(new_slice.topology.shape(), (SliceShape{1, 2, 2}));
  for (int c : new_slice.topology.cube_ids()) EXPECT_NE(c, victim);
  EXPECT_EQ(scheduler.stats().repairs, 1u);
}

TEST(Scheduler, RepairFailsWithoutSpares) {
  tpu::Superpod pod(5, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
  auto id = scheduler.Allocate(SliceShape{2, 2, 2});  // uses all 8 cubes
  ASSERT_TRUE(id.ok());
  pod.cube(0).SetHostHealth(0, false);
  EXPECT_FALSE(scheduler.RepairSlice(id.value()).ok());
}

/// Every switch's circuits with both losses, in OCS order.
std::vector<std::vector<ocs::Connection>> SwitchCircuits(const tpu::Superpod& pod) {
  std::vector<std::vector<ocs::Connection>> circuits;
  for (int i = 0; i < pod.ocs_count(); ++i) circuits.push_back(pod.ocs(i).Connections());
  return circuits;
}

TEST(Scheduler, FailedRepairLeavesTheSliceRunning) {
  // A 1x1x2 slice on cubes {0, 1} loses a host of cube 1, and the repair's
  // replacement {0, 2} cannot install: an OCS is down, or the spare cube 2
  // has a dead port. The repair checks the replacement before it removes
  // anything, so it fails with the slice, its cube owners and every circuit
  // (both losses included) as they were.
  struct Case {
    const char* name;
    std::function<void(tpu::Superpod&)> break_fabric;
    const char* error;
  };
  const Case cases[] = {
      {"down ocs", [](tpu::Superpod& pod) { pod.FailOcs(3); }, "ocs 3 is down"},
      {"dead spare port",
       [](tpu::Superpod& pod) { pod.ocs(0).TestOnlyKillPortUnderConnection(true, 2); },
       "ocs 0: target references dead port"},
  };
  for (const Case& c : cases) {
    tpu::Superpod pod(8, 8, 2);
    SliceScheduler scheduler(pod, AllocationPolicy::kReconfigurable);
    auto id = scheduler.Allocate(SliceShape{1, 1, 2});
    ASSERT_TRUE(id.ok()) << c.name;
    ASSERT_EQ(pod.slices().at(id.value()).topology.cube_ids(), (std::vector<int>{0, 1}));
    pod.cube(1).SetHostHealth(0, false);
    c.break_fabric(pod);
    const auto circuits = SwitchCircuits(pod);
    auto repaired = scheduler.RepairSlice(id.value());
    ASSERT_FALSE(repaired.ok()) << c.name;
    EXPECT_EQ(repaired.error().message, c.error) << c.name;
    EXPECT_EQ(pod.slices().size(), 1u) << c.name;
    EXPECT_TRUE(pod.slices().contains(id.value()) &&
                pod.slices().at(id.value()).topology.cube_ids() == (std::vector<int>{0, 1}))
        << c.name;
    for (int cube = 0; cube < pod.cube_count(); ++cube) {
      EXPECT_EQ(pod.SliceOwningCube(cube),
                cube < 2 ? std::optional<tpu::SliceId>(id.value()) : std::nullopt)
          << c.name << " cube " << cube;
    }
    EXPECT_EQ(SwitchCircuits(pod), circuits) << c.name;
    EXPECT_EQ(scheduler.BusyCubes(), 2) << c.name;
    EXPECT_EQ(scheduler.stats().repairs, 0u) << c.name;
  }
}

TEST(Scheduler, StaticPolicyCannotRepair) {
  tpu::Superpod pod(6, 8, 2);
  SliceScheduler scheduler(pod, AllocationPolicy::kContiguous);
  auto id = scheduler.Allocate(SliceShape{1, 1, 2});
  ASSERT_TRUE(id.ok());
  pod.cube(pod.slices().at(id.value()).topology.cube_ids()[0]).SetHostHealth(0, false);
  EXPECT_FALSE(scheduler.RepairSlice(id.value()).ok());
}

TEST(Scheduler, WorkloadSimReconfigurableBeatsContiguous) {
  // The §4.2.4 ablation: same workload, higher acceptance and utilization
  // for the reconfigurable policy.
  WorkloadConfig config;
  config.sim_hours = 1500.0;
  config.arrival_rate_per_hour = 1.4;  // ~80% offered cube load
  config.mean_duration_hours = 8.0;
  tpu::Superpod pod_a(7);
  tpu::Superpod pod_b(7);
  const auto reconf = SimulateWorkload(pod_a, AllocationPolicy::kReconfigurable, config);
  const auto contig = SimulateWorkload(pod_b, AllocationPolicy::kContiguous, config);
  EXPECT_GT(reconf.acceptance_rate, contig.acceptance_rate);
  EXPECT_GT(reconf.utilization, contig.utilization);
  EXPECT_GT(reconf.submitted, 100u);
}

TEST(Scheduler, QueuedWorkloadRunsEverythingEventually) {
  WorkloadConfig config;
  config.sim_hours = 800.0;
  config.arrival_rate_per_hour = 1.2;
  config.mean_duration_hours = 8.0;
  config.queue_jobs = true;
  tpu::Superpod pod(21);
  const auto result = SimulateWorkload(pod, AllocationPolicy::kReconfigurable, config);
  // With queueing, essentially every submitted job runs (a small tail may
  // still be queued or running at the horizon).
  EXPECT_GE(result.accepted + result.left_in_queue + 8, result.submitted);
  EXPECT_GT(result.started_from_queue, 0u);
  EXPECT_GT(result.mean_wait_hours, 0.0);
  EXPECT_GE(result.max_wait_hours, result.mean_wait_hours);
}

TEST(Scheduler, QueuedReconfigurableWaitsLessThanContiguous) {
  WorkloadConfig config;
  config.sim_hours = 1500.0;
  config.arrival_rate_per_hour = 1.4;
  config.mean_duration_hours = 8.0;
  config.queue_jobs = true;
  tpu::Superpod pod_a(22);
  tpu::Superpod pod_b(22);
  const auto reconf = SimulateWorkload(pod_a, AllocationPolicy::kReconfigurable, config);
  const auto contig = SimulateWorkload(pod_b, AllocationPolicy::kContiguous, config);
  EXPECT_LT(reconf.mean_wait_hours, contig.mean_wait_hours);
  EXPECT_GE(reconf.utilization, contig.utilization);
}

TEST(Scheduler, WorkloadSimExportsAdmissionView) {
  // The admission-control view — jobs submitted/queued/lost, backlog depth,
  // lost-capacity fraction, acceptance rate — must land on an attached hub
  // so the Prometheus exporter can serve it.
  WorkloadConfig config;
  config.sim_hours = 400.0;
  config.arrival_rate_per_hour = 1.6;  // overloaded: backlog and losses exist
  config.mean_duration_hours = 8.0;
  config.queue_jobs = true;
  config.cube_mtbf_hours = 2000.0;
  telemetry::Hub hub;
  config.hub = &hub;
  tpu::Superpod pod(23);
  const auto result = SimulateWorkload(pod, AllocationPolicy::kReconfigurable, config);

  const telemetry::LabelSet labels{{"policy", "reconfigurable"}};
  auto& metrics = hub.metrics();
  EXPECT_EQ(metrics.GetCounter("lightwave_core_jobs_submitted_total", labels).value(),
            result.submitted);
  EXPECT_GT(metrics.GetCounter("lightwave_core_jobs_queued_total", labels).value(), 0u);
  EXPECT_EQ(metrics.GetCounter("lightwave_core_jobs_lost_total", labels).value(),
            result.lost_to_failure);
  EXPECT_EQ(metrics.GetGauge("lightwave_core_backlog_depth", labels).value(),
            static_cast<double>(result.left_in_queue));
  EXPECT_NEAR(metrics.GetGauge("lightwave_core_acceptance_rate", labels).value(),
              result.acceptance_rate, 1e-12);
  const double lost_capacity =
      metrics.GetGauge("lightwave_core_lost_capacity_fraction", labels).value();
  EXPECT_GE(lost_capacity, 0.0);
  EXPECT_LT(lost_capacity, 1.0);
  // And the whole view survives the exporter's text rendering.
  const std::string page = telemetry::ToPrometheus(metrics);
  EXPECT_NE(page.find("lightwave_core_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(page.find("lightwave_core_lost_capacity_fraction"), std::string::npos);
}

TEST(Scheduler, WorkloadSimRepairsUnderFailures) {
  WorkloadConfig config;
  config.sim_hours = 300.0;
  config.arrival_rate_per_hour = 3.0;
  config.cube_mtbf_hours = 3000.0;
  tpu::Superpod pod(8);
  const auto result = SimulateWorkload(pod, AllocationPolicy::kReconfigurable, config);
  EXPECT_GT(result.repaired + result.lost_to_failure, 0u);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
}

// --- topology engineer ---------------------------------------------------------------

TEST(TopoEngineer, AllocationRespectsBudgetAndFloor) {
  common::Rng rng(9);
  const int n = 12, ports = 16;
  const auto demand = sim::HotspotTraffic(n, 4000.0, 4, 0.6, rng);
  const auto alloc = AllocateTrunks(demand, ports, 0.25);
  for (int a = 0; a < n; ++a) {
    EXPECT_LE(alloc.DegreeOf(a), ports);
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      EXPECT_GE(alloc.LinksBetween(a, b), 1);  // floor keeps pairs connected
      EXPECT_EQ(alloc.LinksBetween(a, b), alloc.LinksBetween(b, a));
    }
  }
}

TEST(TopoEngineer, AllocationFollowsDemand) {
  common::Rng rng(10);
  const int n = 8;
  sim::TrafficMatrix demand(n);
  demand.set(0, 1, 500.0);
  demand.set(1, 0, 500.0);
  demand.set(2, 3, 50.0);
  const auto alloc = AllocateTrunks(demand, 12, 0.2);
  // Demand-bearing pairs absorb the spare port budget; zero-demand pairs
  // stay at the uniform floor.
  EXPECT_GE(alloc.LinksBetween(0, 1), alloc.LinksBetween(2, 3));
  EXPECT_GT(alloc.LinksBetween(0, 1), 3);
  EXPECT_GT(alloc.LinksBetween(0, 1), alloc.LinksBetween(4, 5));
  EXPECT_EQ(alloc.LinksBetween(4, 5), 1);  // floor only
}

TEST(TopoEngineer, DecompositionIsValidMatchingSet) {
  common::Rng rng(11);
  const int n = 12, ocs = 16;
  const auto demand = sim::GravityTraffic(n, 3000.0, rng);
  const auto alloc = AllocateTrunks(demand, ocs, 0.2);
  const auto decomposition = DecomposeToMatchings(alloc, ocs);
  EXPECT_EQ(static_cast<int>(decomposition.per_ocs.size()), ocs);
  int total = 0;
  for (const auto& matching : decomposition.per_ocs) {
    std::set<int> used;
    for (const auto& [a, b] : matching) {
      EXPECT_LT(a, b);
      EXPECT_TRUE(used.insert(a).second) << "block reused on one OCS";
      EXPECT_TRUE(used.insert(b).second) << "block reused on one OCS";
    }
    total += static_cast<int>(matching.size());
  }
  EXPECT_EQ(total, decomposition.placed_links);
  EXPECT_EQ(decomposition.placed_links + decomposition.dropped_links, alloc.TotalLinks());
  // Near-regular allocations should decompose almost completely.
  EXPECT_LE(decomposition.dropped_links, alloc.TotalLinks() / 20);
}

TEST(TopoEngineer, ReconfigurationKeepsStableTrunks) {
  common::Rng rng(12);
  const int n = 10, ocs = 12;
  TopologyEngineer engineer(n, ocs, 400.0);
  const auto demand = sim::HotspotTraffic(n, 2000.0, 3, 0.5, rng);
  engineer.Engineer(demand);
  // Identical forecast -> no changes at all.
  const auto plan_same = engineer.Reengineer(demand);
  EXPECT_EQ(plan_same.links_added, 0);
  EXPECT_EQ(plan_same.links_removed, 0);
  EXPECT_GT(plan_same.links_unchanged, 0);
  // A mild shift keeps most of the floor/mesh intact.
  const auto shifted = sim::RotateHotspots(demand, 1);
  const auto plan_shift = engineer.Reengineer(shifted);
  EXPECT_GT(plan_shift.links_unchanged, plan_shift.links_added / 2);
}

TEST(TopoEngineer, CurrentTopologyReflectsAllocation) {
  common::Rng rng(13);
  const int n = 8, ocs = 10;
  TopologyEngineer engineer(n, ocs, 400.0);
  const auto demand = sim::HotspotTraffic(n, 1500.0, 2, 0.6, rng);
  engineer.Engineer(demand);
  const auto topo = engineer.CurrentTopology();
  EXPECT_EQ(topo.kind(), sim::DcnKind::kDirectMesh);
  // Heavier-demand pairs get more capacity.
  double hot_cap = 0.0, cold_cap = 1e18;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double cap = topo.TrunkCapacity(a, b);
      const double d = demand.at(a, b) + demand.at(b, a);
      if (d > 100.0) hot_cap = std::max(hot_cap, cap);
      if (d < 50.0) cold_cap = std::min(cold_cap, cap);
    }
  }
  EXPECT_GT(hot_cap, cold_cap);
}

// --- tco -----------------------------------------------------------------------

TEST(Tco, Table1Shape) {
  const auto rows = SuperpodFabricComparison();
  ASSERT_EQ(rows.size(), 3u);
  const auto& dcn = rows[0];
  const auto& lightwave = rows[1];
  const auto& fabric_static = rows[2];
  EXPECT_EQ(fabric_static.relative_cost, 1.0);
  EXPECT_EQ(fabric_static.relative_power, 1.0);
  // Table 1: lightwave ~1.06x / ~1.01x; DCN ~1.24x / ~1.10x. Shape: static
  // < lightwave < DCN on both axes, with lightwave close to static.
  EXPECT_GT(lightwave.relative_cost, 1.0);
  EXPECT_LT(lightwave.relative_cost, 1.15);
  EXPECT_GT(dcn.relative_cost, lightwave.relative_cost);
  EXPECT_GT(lightwave.relative_power, 0.99);
  EXPECT_LT(lightwave.relative_power, 1.06);
  EXPECT_GT(dcn.relative_power, lightwave.relative_power);
}

TEST(Tco, DeploymentFootprintsHalve) {
  const auto rows = SuperpodDeploymentFootprints();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].ocs_count, 96);
  EXPECT_EQ(rows[1].ocs_count, 48);
  EXPECT_EQ(rows[2].ocs_count, 24);
  // §4.2.3: bidi saves 50% of OCS and fiber cost.
  EXPECT_NEAR(rows[1].ocs_capex_usd / rows[0].ocs_capex_usd, 0.5, 1e-9);
  EXPECT_EQ(rows[1].fiber_strands * 2, rows[0].fiber_strands);
}

TEST(Tco, SpineFreeSavesCapexAndPower) {
  const auto rows = DcnFabricComparison(64, 25600.0);
  ASSERT_EQ(rows.size(), 2u);
  const auto& spine_free = rows[1];
  // §4.2: ~30% CapEx and ~40% power reduction.
  EXPECT_LT(spine_free.relative_cost, 0.78);
  EXPECT_GT(spine_free.relative_cost, 0.6);
  EXPECT_LT(spine_free.relative_power, 0.66);
  EXPECT_GT(spine_free.relative_power, 0.5);
}

// --- fabric manager --------------------------------------------------------------------

TEST(FabricManagerTest, CreateAndDestroySlice) {
  FabricManagerConfig config;
  config.cubes = 8;
  config.ocs_per_dim = 2;
  FabricManager manager(config);
  auto id = manager.CreateSlice(SliceShape{1, 2, 2});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.pod().slices().size(), 1u);
  ASSERT_TRUE(manager.DestroySlice(id.value()).ok());
  EXPECT_TRUE(manager.pod().slices().empty());
}

TEST(FabricManagerTest, HandleCubeFailureSwaps) {
  FabricManagerConfig config;
  config.cubes = 8;
  config.ocs_per_dim = 2;
  FabricManager manager(config);
  auto id = manager.CreateSlice(SliceShape{1, 1, 4});
  ASSERT_TRUE(id.ok());
  const int victim = manager.pod().slices().at(id.value()).topology.cube_ids()[0];
  auto repaired = manager.HandleCubeFailure(victim);
  ASSERT_TRUE(repaired.ok());
  EXPECT_NE(repaired.value(), id.value());
  EXPECT_FALSE(manager.pod().SliceDegraded(repaired.value()));
}

TEST(FabricManagerTest, SurveyCoversAllConnections) {
  FabricManagerConfig config;
  config.cubes = 8;
  config.ocs_per_dim = 2;
  FabricManager manager(config);
  ASSERT_TRUE(manager.CreateSlice(SliceShape{2, 2, 2}).ok());
  const auto reports = manager.SurveyLinkQuality(optics::Cwdm4Bidi());
  // 6 OCSes x 8 connections each.
  EXPECT_EQ(reports.size(), 48u);
  for (const auto& r : reports) {
    EXPECT_LT(r.pre_fec_ber, phy::kKp4BerThreshold)
        << "link ocs=" << r.ocs_id << " n=" << r.north;
    EXPECT_GT(r.insertion_loss_db, 0.0);
  }
}

TEST(FabricManagerTest, TelemetrySweepOverControlPlane) {
  FabricManagerConfig config;
  config.cubes = 8;
  config.ocs_per_dim = 2;
  config.control_drop_probability = 0.3;  // retries must cover this
  FabricManager manager(config);
  ASSERT_TRUE(manager.CreateSlice(SliceShape{1, 1, 2}).ok());
  const auto telemetry = manager.CollectTelemetry();
  EXPECT_EQ(telemetry.replies.size(), 6u);
  EXPECT_TRUE(telemetry.failed.empty());
  std::uint64_t total_connects = 0;
  for (const auto& [id, t] : telemetry.replies) total_connects += t.connects;
  EXPECT_GT(total_connects, 0u);
}

}  // namespace
}  // namespace lightwave::core
