// Cross-module integration tests: full pod lifecycle through the
// FabricManager, optical quality of scheduled slices end-to-end (OCS path ->
// link budget -> PHY -> FEC), failure-recovery flows, and the DCN
// topology-engineering pipeline from demand to per-OCS matchings applied to
// real switches.
#include <gtest/gtest.h>

#include <map>

#include "core/fabric_manager.h"
#include "core/topology_engineer.h"
#include "ctrl/controller.h"
#include "fec/concatenated.h"
#include "ocs/palomar.h"
#include "optics/link_budget.h"
#include "phy/ber_model.h"
#include "sim/availability.h"
#include "sim/collective.h"
#include "sim/llm_model.h"

namespace lightwave {
namespace {

using core::AllocationPolicy;
using core::FabricManager;
using core::FabricManagerConfig;
using tpu::SliceShape;

TEST(Integration, FullPodLifecycle) {
  FabricManager manager;  // production-size: 64 cubes, 48 OCSes
  // Install three differently-shaped slices: 16 + 16 + 32 cubes = full pod.
  auto a = manager.CreateSlice(SliceShape{2, 2, 4});
  auto b = manager.CreateSlice(SliceShape{1, 4, 4});
  auto c = manager.CreateSlice(SliceShape{2, 4, 4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(manager.pod().FreeHealthyCubes().empty());
  // Full pod is rejected now.
  EXPECT_FALSE(manager.CreateSlice(SliceShape{4, 4, 4}).ok());
  // Tear down two, then the full pod still doesn't fit (32 cubes busy)...
  ASSERT_TRUE(manager.DestroySlice(a.value()).ok());
  ASSERT_TRUE(manager.DestroySlice(b.value()).ok());
  EXPECT_FALSE(manager.CreateSlice(SliceShape{4, 4, 4}).ok());
  // ...until the last one goes.
  ASSERT_TRUE(manager.DestroySlice(c.value()).ok());
  auto full = manager.CreateSlice(SliceShape{4, 4, 4});
  EXPECT_TRUE(full.ok());
}

TEST(Integration, ScheduledSliceClosesOpticalLinkBudget) {
  // End-to-end: schedule a slice, survey every programmed OCS path, push
  // each through the bidi link budget + PHY + concatenated FEC, and require
  // production-grade quality (Fig. 13: all ports below threshold with
  // margin).
  FabricManager manager;
  ASSERT_TRUE(manager.CreateSlice(SliceShape{4, 4, 4}).ok());
  const auto reports = manager.SurveyLinkQuality(optics::Cwdm4Bidi());
  EXPECT_EQ(reports.size(), 48u * 64u);
  const fec::ConcatenatedFec fec;
  const double channel_limit = fec.ChannelBerThreshold(/*inner_enabled=*/true);
  int below_kp4 = 0;
  for (const auto& r : reports) {
    EXPECT_LT(r.pre_fec_ber, channel_limit);
    below_kp4 += r.pre_fec_ber < phy::kKp4BerThreshold ? 1 : 0;
    // Post-FEC: error-free for practical purposes.
    EXPECT_LT(fec.PostFecBer(r.pre_fec_ber, true), 1e-15);
  }
  // The overwhelming majority of ports sit below the bare KP4 threshold.
  EXPECT_GT(below_kp4, static_cast<int>(reports.size() * 99 / 100));
}

TEST(Integration, CubeFailureRepairPreservesOtherSlices) {
  FabricManagerConfig config;
  config.seed = 3;
  FabricManager manager(config);
  auto victim_slice = manager.CreateSlice(SliceShape{2, 2, 2});
  auto bystander = manager.CreateSlice(SliceShape{2, 2, 2});
  ASSERT_TRUE(victim_slice.ok());
  ASSERT_TRUE(bystander.ok());

  // Snapshot the bystander's switch state.
  const auto before = manager.pod().slices().at(bystander.value()).connections;

  const int dead_cube =
      manager.pod().slices().at(victim_slice.value()).topology.cube_ids()[3];
  auto repaired = manager.HandleCubeFailure(dead_cube);
  ASSERT_TRUE(repaired.ok());

  // Bystander untouched: same connections still installed on the switches.
  for (const auto& [ocs_id, conns] : before) {
    for (const auto& [n, s] : conns) {
      ASSERT_TRUE(manager.pod().ocs(ocs_id).ConnectionOn(n).has_value());
      EXPECT_EQ(manager.pod().ocs(ocs_id).ConnectionOn(n)->south, s);
    }
  }
  EXPECT_FALSE(manager.pod().SliceDegraded(bystander.value()));
  EXPECT_FALSE(manager.pod().SliceDegraded(repaired.value()));
}

TEST(Integration, LlmPlacementPicksShapeAndInstalls) {
  // The production flow of §4.2.1: rank shapes for the workload, install
  // the winner, run a collective on it.
  FabricManager manager;
  const sim::LlmPerfModel model;
  const auto ranked = model.RankShapes(sim::Llm1(), 64);
  const auto best = ranked.front().shape;
  EXPECT_EQ(best.ToString(), "4x4x256");
  auto id = manager.CreateSlice(best);
  ASSERT_TRUE(id.ok());
  // The slice's all-reduce completes in bounded time (event-driven sim).
  const double time_us = sim::SimulateTorusAllReduce(best, 256e6);
  EXPECT_GT(time_us, 0.0);
  const auto analytic = sim::TorusAllReduce(best, 256e6);
  EXPECT_NEAR(time_us, analytic.time_us, analytic.time_us * 0.02);
}

TEST(Integration, TopologyEngineeringDrivesRealSwitches) {
  // DCN pipeline: demand -> trunks -> per-OCS matchings -> ReconfigureRequest
  // messages -> Palomar switches, via the retrying controller.
  const int blocks = 16, ocs_count = 8;
  common::Rng rng(5);
  const auto demand = sim::HotspotTraffic(blocks, 6000.0, 4, 0.5, rng);
  core::TopologyEngineer engineer(blocks, ocs_count, 400.0);
  engineer.Engineer(demand);

  std::vector<std::unique_ptr<ocs::PalomarSwitch>> switches;
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
  ctrl::MessageBus bus(6);
  bus.SetDropProbability(0.2);
  ctrl::FabricController controller(bus, ctrl::FabricControllerOptions{.max_retries = 20});
  for (int i = 0; i < ocs_count; ++i) {
    switches.push_back(std::make_unique<ocs::PalomarSwitch>(1000 + i));
    agents.push_back(std::make_unique<ctrl::OcsAgent>(*switches.back()));
    controller.Register(i, agents.back().get());
  }

  // Each matched pair (a, b) becomes the bidirectional pair of
  // cross-connects a->b and b->a on that OCS.
  std::map<int, std::map<int, int>> targets;
  const auto& decomposition = engineer.decomposition();
  for (int i = 0; i < ocs_count; ++i) {
    for (const auto& [a, b] : decomposition.per_ocs[static_cast<std::size_t>(i)]) {
      targets[i][a] = b;
      targets[i][b] = a;
    }
  }
  const auto result = controller.ApplyTopology(targets);
  ASSERT_TRUE(result.ok) << result.error;
  int installed = 0;
  for (const auto& sw : switches) installed += sw->ConnectionCount();
  EXPECT_EQ(installed, 2 * decomposition.placed_links);
}

TEST(Integration, AvailabilityPipelineConsistency) {
  // The Fig. 15 analytic pipeline agrees with direct pod simulation: fail
  // hosts at the modeled rate, measure composable slices.
  const double server_availability = 0.995;
  const int slice_cubes = 8;
  const int committed =
      sim::CommittedSlicesReconfigurable(server_availability, slice_cubes);
  EXPECT_GT(committed, 0);
  const auto mc =
      sim::SimulateAvailability(server_availability, slice_cubes, committed, 5000, 11);
  EXPECT_GE(mc.reconfig_success_rate, 0.96);
  EXPECT_GE(mc.reconfig_success_rate, mc.static_success_rate);
}

TEST(Integration, SchedulerKeepsFabricConsistentUnderChurn) {
  // Long mixed workload with failures; afterwards every remaining slice's
  // connections are exactly present and bijective on every switch.
  tpu::Superpod pod(12);
  core::WorkloadConfig config;
  config.sim_hours = 300.0;
  config.arrival_rate_per_hour = 6.0;
  config.mean_duration_hours = 6.0;
  config.cube_mtbf_hours = 2000.0;
  const auto result =
      core::SimulateWorkload(pod, AllocationPolicy::kReconfigurable, config);
  EXPECT_GT(result.submitted, 0u);

  // Consistency audit.
  for (const auto& [id, slice] : pod.slices()) {
    for (const auto& [ocs_id, conns] : slice.connections) {
      for (const auto& [n, s] : conns) {
        ASSERT_TRUE(pod.ocs(ocs_id).ConnectionOn(n).has_value())
            << "slice " << id << " missing connection on ocs " << ocs_id;
        EXPECT_EQ(pod.ocs(ocs_id).ConnectionOn(n)->south, s);
      }
    }
  }
  // No orphan connections: every installed connection belongs to a slice.
  int slice_conns = 0;
  for (const auto& [id, slice] : pod.slices()) {
    for (const auto& [ocs_id, conns] : slice.connections) {
      slice_conns += static_cast<int>(conns.size());
    }
  }
  int switch_conns = 0;
  for (int i = 0; i < pod.ocs_count(); ++i) switch_conns += pod.ocs(i).ConnectionCount();
  EXPECT_EQ(slice_conns, switch_conns);
}

}  // namespace
}  // namespace lightwave
