// Spine-free DCN topology engineering (§2.1): size inter-block trunks to a
// forecast traffic matrix, lower them to per-OCS matchings, push the
// cross-connects to Palomar switches over the control plane, measure flow
// performance, then adapt to a demand shift with an incremental
// reconfiguration that leaves stable trunks undisturbed.
#include <cstdio>
#include <map>
#include <memory>

#include "core/topology_engineer.h"
#include "ctrl/controller.h"
#include "ocs/palomar.h"
#include "sim/dcn_flow.h"
#include "sim/traffic.h"

using namespace lightwave;

int main() {
  const int blocks = 16;       // aggregation blocks
  const int ocs_count = 32;    // one duplex port per block per OCS
  const double trunk_gbps = 400.0;

  // Long-lived skewed demand: six service-to-service elephants over a
  // uniform background.
  common::Rng rng(7);
  auto demand = sim::DisjointHotspotTraffic(blocks, blocks * 400.0, 6, 0.5, rng);
  std::printf("forecast demand: %.0f Gb/s total, skew %.1fx\n", demand.Total(),
              demand.SkewRatio());

  // 1) Engineer the topology.
  core::TopologyEngineer engineer(blocks, ocs_count, trunk_gbps);
  engineer.Engineer(demand);
  std::printf("trunk allocation: %d links placed across %d OCS matchings (%d dropped)\n",
              engineer.decomposition().placed_links, ocs_count,
              engineer.decomposition().dropped_links);

  // 2) Drive real switches through the control plane (20% message loss; the
  // controller's retries cover it).
  std::vector<std::unique_ptr<ocs::PalomarSwitch>> switches;
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
  ctrl::MessageBus bus(8);
  bus.SetDropProbability(0.2);
  ctrl::FabricController controller(bus, ctrl::FabricControllerOptions{.max_retries = 25});
  for (int i = 0; i < ocs_count; ++i) {
    switches.push_back(std::make_unique<ocs::PalomarSwitch>(100 + i));
    agents.push_back(std::make_unique<ctrl::OcsAgent>(*switches.back()));
    controller.Register(i, agents.back().get());
  }
  auto to_targets = [&](const core::MatchingDecomposition& d) {
    std::map<int, std::map<int, int>> targets;
    for (int i = 0; i < ocs_count; ++i) {
      for (const auto& [a, b] : d.per_ocs[static_cast<std::size_t>(i)]) {
        targets[i][a] = b;  // trunk = the bidirectional pair of
        targets[i][b] = a;  // cross-connects a->b and b->a
      }
    }
    return targets;
  };
  auto result = controller.ApplyTopology(to_targets(engineer.decomposition()));
  std::printf("control plane: applied=%s retries=%d\n", result.ok ? "ok" : "FAILED",
              result.retries_used);

  // 3) Performance vs the uniform mesh.
  const auto uniform = sim::DcnTopology::UniformMesh(blocks, ocs_count * trunk_gbps);
  const auto engineered = engineer.CurrentTopology();
  const double a_u = sim::MaxConcurrentFlowScale(uniform, demand);
  const double a_e = sim::MaxConcurrentFlowScale(engineered, demand);
  std::printf("throughput scale: uniform %.2f vs engineered %.2f (+%.0f%%)\n", a_u, a_e,
              100.0 * (a_e / a_u - 1.0));

  // 4) The hotspots move (service churn); re-engineer incrementally.
  const auto shifted = sim::RotateHotspots(demand, 3);
  const auto plan = engineer.Reengineer(shifted);
  std::printf("demand shift: +%d -%d links, %d trunks undisturbed\n", plan.links_added,
              plan.links_removed, plan.links_unchanged);
  result = controller.ApplyTopology(to_targets(engineer.decomposition()));
  std::printf("control plane: re-applied=%s\n", result.ok ? "ok" : "FAILED");

  // Telemetry: each switch reports how it was exercised.
  std::uint64_t reconfigs = 0;
  for (const auto& [id, t] : controller.CollectTelemetry().replies) {
    reconfigs += t.reconfigurations;
  }
  std::printf("fleet telemetry: %llu reconfiguration transactions executed\n",
              static_cast<unsigned long long>(reconfigs));
  return 0;
}
