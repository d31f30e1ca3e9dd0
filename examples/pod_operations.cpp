// A day of pod operations: periodic telemetry sweeps over the control
// plane, link-quality surveys feeding the anomaly detector, spare-port
// repair of a degrading path, and traffic-pattern analysis on the running
// slice — the §3.2.2 "deeply integrate the control and monitoring software"
// story as a library user would script it.
#include <cstdio>

#include "core/fabric_manager.h"
#include "ctrl/anomaly.h"
#include "optics/transceiver.h"
#include "sim/torus_traffic.h"

using namespace lightwave;

int main() {
  core::FabricManager fabric;
  auto slice = fabric.CreateSlice(tpu::SliceShape{2, 4, 4});  // 2048 chips
  if (!slice.ok()) return 1;
  std::printf("slice 8x16x16 running on %zu OCS connections\n",
              fabric.pod().slices().at(slice.value()).connections.size());

  // --- shift 1: telemetry sweep over the wire protocol -----------------------
  const auto telemetry = fabric.CollectTelemetry();
  std::uint64_t reconfigs = 0, rejected = 0;
  double switch_ms = 0.0;
  for (const auto& [id, t] : telemetry.replies) {
    reconfigs += t.reconfigurations;
    rejected += t.rejected_commands;
    switch_ms += t.cumulative_switch_ms;
  }
  std::printf("[telemetry] %zu switches: %llu reconfig transactions, %llu rejected "
              "commands, %.0f ms total mirror time\n",
              telemetry.replies.size(), static_cast<unsigned long long>(reconfigs),
              static_cast<unsigned long long>(rejected), switch_ms);

  // --- shift 2: link-quality surveys feed the anomaly detector ----------------
  ctrl::AnomalyDetector detector;
  auto sweep = [&] {
    for (const auto& r : fabric.SurveyLinkQuality(optics::Cwdm4Bidi())) {
      detector.Observe(ctrl::LinkKey{r.ocs_id, r.north}, r.insertion_loss_db,
                       r.pre_fec_ber);
    }
  };
  for (int i = 0; i < 5; ++i) sweep();
  std::printf("[monitor]  tracking %d links; %zu anomalies flagged\n",
              detector.tracked_links(), detector.Flagged().size());

  // --- shift 3: qualification + spare-port repair ------------------------------
  const auto summary =
      fabric.RepairOutOfBudgetLinks(optics::Cwdm4Bidi(), {}, /*min_margin_db=*/1.0);
  std::printf("[repair]   %d re-patches onto spare ports, %d unrepairable, %d still "
              "out of budget\n",
              summary.repairs_attempted, summary.unrepairable,
              summary.still_out_of_budget);

  // --- shift 4: traffic health on the slice torus ------------------------------
  const tpu::SliceShape shape{2, 4, 4};
  for (const auto& [name, pattern] :
       {std::pair<const char*, sim::Pattern>{"ring shift (collective phase)",
                                             sim::NeighborShift(shape, tpu::Dim::kZ)},
        {"random permutation (adversarial)", sim::RandomPermutation(shape, 17)}}) {
    const auto analysis = sim::AnalyzePattern(shape, pattern, name, 64e6);
    std::printf("[traffic]  %-34s peak link load %d, completion %.0f us, link "
                "efficiency %.0f%%\n",
                name, analysis.peak_link_load, analysis.completion_us,
                100.0 * analysis.link_efficiency);
  }

  // Spare re-patches re-align circuits outside any transaction, so the
  // switches still count the reconfigurations the shift-1 sweep saw.
  std::uint64_t reconfigs_now = 0;
  for (int i = 0; i < fabric.pod().ocs_count(); ++i) {
    reconfigs_now += fabric.pod().ocs(i).telemetry().reconfigurations;
  }
  const bool undisturbed =
      !fabric.pod().SliceDegraded(slice.value()) && reconfigs_now == reconfigs;
  std::printf("\npod healthy; slice undisturbed throughout (reconfig count unchanged: "
              "%s)\n",
              undisturbed ? "yes" : "NO");
  return undisturbed ? 0 : 1;
}
