// FabricManager: the top-level public API of the library for the ML use
// case. It owns a superpod (cubes + Palomar OCSes), schedules slices through
// the lightwave fabric, talks to every switch through the control plane
// (wire-format messages over the management bus), and reports pod-wide link
// quality by composing the OCS path measurements with the transceiver link
// budget and the PHY BER model (the Fig. 13 production survey).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/scheduler.h"
#include "ctrl/controller.h"
#include "optics/transceiver.h"
#include "tpu/superpod.h"

namespace lightwave::telemetry {
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::core {

struct FabricManagerConfig {
  std::uint64_t seed = 1;
  int cubes = tpu::kCubesPerPod;
  int ocs_per_dim = tpu::kOcsPerDim;
  AllocationPolicy policy = AllocationPolicy::kReconfigurable;
  /// Management-network loss injected into the control bus (retries cover
  /// it; see ctrl::FabricController).
  double control_drop_probability = 0.0;
  /// Retry / backoff / circuit-breaker policy for the fabric controller.
  ctrl::FabricControllerOptions controller;
};

struct LinkQualityReport {
  int ocs_id = 0;
  int north = 0;
  int south = 0;
  double insertion_loss_db = 0.0;
  double rx_power_dbm = 0.0;
  double mpi_db = 0.0;
  double margin_db = 0.0;    // effective margin after derating
  double pre_fec_ber = 0.0;  // with OIM when the transceiver has the DSP
};

/// Per-link population effects applied by the survey: manufacturing spread
/// of Tx power and receiver sensitivity across millions of modules
/// (§4.1.2), and the end-of-life/system derating the link budget reserves
/// (aging, temperature, connector degradation). These are what turn the
/// huge beginning-of-life margins into the Fig. 13 BER population that sits
/// ~2 orders of magnitude under the KP4 threshold.
struct LinkQualityOptions {
  double tx_power_sigma_db = 0.35;
  double sensitivity_sigma_db = 0.25;
  double derating_db = 4.6;
  std::uint64_t seed = 0xF13;
};

class FabricManager {
 public:
  explicit FabricManager(FabricManagerConfig config = {});

  tpu::Superpod& pod() { return *pod_; }
  const tpu::Superpod& pod() const { return *pod_; }
  SliceScheduler& scheduler() { return *scheduler_; }

  /// Allocates + installs a slice of the given shape.
  common::Result<tpu::SliceId> CreateSlice(const tpu::SliceShape& shape);
  common::Status DestroySlice(tpu::SliceId id);

  /// Reacts to a cube failure: marks it unhealthy and, if a slice owned it,
  /// swaps in a healthy spare (reconfigurable policy). Returns the repaired
  /// slice id, or the scheduling error.
  common::Result<tpu::SliceId> HandleCubeFailure(int cube_id);

  /// Pod-wide link-quality survey over every active OCS connection for the
  /// given transceiver technology (Fig. 13).
  std::vector<LinkQualityReport> SurveyLinkQuality(
      const optics::TransceiverSpec& transceiver,
      const LinkQualityOptions& options = {}) const;

  /// Control-plane telemetry sweep over every OCS. Agents that never
  /// answered are reported in `failed` instead of being silently dropped.
  ctrl::FabricTelemetrySweep CollectTelemetry();

  /// Proactive link repair (§4.1.1 / §3.2.2): survey every path, re-patch
  /// out-of-budget links onto the OCS spare ports, and repeat until the pod
  /// is clean or spares run out. `min_margin_db` is the qualification bar.
  struct RepairSummary {
    int repairs_attempted = 0;
    int unrepairable = 0;        // no spares left on that switch
    int still_out_of_budget = 0; // after the final survey
  };
  RepairSummary RepairOutOfBudgetLinks(const optics::TransceiverSpec& transceiver,
                                       const LinkQualityOptions& options = {},
                                       double min_margin_db = 0.2, int max_rounds = 3);

  /// Wires `hub` through every layer the manager owns: the scheduler, the
  /// control bus, the fabric controller, every OCS agent, and every Palomar
  /// switch. Link-quality surveys additionally record pod-wide margin /
  /// BER / insertion-loss histograms (the Fig. 13 population). Pass nullptr
  /// to detach everything (the default no-op sink).
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  FabricManagerConfig config_;
  telemetry::Hub* hub_ = nullptr;
  std::unique_ptr<tpu::Superpod> pod_;
  std::unique_ptr<SliceScheduler> scheduler_;
  std::unique_ptr<ctrl::MessageBus> bus_;
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents_;
  std::unique_ptr<ctrl::FabricController> controller_;
};

}  // namespace lightwave::core
