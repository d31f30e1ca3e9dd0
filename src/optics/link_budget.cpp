#include "optics/link_budget.h"

#include <cassert>
#include <cmath>

namespace lightwave::optics {

using common::DbmPower;
using common::Decibel;

const LaneAnalysis& LinkAnalysis::WorstLane() const {
  assert(!lanes.empty());
  const LaneAnalysis* worst = &lanes.front();
  for (const auto& lane : lanes) {
    if (lane.raw_margin < worst->raw_margin) worst = &lane;
  }
  return *worst;
}

LinkBudget::LinkBudget(TransceiverSpec transceiver) : transceiver_(std::move(transceiver)) {}

LinkBudget& LinkBudget::WithCirculator(CirculatorSpec spec) {
  circulator_ = spec;
  return *this;
}

LinkBudget& LinkBudget::AddFiber(FiberSpan span, std::string label) {
  elements_.push_back(PathElement{
      .label = std::move(label),
      .insertion_loss = span.InsertionLoss(),
      .reflections = span.ReflectionPoints(),
  });
  spans_.push_back(std::move(span));
  return *this;
}

LinkBudget& LinkBudget::AddOcsHop(Decibel insertion_loss, Decibel return_loss,
                                  std::string label) {
  // The collimator interfaces at both the input and output side of the core
  // reflect; model them as two equal reflection points.
  elements_.push_back(PathElement{
      .label = std::move(label),
      .insertion_loss = insertion_loss,
      .reflections = {return_loss, return_loss},
  });
  return *this;
}

LinkAnalysis LinkBudget::Analyze() const {
  const bool bidi = transceiver_.bidirectional;
  const Circulator circ(circulator_);

  // Forward insertion loss, Tx flange to Rx flange.
  Decibel path_loss{0.0};
  for (const auto& e : elements_) path_loss += e.insertion_loss;
  Decibel total_loss = path_loss;
  if (bidi) total_loss += circulator_.insertion_loss_tx + circulator_.insertion_loss_rx;

  const DbmPower tx = transceiver_.tx_power_per_lane;
  const DbmPower rx = tx - total_loss;

  // --- MPI aggregation (relative to the received carrier) -----------------
  // Each interferer term is computed as an absolute power at the Rx, then
  // referenced to the received signal power.
  std::vector<Decibel> interferers;

  if (bidi) {
    // (a) Local Tx light reflecting off interface k and returning into the
    // local Rx: travels loss(0..k) out, reflects with RL_k, travels
    // loss(0..k) back, then takes the circulator 2->3 pass.
    Decibel loss_to_k = circulator_.insertion_loss_tx;  // through port 1->2
    for (const auto& e : elements_) {
      for (const auto& rl : e.reflections) {
        const DbmPower back =
            tx - loss_to_k + rl - loss_to_k - circulator_.insertion_loss_rx;
        interferers.push_back(back - rx);
      }
      loss_to_k += e.insertion_loss;
    }
    // (b) Circulator port-1 -> port-3 leakage of the local Tx.
    interferers.push_back(circ.LeakageAtRx(tx) - rx);
    // (c) The far-end circulator's port-2 return loss reflects our outgoing
    // signal back to us: full path out, reflect, full path back.
    const DbmPower far_reflection = tx - circulator_.insertion_loss_tx - path_loss +
                                    circulator_.return_loss - path_loss -
                                    circulator_.insertion_loss_rx;
    interferers.push_back(far_reflection - rx);
  }

  // (d) Double reflections of the signal itself (present on duplex links
  // too): the signal reflects off interface j (moving backward), then off
  // interface i < j (forward again), arriving delayed. Extra loss relative
  // to the signal: RL_i + RL_j + 2*loss(i..j).
  {
    struct Point {
      Decibel rl;
      Decibel cum_loss_before;  // loss from Tx to this interface
    };
    std::vector<Point> points;
    Decibel cum{0.0};
    if (bidi) cum += circulator_.insertion_loss_tx;
    for (const auto& e : elements_) {
      for (const auto& rl : e.reflections) points.push_back({rl, cum});
      cum += e.insertion_loss;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        const Decibel extra = points[i].rl + points[j].rl -
                              (points[j].cum_loss_before - points[i].cum_loss_before) * 2.0;
        interferers.push_back(extra);
      }
    }
  }

  const Decibel mpi = interferers.empty()
                          ? Decibel{-400.0}
                          : common::SumInterferers(interferers.data(),
                                                   static_cast<int>(interferers.size()));

  // --- Per-lane analysis ---------------------------------------------------
  LinkAnalysis analysis{
      .total_insertion_loss = total_loss,
      .rx_power = rx,
      .mpi = mpi,
      .lanes = {},
  };
  const WdmGrid grid = WdmGrid::Make(transceiver_.grid);
  const double chirp = transceiver_.laser == LaserKind::kEml ? 0.3 : 3.0;
  for (const auto& ch : grid.channels()) {
    Decibel dispersion{0.0};
    for (const auto& span : spans_) {
      dispersion += span.DispersionPenalty(ch.center, transceiver_.lane_rate_gbps, chirp);
    }
    const Decibel raw_margin = (rx - dispersion) - transceiver_.rx_sensitivity;
    analysis.lanes.push_back(LaneAnalysis{
        .lane = ch.index,
        .wavelength = ch.center,
        .rx_power = rx - dispersion,
        .dispersion_penalty = dispersion,
        .raw_margin = raw_margin,
    });
  }
  return analysis;
}

LinkBudget MakeSuperpodLink(const TransceiverSpec& transceiver, Decibel ocs_insertion_loss,
                            Decibel ocs_return_loss, double fiber_km) {
  LinkBudget budget(transceiver);
  budget.WithCirculator(IntegratedCirculator());
  budget.AddFiber(FiberSpan(fiber_km / 2.0, /*connectors=*/2, /*splices=*/1), "fiber-near");
  budget.AddOcsHop(ocs_insertion_loss, ocs_return_loss, "palomar");
  budget.AddFiber(FiberSpan(fiber_km / 2.0, /*connectors=*/2, /*splices=*/1), "fiber-far");
  return budget;
}

}  // namespace lightwave::optics
