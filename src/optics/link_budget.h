// End-to-end optical link budget for a (possibly bidirectional) path:
//   Tx -> [circulator] -> fiber -> OCS hop(s) -> fiber -> [circulator] -> Rx
// Computes received power, aggregates every reflection along the path into a
// single multi-path-interference (MPI) level relative to the received
// carrier, and evaluates chromatic-dispersion penalties per WDM lane. The
// phy::BerModel consumes the result to produce Fig. 11-style curves.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "optics/circulator.h"
#include "optics/fiber.h"
#include "optics/transceiver.h"

namespace lightwave::optics {

/// One lossy element of the optical path, with the return losses of its
/// reflective interfaces (relative to the signal incident on them).
struct PathElement {
  std::string label;
  common::Decibel insertion_loss{0.0};
  std::vector<common::Decibel> reflections;
};

struct LaneAnalysis {
  int lane = 0;
  common::Nanometers wavelength;
  common::DbmPower rx_power;  // after dispersion penalty
  common::Decibel dispersion_penalty;
  /// Unallocated margin against the transceiver's clean-link sensitivity
  /// (before MPI; the PHY layer turns MPI into a penalty).
  common::Decibel raw_margin;
};

struct LinkAnalysis {
  /// Total path insertion loss (Tx flange to Rx flange).
  common::Decibel total_insertion_loss;
  /// Received power, dispersion not included.
  common::DbmPower rx_power;
  /// Aggregate multi-path interference relative to the received carrier.
  /// Includes: local-Tx reflections re-entering the Rx (bidi links),
  /// circulator port-1->3 leakage, and double reflections of the signal.
  common::Decibel mpi;
  std::vector<LaneAnalysis> lanes;

  const LaneAnalysis& WorstLane() const;
};

/// Builder for a symmetric link between two identical transceivers.
class LinkBudget {
 public:
  explicit LinkBudget(TransceiverSpec transceiver);

  /// Installs the circulators used when the transceiver is bidirectional.
  LinkBudget& WithCirculator(CirculatorSpec spec);
  /// Appends a fiber span (tracked for both loss/reflections and
  /// chromatic-dispersion accumulation).
  LinkBudget& AddFiber(FiberSpan span, std::string label = "fiber");
  /// Appends an OCS hop: insertion loss through the core plus two collimator
  /// reflection interfaces, the dominant reflection points in the fabric
  /// (§4.1.1).
  LinkBudget& AddOcsHop(common::Decibel insertion_loss, common::Decibel return_loss,
                        std::string label = "ocs");

  /// Analyzes the A->B direction (paths are symmetric by construction).
  LinkAnalysis Analyze() const;

  const TransceiverSpec& transceiver() const { return transceiver_; }
  const CirculatorSpec& circulator() const { return circulator_; }

 private:
  TransceiverSpec transceiver_;
  CirculatorSpec circulator_ = IntegratedCirculator();
  std::vector<PathElement> elements_;
  std::vector<FiberSpan> spans_;
};

/// Canonical intra-building superpod link: patch fiber, one OCS hop, patch
/// fiber. `ocs_insertion_loss`/`ocs_return_loss` normally come from a
/// sampled ocs::PalomarSwitch path.
LinkBudget MakeSuperpodLink(const TransceiverSpec& transceiver,
                            common::Decibel ocs_insertion_loss,
                            common::Decibel ocs_return_loss, double fiber_km = 0.3);

}  // namespace lightwave::optics
