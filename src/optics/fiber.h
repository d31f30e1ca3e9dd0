// Single-mode fiber spans: attenuation, connectors/splices, and chromatic
// dispersion around the 1310 nm zero-dispersion wavelength. The 80 nm CWDM
// spectral range makes dispersion a real impairment above 100 Gb/s (§3.3.1).
#pragma once

#include <vector>

#include "common/units.h"
#include "optics/wdm.h"

namespace lightwave::optics {

struct ConnectorSpec {
  common::Decibel insertion_loss{0.25};
  common::Decibel return_loss{-45.0};
};

struct SpliceSpec {
  common::Decibel insertion_loss{0.05};
};

/// A passive fiber span between two active elements.
class FiberSpan {
 public:
  FiberSpan(double length_km, int connectors, int splices);

  double length_km() const { return length_km_; }

  /// Total attenuation including connectors and splices.
  common::Decibel InsertionLoss() const;

  /// Reflection contributions (relative to the propagating signal) from each
  /// connector; feeds the MPI aggregation in the link budget.
  std::vector<common::Decibel> ReflectionPoints() const;

  /// Chromatic dispersion accumulated over the span for a channel at
  /// `wavelength`, in ps/nm. G.652: D(l) ~ S0/4 * (l - l0 * (l0/l)^3),
  /// approximately S0 * (l - l0) near l0.
  double DispersionPsPerNm(common::Nanometers wavelength) const;

  /// The dB power penalty from dispersion-induced inter-symbol interference
  /// for a lane at `wavelength` running at `lane_rate` with transmitter
  /// chirp-bandwidth product `chirp_factor` (EMLs ~0.3, DMLs ~3).
  common::Decibel DispersionPenalty(common::Nanometers wavelength,
                                    common::GbitPerSec lane_rate,
                                    double chirp_factor) const;

  /// Attenuation coefficient used for the O band.
  static constexpr double kAttenuationDbPerKm = 0.32;
  /// Dispersion slope S0 at the zero-dispersion wavelength [ps/(nm^2*km)].
  static constexpr double kDispersionSlope = 0.092;

 private:
  double length_km_;
  std::vector<ConnectorSpec> connectors_;
  std::vector<SpliceSpec> splices_;
};

}  // namespace lightwave::optics
