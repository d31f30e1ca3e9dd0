// Adaptive equalization (§3.3.1): over the 80 nm CWDM range, chromatic
// dispersion closes the eye at >= 100 Gb/s lane rates; the DSP mitigates it
// with equalizers (feed-forward plus nonlinear/decision-feedback stages).
// This module implements a discrete-time ISI channel derived from the
// fiber's pulse spread, an LMS-adapted feed-forward equalizer (FFE) with an
// optional decision-feedback (DFE) section, and a measurement harness that
// reports pre- vs post-equalization BER — the mechanism behind "this
// impairment can be mitigated ... along with the use of nonlinear
// equalizers".
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "optics/fiber.h"

namespace lightwave::phy {

/// Discrete-time symbol-spaced channel: y_n = sum_k taps[k] * x_{n-k} + w_n.
struct IsiChannel {
  std::vector<double> taps;  // taps[0] is the cursor
  double noise_sigma = 0.0;  // AWGN at the slicer input, in symbol units
};

/// Three-tap channel for a lane whose dispersion spreads the pulse by
/// `spread_fraction` of a symbol period (0 = clean, 0.5 = heavy ISI):
/// [pre, main, post] with energy leaking symmetrically off the cursor.
IsiChannel DispersiveChannel(double spread_fraction, double noise_sigma);

/// Convenience: channel for one WDM lane over a span at a lane rate, using
/// the fiber model's pulse-spread estimate.
IsiChannel ChannelForLane(const optics::FiberSpan& span, common::Nanometers wavelength,
                          common::GbitPerSec lane_rate, double chirp_factor,
                          double noise_sigma);

/// LMS-adapted feed-forward equalizer with an optional decision-feedback
/// section. Symbol-spaced, real-valued (intensity detection).
class AdaptiveEqualizer {
 public:
  AdaptiveEqualizer(int ffe_taps, int dfe_taps, double mu);

  /// Processes one received sample; returns the equalized soft value using
  /// past decisions for the DFE section.
  double Equalize(double sample);
  /// LMS update toward `target` (training symbol or slicer decision) for
  /// the most recent Equalize() call.
  void Adapt(double target);
  /// Records the decision that feeds the DFE history.
  void PushDecision(double decision);

  const std::vector<double>& ffe_weights() const { return ffe_; }

 private:
  std::vector<double> ffe_;
  std::vector<double> dfe_;
  std::vector<double> input_history_;     // most recent first
  std::vector<double> decision_history_;  // most recent first
  double mu_;
  double last_output_ = 0.0;
};

struct EqualizedLinkResult {
  double pre_eq_ber = 0.0;   // slicer on the raw channel output
  double post_eq_ber = 0.0;  // slicer after FFE(+DFE)
  double residual_isi = 0.0; // post-equalization tap-energy off the cursor
};

struct EqualizerExperimentConfig {
  std::uint64_t symbols = 200'000;
  std::uint64_t training_symbols = 4'000;  // known-pattern LMS phase
  int ffe_taps = 7;
  int dfe_taps = 2;
  double mu = 2e-3;
  std::uint64_t seed = 99;
};

/// Runs PAM4 through the channel with and without equalization.
EqualizedLinkResult MeasureEqualizedLink(const IsiChannel& channel,
                                         const EqualizerExperimentConfig& config = {});

}  // namespace lightwave::phy
