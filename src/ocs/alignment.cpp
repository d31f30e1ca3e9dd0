#include "ocs/alignment.h"

namespace lightwave::ocs {

AlignmentResult AlignmentController::Align(common::Rng& rng, MemsArray& array,
                                           int logical) const {
  constexpr double kActuationNoiseStd = 2.0e-6;  // closed-loop HV noise, radians
  const double threshold_sq = config_.convergence_threshold * config_.convergence_threshold;
  AlignmentResult result;
  MirrorState& m = array.mirror(array.PhysicalMirror(logical));
  for (int i = 0; i < config_.max_iterations; ++i) {
    ++result.iterations;
    result.elapsed_ms += config_.iteration_time_ms;
    // Camera measures the pointing error.
    const double true_x = m.actual_x - m.target_x;
    const double true_y = m.actual_y - m.target_y;
    double measured_x = 0.0, measured_y = 0.0;
    // With the camera on, the monitor-spot image pipeline: render,
    // background-subtract, centroid. When the spot is outside the tracking
    // ROI, fall back to the wide-field acquisition mode (coarser but always
    // finds it). With it off, the calibrated abstract measurement.
    if (!config_.use_camera || !MeasurePointingError(config_.camera, true_x, true_y, rng,
                                                     &measured_x, &measured_y)) {
      const double noise_std =
          config_.use_camera ? config_.acquisition_noise_std : config_.measurement_noise_std;
      measured_x = rng.Gaussian(true_x, noise_std);
      measured_y = rng.Gaussian(true_y, noise_std);
    }
    if (measured_x * measured_x + measured_y * measured_y < threshold_sq) {
      result.converged = true;
      break;
    }
    // HV update removes `gain` of the measured error (plus actuation noise
    // well below the open-loop figure).
    m.actual_x -= rng.Gaussian(config_.gain * measured_x, kActuationNoiseStd);
    m.actual_y -= rng.Gaussian(config_.gain * measured_y, kActuationNoiseStd);
  }
  result.residual_error = array.PointingError(logical);
  if (!result.converged) {
    result.converged = result.residual_error < config_.convergence_threshold;
  }
  return result;
}

common::Decibel MisalignmentLoss(double pointing_error_rad) {
  // Gaussian beam overlap: the 1/e^2 angular tolerance of the core is
  // ~0.5 mrad; loss grows quadratically in the normalized error.
  constexpr double kAngularTolerance = 5.0e-4;
  const double x = pointing_error_rad / kAngularTolerance;
  return common::Decibel{4.343 * x * x};  // 10*log10(e) * (error^2) overlap
}

}  // namespace lightwave::ocs
