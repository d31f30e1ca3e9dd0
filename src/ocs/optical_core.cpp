#include "ocs/optical_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lightwave::ocs {

using common::Decibel;

namespace {

// Stream keys. Ports (< 136) and physical mirrors (< 176) each fit a byte,
// so a path key stays below 2^32; a spare key sets bit 32 and cannot
// collide with one.
static_assert(kUsedMirrors <= 256 && kFabricatedMirrors <= 256);

std::uint64_t PathKey(int north, int south, int mirror_a, int mirror_b) {
  return static_cast<std::uint64_t>(north) | static_cast<std::uint64_t>(south) << 8 |
         static_cast<std::uint64_t>(mirror_a) << 16 | static_cast<std::uint64_t>(mirror_b) << 24;
}

std::uint64_t SpareKey(int array_index, int physical_mirror) {
  return std::uint64_t{1} << 32 | static_cast<std::uint64_t>(array_index) << 8 |
         static_cast<std::uint64_t>(physical_mirror);
}

}  // namespace

OpticalCore::OpticalCore(common::Rng rng, int ports)
    : ports_(ports),
      collimator_north_(rng, ports),
      collimator_south_(rng, ports),
      array_a_(rng),
      array_b_(rng),
      seed_(rng.NextU64()) {
  assert(ports > 0 && ports <= kUsedMirrors);
}

void OpticalCore::TargetAngles(int from, int to, double* x, double* y) {
  // 2D grid geometry: mirrors sit on a 12x12-ish grid (136 used); the tilt
  // needed is proportional to the row/column offset between source and
  // destination across the core.
  constexpr int kGridWidth = 12;
  constexpr double kAnglePerCell = 1.2e-2;  // radians per grid cell
  const int from_row = from / kGridWidth, from_col = from % kGridWidth;
  const int to_row = to / kGridWidth, to_col = to % kGridWidth;
  *x = (to_col - from_col) * kAnglePerCell / 2.0;
  *y = (to_row - from_row) * kAnglePerCell / 2.0;
}

std::optional<CorePathMetrics> OpticalCore::EstablishPath(int north, int south) {
  assert(north >= 0 && north < ports_ && south >= 0 && south < ports_);
  // Verify both logical mirrors are alive (their mapped physical mirror is
  // functional; MemsArray remaps onto spares on failure).
  const int mirror_a = array_a_.PhysicalMirror(north);
  const int mirror_b = array_b_.PhysicalMirror(south);
  if (!array_a_.mirror(mirror_a).functional || !array_b_.mirror(mirror_b).functional) {
    return std::nullopt;
  }

  common::Rng rng = common::Rng::Stream(seed_, PathKey(north, south, mirror_a, mirror_b));
  double ax = 0.0, ay = 0.0, bx = 0.0, by = 0.0;
  TargetAngles(north, south, &ax, &ay);
  TargetAngles(south, north, &bx, &by);
  array_a_.Actuate(rng, north, ax, ay);
  array_b_.Actuate(rng, south, bx, by);

  const AlignmentResult ra = alignment_.Align(rng, array_a_, north);
  const AlignmentResult rb = alignment_.Align(rng, array_b_, south);

  CorePathMetrics metrics = MeasurePath(north, south);
  metrics.alignment_time_ms = std::max(ra.elapsed_ms, rb.elapsed_ms);
  metrics.alignment_iterations = std::max(ra.iterations, rb.iterations);
  return metrics;
}

CorePathMetrics OpticalCore::MeasurePath(int north, int south) const {
  const CollimatorPort& in = collimator_north_.port(north);
  const CollimatorPort& out = collimator_south_.port(south);
  Decibel loss{kBaseCoreLossDb};
  loss += in.coupling_loss + in.pigtail_loss;
  loss += out.coupling_loss + out.pigtail_loss;
  loss += MisalignmentLoss(array_a_.PointingError(north));
  loss += MisalignmentLoss(array_b_.PointingError(south));
  return CorePathMetrics{
      .insertion_loss = loss,
      .return_loss = std::max(in.return_loss, out.return_loss),
      .alignment_time_ms = 0.0,
      .alignment_iterations = 0,
  };
}

bool OpticalCore::FailMirror(int array_index, int physical_mirror) {
  MemsArray& array = array_index == 0 ? array_a_ : array_b_;
  common::Rng rng = common::Rng::Stream(seed_, SpareKey(array_index, physical_mirror));
  return array.FailMirror(rng, physical_mirror);
}

}  // namespace lightwave::ocs
