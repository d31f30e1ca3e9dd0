// The Palomar optical core (Fig. 4): input/output signals enter through two
// 2D fiber collimator arrays and bounce off two MEMS mirror arrays. A
// connection (north port N -> south port S) uses mirror N on array A and
// mirror S on array B; both are steered and then closed-loop aligned using
// the camera path. The core is broadband and reciprocal: the same path
// carries both directions of a bidi link.
//
// A circuit's physics is a function of its path alone: EstablishPath draws
// the actuation and alignment noise from a stream keyed on the two
// collimator ports and the two physical mirrors, so the same path re-draws
// the same loss and alignment time whatever was programmed before it, and a
// spare mirror mapped in after a failure draws afresh.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "ocs/alignment.h"
#include "ocs/collimator.h"
#include "ocs/mems.h"

namespace lightwave::ocs {

struct CorePathMetrics {
  common::Decibel insertion_loss;
  /// Worst single-interface return loss along the path (links care about
  /// the dominant reflector).
  common::Decibel return_loss;
  double alignment_time_ms = 0.0;
  int alignment_iterations = 0;
};

class OpticalCore {
 public:
  /// Fabricates the collimator arrays and mirror dies from `rng`, then takes
  /// one more word from it as the seed of every circuit's stream.
  OpticalCore(common::Rng rng, int ports = kUsedMirrors);

  int port_count() const { return ports_; }

  /// Steers the two mirrors for the (north, south) pair and runs closed-loop
  /// alignment, drawing from Rng::Stream(seed, path key): the key packs the
  /// two collimator ports and the physical mirror behind each, so the draws
  /// depend on nothing else. Returns nullopt if either mirror chain is dead
  /// (no spares).
  std::optional<CorePathMetrics> EstablishPath(int north, int south);

  /// Loss of an established path without re-aligning (telemetry readback).
  CorePathMetrics MeasurePath(int north, int south) const;

  /// Injects a mirror failure on one of the arrays (0 = north-side array A,
  /// 1 = south-side array B). The substituted spare's open-loop error draws
  /// from a stream keyed on (array, physical mirror). Returns false when the
  /// spare pool is empty and the port becomes unusable.
  bool FailMirror(int array_index, int physical_mirror);

  const MemsArray& array_a() const { return array_a_; }
  const MemsArray& array_b() const { return array_b_; }

  /// Base (perfectly aligned) loss through the core: two mirror reflections
  /// plus free-space propagation and the dichroic combiner/splitter.
  static constexpr double kBaseCoreLossDb = 0.5;

 private:
  /// Beam steering target for connecting logical mirror `from` on one array
  /// toward logical mirror `to` on the other; a simple geometric fan-out
  /// over the 2D grid.
  static void TargetAngles(int from, int to, double* x, double* y);

  int ports_;
  CollimatorArray collimator_north_;
  CollimatorArray collimator_south_;
  MemsArray array_a_;
  MemsArray array_b_;
  AlignmentController alignment_;
  /// Seed of the per-path and per-spare streams; drawn after fabrication.
  std::uint64_t seed_;
};

}  // namespace lightwave::ocs
