// Slices (§4.2): a slice is a 3D torus of a x b x c cubes (4a x 4b x 4c
// chips) composed by programming the lightwave fabric. The minimum increment
// is one 4x4x4 cube; a full 4096-chip pod ranges from 4x4x256 to 16x16x16
// chips. This module turns a shape plus a cube assignment into the exact
// north->south circuits of each OCS, and computes the topology metrics
// (bisection bandwidth, diameter) the evaluation relies on. Appendix A wires
// a cube's + and - faces of one dimension to the same OCS, so every OCS of a
// dimension carries the same cube-level rings: a slice's circuits are three
// ring lists of one (north, south) pair per cube.
#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tpu/cube.h"
#include "tpu/wiring.h"

namespace lightwave::tpu {

/// Shape in cube units; chip shape is 4a x 4b x 4c.
struct SliceShape {
  int a = 1;
  int b = 1;
  int c = 1;

  int CubeCount() const { return a * b * c; }
  int ChipCount() const { return CubeCount() * kChipsPerCube; }
  int ChipDim(Dim d) const;
  std::string ToString() const;        // chip dims, e.g. "16x16x16"
  std::string ToCubeString() const;    // cube dims, e.g. "4x4x4"
  auto operator<=>(const SliceShape&) const = default;
};

/// All ordered shapes with the given cube count (e.g. 64 -> (1,1,64),
/// (1,64,1), ..., (4,4,4)).
std::vector<SliceShape> EnumerateShapes(int cubes);
/// Only shapes unique up to permutation, smallest dims first.
std::vector<SliceShape> EnumerateCanonicalShapes(int cubes);

/// A slice: shape plus the physical cube occupying each logical position.
class SliceTopology {
 public:
  /// `cube_ids[i]` is the physical cube at logical position i, row-major
  /// with the `a` dimension fastest. Fails unless cube_ids.size() matches
  /// the shape and ids are unique.
  static common::Result<SliceTopology> Create(SliceShape shape, std::vector<int> cube_ids);

  const SliceShape& shape() const { return shape_; }
  const std::vector<int>& cube_ids() const { return cube_ids_; }

  int CubeAt(int ia, int ib, int ic) const;

  /// The circuits every OCS of dimension `dim` carries for this slice, one
  /// per cube in logical order: north = the cube, south = the next cube on
  /// its ring along `dim`, wrapping (a length-1 ring self-loops, so the cube
  /// still sees a closed 4x4x4 torus). Cube c owns north and south port c
  /// (tpu/wiring.h), so the pairs are port pairs too. Walks the slice in
  /// place into `out`, which must hold CubeCount() pairs, and returns the
  /// part written; it allocates nothing.
  std::span<const std::pair<int, int>> RingCircuits(Dim dim,
                                                    std::span<std::pair<int, int>> out) const;

  /// The same circuits per OCS (keyed by the plan's OCS id; value maps
  /// north port -> south port): each OCS of a dimension carries that
  /// dimension's RingCircuits.
  std::map<int, std::map<int, int>> OcsConnections(const WiringPlan& plan) const;

  /// Optical links crossing the worst-case bisection of the slice (the
  /// paper's figure of merit for shape quality; 16x16x16 maximizes it).
  int BisectionLinks(const WiringPlan& plan) const;
  /// Bisection links across one specific dimension.
  int BisectionLinksAcross(Dim d, const WiringPlan& plan) const;

  /// Hop diameter of the cube-level torus (max over dims of floor(len/2)).
  int CubeDiameter() const;

 private:
  SliceTopology(SliceShape shape, std::vector<int> cube_ids)
      : shape_(shape), cube_ids_(std::move(cube_ids)) {}

  SliceShape shape_;
  std::vector<int> cube_ids_;
};

}  // namespace lightwave::tpu
