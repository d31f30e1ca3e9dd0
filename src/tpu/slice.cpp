#include "tpu/slice.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <sstream>

namespace lightwave::tpu {

int SliceShape::ChipDim(Dim d) const {
  switch (d) {
    case Dim::kX: return a * kCubeEdge;
    case Dim::kY: return b * kCubeEdge;
    case Dim::kZ: return c * kCubeEdge;
  }
  return 0;
}

std::string SliceShape::ToString() const {
  std::ostringstream out;
  out << a * kCubeEdge << "x" << b * kCubeEdge << "x" << c * kCubeEdge;
  return out.str();
}

std::string SliceShape::ToCubeString() const {
  std::ostringstream out;
  out << a << "x" << b << "x" << c;
  return out.str();
}

std::vector<SliceShape> EnumerateShapes(int cubes) {
  std::vector<SliceShape> shapes;
  for (int a = 1; a <= cubes; ++a) {
    if (cubes % a != 0) continue;
    const int bc = cubes / a;
    for (int b = 1; b <= bc; ++b) {
      if (bc % b != 0) continue;
      shapes.push_back(SliceShape{a, b, bc / b});
    }
  }
  return shapes;
}

std::vector<SliceShape> EnumerateCanonicalShapes(int cubes) {
  std::set<std::array<int, 3>> seen;
  std::vector<SliceShape> canonical;
  for (const auto& s : EnumerateShapes(cubes)) {
    std::array<int, 3> key = {s.a, s.b, s.c};
    std::sort(key.begin(), key.end());
    if (seen.insert(key).second) {
      canonical.push_back(SliceShape{key[0], key[1], key[2]});
    }
  }
  return canonical;
}

common::Result<SliceTopology> SliceTopology::Create(SliceShape shape,
                                                    std::vector<int> cube_ids) {
  if (shape.a < 1 || shape.b < 1 || shape.c < 1) {
    return common::InvalidArgument("slice shape dims must be >= 1");
  }
  // In 64 bits: the int product of three dimensions can overflow.
  const std::int64_t cubes = std::int64_t{shape.a} * shape.b * shape.c;
  if (static_cast<std::int64_t>(cube_ids.size()) != cubes) {
    return common::InvalidArgument("cube id count does not match shape");
  }
  // Pairwise: a slice holds at most a pod's cubes, and nothing is allocated.
  for (auto id = cube_ids.begin(); id != cube_ids.end(); ++id) {
    if (std::find(cube_ids.begin(), id, *id) != id) {
      return common::InvalidArgument("duplicate cube id in slice");
    }
  }
  for (int id : cube_ids) {
    if (id < 0) return common::InvalidArgument("negative cube id");
  }
  return SliceTopology(shape, std::move(cube_ids));
}

int SliceTopology::CubeAt(int ia, int ib, int ic) const {
  assert(ia >= 0 && ia < shape_.a && ib >= 0 && ib < shape_.b && ic >= 0 && ic < shape_.c);
  return cube_ids_[static_cast<std::size_t>(ia + shape_.a * (ib + shape_.b * ic))];
}

std::span<const std::pair<int, int>> SliceTopology::RingCircuits(
    Dim dim, std::span<std::pair<int, int>> out) const {
  // Logical position p = ia + a * (ib + b * ic): along `dim` the ring has
  // `len` cubes, `stride` positions apart.
  int len = shape_.a, stride = 1;
  if (dim == Dim::kY) {
    len = shape_.b;
    stride = shape_.a;
  } else if (dim == Dim::kZ) {
    len = shape_.c;
    stride = shape_.a * shape_.b;
  }
  const std::size_t n = cube_ids_.size();
  assert(out.size() >= n);
  for (std::size_t p = 0; p < n; ++p) {
    // cube p's +face (north port) connects to the next cube's -face (south
    // port); the last cube of a ring wraps to its first.
    const bool last = static_cast<int>(p) / stride % len == len - 1;
    const std::size_t next = last ? p - static_cast<std::size_t>((len - 1) * stride)
                                  : p + static_cast<std::size_t>(stride);
    out[p] = {cube_ids_[p], cube_ids_[next]};
  }
  return out.first(n);
}

std::map<int, std::map<int, int>> SliceTopology::OcsConnections(const WiringPlan& plan) const {
  std::map<int, std::map<int, int>> connections;
  std::vector<std::pair<int, int>> ring(cube_ids_.size());
  for (Dim dim : kAllDims) {
    const auto circuits = RingCircuits(dim, ring);
    const std::map<int, int> carried(circuits.begin(), circuits.end());
    for (int f = 0; f < plan.ocs_per_dim(); ++f) {
      connections.emplace_hint(connections.end(), plan.OcsFor(dim, f), carried);
    }
  }
  return connections;
}

int SliceTopology::BisectionLinksAcross(Dim d, const WiringPlan& plan) const {
  // Cutting the torus across dimension d: every cube-line along d crosses
  // the cut twice (wraparound), except length-1 lines whose self-loop never
  // leaves the cube. Each crossing carries `ocs_per_dim` optical links.
  int len = 0, lines = 0;
  switch (d) {
    case Dim::kX: len = shape_.a; lines = shape_.b * shape_.c; break;
    case Dim::kY: len = shape_.b; lines = shape_.a * shape_.c; break;
    case Dim::kZ: len = shape_.c; lines = shape_.a * shape_.b; break;
  }
  if (len < 2) return 0;  // cannot cut a length-1 dimension between cubes
  const int crossings_per_line = 2;
  return lines * crossings_per_line * plan.ocs_per_dim();
}

int SliceTopology::BisectionLinks(const WiringPlan& plan) const {
  int best = 0;
  bool any = false;
  for (Dim d : kAllDims) {
    const int links = BisectionLinksAcross(d, plan);
    if (links == 0) continue;  // length-1 dim: no inter-cube cut there
    best = any ? std::min(best, links) : links;
    any = true;
  }
  return any ? best : 0;
}

int SliceTopology::CubeDiameter() const {
  return shape_.a / 2 + shape_.b / 2 + shape_.c / 2;
}

}  // namespace lightwave::tpu
