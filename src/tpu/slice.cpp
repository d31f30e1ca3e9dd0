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
  std::set<int> unique(cube_ids.begin(), cube_ids.end());
  if (unique.size() != cube_ids.size()) {
    return common::InvalidArgument("duplicate cube id in slice");
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

std::map<int, std::map<int, int>> SliceTopology::OcsConnections(const WiringPlan& plan) const {
  std::map<int, std::map<int, int>> connections;
  // For each dimension, walk every line of cubes along it and emit the ring
  // A+ -> B- for consecutive cubes (wrapping). Every face-position OCS of
  // that dimension carries an identical cube-level ring.
  auto emit_ring = [&](Dim dim, const std::vector<int>& ring) {
    for (int f = 0; f < plan.ocs_per_dim(); ++f) {
      const int ocs = plan.OcsFor(dim, f);
      auto& target = connections[ocs];
      const int n = static_cast<int>(ring.size());
      for (int k = 0; k < n; ++k) {
        const int from = ring[static_cast<std::size_t>(k)];
        const int to = ring[static_cast<std::size_t>((k + 1) % n)];
        // cube `from`'s +face (north port `from`) connects to cube `to`'s
        // -face (south port `to`); a 1-cube ring self-loops for wraparound.
        target[from] = to;
      }
    }
  };

  for (int ib = 0; ib < shape_.b; ++ib) {
    for (int ic = 0; ic < shape_.c; ++ic) {
      std::vector<int> ring;
      for (int ia = 0; ia < shape_.a; ++ia) ring.push_back(CubeAt(ia, ib, ic));
      emit_ring(Dim::kX, ring);
    }
  }
  for (int ia = 0; ia < shape_.a; ++ia) {
    for (int ic = 0; ic < shape_.c; ++ic) {
      std::vector<int> ring;
      for (int ib = 0; ib < shape_.b; ++ib) ring.push_back(CubeAt(ia, ib, ic));
      emit_ring(Dim::kY, ring);
    }
  }
  for (int ia = 0; ia < shape_.a; ++ia) {
    for (int ib = 0; ib < shape_.b; ++ib) {
      std::vector<int> ring;
      for (int ic = 0; ic < shape_.c; ++ic) ring.push_back(CubeAt(ia, ib, ic));
      emit_ring(Dim::kZ, ring);
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
