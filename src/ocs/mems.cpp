#include "ocs/mems.h"

#include <cassert>
#include <cmath>

namespace lightwave::ocs {

MemsArray::MemsArray(common::Rng& rng, double mirror_yield) {
  // Fabricate until the die qualifies (the paper's yield strategy: 176
  // fabricated so that >= 136 qualify with near-certainty).
  for (int attempt = 0; attempt < 1000; ++attempt) {
    mirrors_.assign(kFabricatedMirrors, MirrorState{});
    std::vector<int> qualified;
    for (int i = 0; i < kFabricatedMirrors; ++i) {
      const bool good = rng.Bernoulli(mirror_yield);
      mirrors_[static_cast<std::size_t>(i)].functional = good;
      if (good) qualified.push_back(i);
    }
    if (static_cast<int>(qualified.size()) >= kUsedMirrors) {
      logical_to_physical_.assign(qualified.begin(), qualified.begin() + kUsedMirrors);
      spare_pool_.assign(qualified.begin() + kUsedMirrors, qualified.end());
      return;
    }
  }
  assert(false && "MEMS die yield catastrophically low");
}

int MemsArray::PhysicalMirror(int logical) const {
  assert(logical >= 0 && logical < kUsedMirrors);
  return logical_to_physical_[static_cast<std::size_t>(logical)];
}

void MemsArray::Actuate(common::Rng& rng, int logical, double x, double y) {
  MirrorState& m = mirrors_[static_cast<std::size_t>(PhysicalMirror(logical))];
  assert(m.functional);
  m.target_x = x;
  m.target_y = y;
  m.actual_x = rng.Gaussian(x, kOpenLoopErrorStd);
  m.actual_y = rng.Gaussian(y, kOpenLoopErrorStd);
}

bool MemsArray::FailMirror(common::Rng& rng, int physical) {
  assert(physical >= 0 && physical < kFabricatedMirrors);
  MirrorState& m = mirrors_[static_cast<std::size_t>(physical)];
  if (!m.functional) return true;  // already failed, nothing to remap
  m.functional = false;
  // If a logical slot was using this mirror, remap to a spare.
  for (auto& phys : logical_to_physical_) {
    if (phys == physical) {
      if (spare_pool_.empty()) return false;
      phys = spare_pool_.back();
      spare_pool_.pop_back();
      // The substituted mirror starts unaligned.
      MirrorState& sub = mirrors_[static_cast<std::size_t>(phys)];
      sub.actual_x = rng.Gaussian(sub.target_x, kOpenLoopErrorStd);
      sub.actual_y = rng.Gaussian(sub.target_y, kOpenLoopErrorStd);
      return true;
    }
  }
  return true;  // failed mirror was an unmapped spare or already-dead unit
}

int MemsArray::SparesRemaining() const { return static_cast<int>(spare_pool_.size()); }

int MemsArray::FunctionalCount() const {
  int count = 0;
  for (const auto& m : mirrors_) count += m.functional ? 1 : 0;
  return count;
}

double MemsArray::PointingError(int logical) const {
  const MirrorState& m = mirrors_[static_cast<std::size_t>(PhysicalMirror(logical))];
  const double dx = m.actual_x - m.target_x;
  const double dy = m.actual_y - m.target_y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace lightwave::ocs
