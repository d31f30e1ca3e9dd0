// Tests for the torus traffic-pattern analysis.
#include <gtest/gtest.h>

#include "sim/torus_traffic.h"
#include <set>
#include <tuple>

namespace lightwave::sim {
namespace {

const tpu::SliceShape kShape{2, 2, 2};  // 8x8x8 chips

TEST(TorusTraffic, NeighborShiftIsPerfectlyBalanced) {
  const auto pattern = NeighborShift(kShape, tpu::Dim::kX);
  const auto analysis = AnalyzePattern(kShape, pattern, "shift", 1e6);
  EXPECT_EQ(analysis.peak_link_load, 1);
  EXPECT_NEAR(analysis.mean_link_load, 1.0, 1e-12);
  EXPECT_NEAR(analysis.mean_hops_per_flow, 1.0, 1e-12);
  EXPECT_NEAR(analysis.link_efficiency, 1.0, 1e-9);
}

std::size_t UniqueDestinations(const Pattern& pattern) {
  std::set<std::tuple<int, int, int>> dsts;
  for (const auto& [src, dst] : pattern) dsts.insert({dst.x, dst.y, dst.z});
  return dsts.size();
}

TEST(TorusTraffic, PatternsCoverEveryChipOnce) {
  // NeighborShift, Opposite and RandomPermutation are permutations on any
  // shape: every chip receives exactly one flow. Transpose is one on a cubic
  // shape only; on an asymmetric one its destinations collide.
  const tpu::SliceShape skewed{1, 2, 4};  // 4x8x16 chips
  for (const tpu::SliceShape& shape : {kShape, skewed}) {
    for (const auto& pattern : {NeighborShift(shape, tpu::Dim::kZ), Opposite(shape),
                                RandomPermutation(shape, 9)}) {
      EXPECT_EQ(pattern.size(), 512u);
      EXPECT_EQ(UniqueDestinations(pattern), 512u);
    }
  }
  EXPECT_EQ(UniqueDestinations(Transpose(kShape)), 512u);
  const auto transposed = Transpose(skewed);
  EXPECT_EQ(transposed.size(), 512u);
  EXPECT_LE(UniqueDestinations(transposed), 512u);
}

TEST(TorusTraffic, OppositeCornerIsWorstDistance) {
  const auto shift = AnalyzePattern(kShape, NeighborShift(kShape, tpu::Dim::kX), "s", 1e6);
  const auto opposite = AnalyzePattern(kShape, Opposite(kShape), "o", 1e6);
  EXPECT_GT(opposite.mean_hops_per_flow, shift.mean_hops_per_flow);
  // 8x8x8 torus: opposite corner = 4+4+4 = 12 hops for every flow.
  EXPECT_NEAR(opposite.mean_hops_per_flow, 12.0, 1e-12);
}

TEST(TorusTraffic, RandomPermutationConcentratesLoad) {
  const auto shift = AnalyzePattern(kShape, NeighborShift(kShape, tpu::Dim::kX), "s", 1e6);
  const auto random = AnalyzePattern(kShape, RandomPermutation(kShape, 11), "r", 1e6);
  EXPECT_GT(random.peak_link_load, shift.peak_link_load);
  EXPECT_GT(random.completion_us, shift.completion_us);
  EXPECT_LT(random.link_efficiency, 1.0);
}

TEST(TorusTraffic, CompletionScalesWithBytes) {
  const auto pattern = Opposite(kShape);
  const auto small = AnalyzePattern(kShape, pattern, "x", 1e6);
  const auto large = AnalyzePattern(kShape, pattern, "x", 4e6);
  EXPECT_NEAR(large.completion_us, 4.0 * small.completion_us, 1e-6);
}

TEST(TorusTraffic, AsymmetricSliceShapesChangeBalance) {
  // On 4x4x256 chips, Z-opposite traffic travels 128 hops in z.
  const tpu::SliceShape skinny{1, 1, 64};
  const auto analysis = AnalyzePattern(skinny, Opposite(skinny), "opp", 1e6);
  EXPECT_NEAR(analysis.mean_hops_per_flow, 2.0 + 2.0 + 128.0, 1e-9);
}

}  // namespace
}  // namespace lightwave::sim
