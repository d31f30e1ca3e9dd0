// Tests for chip-level dimension-ordered torus routing: correctness of the
// shortest-path property, wraparound, electrical/optical hop classification,
// and load analysis.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tpu/routing.h"

namespace lightwave::tpu {
namespace {

TEST(Routing, TrivialRouteIsEmpty) {
  TorusRouter router(SliceShape{2, 2, 2});
  const SliceChipCoord p{3, 5, 7};
  const auto route = router.ComputeRoute(p, p);
  EXPECT_TRUE(route.hops.empty());
  EXPECT_EQ(route.latency_us, 0.0);
}

TEST(Routing, RouteEndsAtDestinationAndMatchesDistance) {
  TorusRouter router(SliceShape{2, 4, 8});
  const SliceChipCoord src{0, 1, 2};
  const SliceChipCoord dst{7, 14, 30};
  const auto route = router.ComputeRoute(src, dst);
  ASSERT_FALSE(route.hops.empty());
  EXPECT_EQ(route.hops.back().to, dst);
  EXPECT_EQ(static_cast<int>(route.hops.size()), router.Distance(src, dst));
}

TEST(Routing, TakesShorterWayAround) {
  TorusRouter router(SliceShape{4, 1, 1});  // 16 chips in x
  // 0 -> 13: going - (3 hops) beats + (13 hops).
  const auto route = router.ComputeRoute({0, 0, 0}, {13, 0, 0});
  EXPECT_EQ(route.hops.size(), 3u);
  EXPECT_EQ(route.hops.front().direction, -1);
}

TEST(Routing, DimensionOrderXThenYThenZ) {
  TorusRouter router(SliceShape{2, 2, 2});
  const auto route = router.ComputeRoute({0, 0, 0}, {1, 1, 1});
  ASSERT_EQ(route.hops.size(), 3u);
  EXPECT_EQ(route.hops[0].dim, Dim::kX);
  EXPECT_EQ(route.hops[1].dim, Dim::kY);
  EXPECT_EQ(route.hops[2].dim, Dim::kZ);
}

TEST(Routing, IntraCubeHopsAreElectrical) {
  TorusRouter router(SliceShape{2, 2, 2});
  // 0 -> 3 in x stays inside the first cube: all electrical.
  const auto route = router.ComputeRoute({0, 0, 0}, {3, 0, 0});
  EXPECT_EQ(route.electrical_hops, 3);
  EXPECT_EQ(route.optical_hops, 0);
}

TEST(Routing, CubeBoundaryHopIsOptical) {
  TorusRouter router(SliceShape{2, 2, 2});
  // 3 -> 4 in x crosses the cube boundary.
  const auto route = router.ComputeRoute({3, 0, 0}, {4, 0, 0});
  ASSERT_EQ(route.hops.size(), 1u);
  EXPECT_TRUE(route.hops[0].optical);
}

TEST(Routing, SingleCubeWraparoundIsOptical) {
  // A 1-cube dimension wraps through the OCS self-loop.
  TorusRouter router(SliceShape{1, 1, 1});
  const auto route = router.ComputeRoute({3, 0, 0}, {0, 0, 0});
  ASSERT_EQ(route.hops.size(), 1u);  // wrap 3 -> 0 is one hop
  EXPECT_TRUE(route.hops[0].optical);
}

TEST(Routing, NegativeDirectionBoundaryIsOptical) {
  TorusRouter router(SliceShape{2, 1, 1});
  // 4 -> 3 in x leaves the bottom of cube 1.
  const auto route = router.ComputeRoute({4, 0, 0}, {3, 0, 0});
  ASSERT_EQ(route.hops.size(), 1u);
  EXPECT_EQ(route.hops[0].direction, -1);
  EXPECT_TRUE(route.hops[0].optical);
}

TEST(Routing, LatencyAccumulatesByHopClass) {
  IciLinkSpec spec;
  TorusRouter router(SliceShape{2, 1, 1}, spec);
  const auto route = router.ComputeRoute({0, 0, 0}, {4, 0, 0});
  // Hops 0->1->2->3 electrical, 3->4 optical.
  EXPECT_EQ(route.electrical_hops, 3);
  EXPECT_EQ(route.optical_hops, 1);
  EXPECT_NEAR(route.latency_us, 3 * spec.electrical_hop_us + spec.optical_hop_us, 1e-12);
}

TEST(Routing, DiameterAndMeanDistance) {
  TorusRouter router(SliceShape{4, 4, 4});  // 16x16x16
  EXPECT_EQ(router.DiameterHops(), 24);
  EXPECT_NEAR(router.MeanDistanceHops(), 12.0, 1e-9);  // 3 * 16/4
}

TEST(Routing, DistanceSymmetric) {
  TorusRouter router(SliceShape{2, 4, 8});
  const SliceChipCoord a{1, 10, 3};
  const SliceChipCoord b{6, 2, 29};
  EXPECT_EQ(router.Distance(a, b), router.Distance(b, a));
}

TEST(Routing, LoadAnalysisCountsAllHops) {
  TorusRouter router(SliceShape{2, 2, 2});
  std::vector<std::pair<SliceChipCoord, SliceChipCoord>> pairs = {
      {{0, 0, 0}, {4, 0, 0}},
      {{0, 0, 0}, {0, 4, 0}},
      {{1, 1, 1}, {1, 1, 1}},
  };
  const auto load = router.AnalyzeLoad(pairs);
  EXPECT_EQ(load.total_hops, 8);  // 4 + 4 + 0
  EXPECT_GE(load.peak_electrical, 1);
  EXPECT_GE(load.peak_optical, 1);
}

TEST(Routing, NearestNeighborTrafficBalanced) {
  // +x neighbour shifts load every +x link exactly once.
  TorusRouter router(SliceShape{2, 2, 2});
  std::vector<std::pair<SliceChipCoord, SliceChipCoord>> pairs;
  const auto dims = SliceChipDims(SliceShape{2, 2, 2});
  for (int x = 0; x < dims.x; ++x) {
    for (int y = 0; y < dims.y; ++y) {
      for (int z = 0; z < dims.z; ++z) {
        pairs.push_back({{x, y, z}, {(x + 1) % dims.x, y, z}});
      }
    }
  }
  const auto load = router.AnalyzeLoad(pairs);
  EXPECT_EQ(load.total_hops, static_cast<std::int64_t>(pairs.size()));
  EXPECT_EQ(load.peak_electrical, 1);
  EXPECT_EQ(load.peak_optical, 1);
  EXPECT_NEAR(load.mean_load, 1.0, 1e-12);
}

class RoutingShapeSweep : public ::testing::TestWithParam<SliceShape> {};

TEST_P(RoutingShapeSweep, RandomRoutesMatchDistance) {
  TorusRouter router(GetParam());
  common::Rng rng(17);
  const auto dims = SliceChipDims(GetParam());
  for (int i = 0; i < 200; ++i) {
    const SliceChipCoord src{
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.x))),
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.y))),
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.z)))};
    const SliceChipCoord dst{
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.x))),
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.y))),
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(dims.z)))};
    const auto route = router.ComputeRoute(src, dst);
    EXPECT_EQ(static_cast<int>(route.hops.size()), router.Distance(src, dst));
    if (!route.hops.empty()) {
      EXPECT_EQ(route.hops.back().to, dst);
    }
    EXPECT_LE(static_cast<int>(route.hops.size()), router.DiameterHops());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RoutingShapeSweep,
                         ::testing::Values(SliceShape{1, 1, 1}, SliceShape{1, 2, 4},
                                           SliceShape{4, 4, 4}, SliceShape{1, 1, 16}),
                         [](const auto& info) {
                           std::string s = info.param.ToCubeString();
                           for (auto& c : s) {
                             if (c == 'x') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace lightwave::tpu
