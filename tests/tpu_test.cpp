// Unit tests for the TPU substrate: cube geometry and health, the
// Appendix-A wiring plan, slice shapes / topology / OCS connection sets /
// bisection math, and the superpod install/remove/failure flows.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tpu/cube.h"
#include "tpu/slice.h"
#include "tpu/superpod.h"
#include "tpu/wiring.h"

namespace lightwave::tpu {
namespace {

// --- cube --------------------------------------------------------------------

TEST(CubeTest, Geometry) {
  EXPECT_EQ(kChipsPerCube, 64);
  EXPECT_EQ(kHostsPerCube, 16);
  EXPECT_EQ(kFaceLinks, 16);
  EXPECT_EQ(kOpticalLinksPerCube, 96);
}

TEST(CubeTest, CoordRoundTrip) {
  for (int i = 0; i < kChipsPerCube; ++i) {
    EXPECT_EQ(Cube::IndexOf(Cube::CoordOf(i)), i);
  }
}

TEST(CubeTest, CoordsInRange) {
  for (int i = 0; i < kChipsPerCube; ++i) {
    const auto c = Cube::CoordOf(i);
    EXPECT_GE(c.x, 0);
    EXPECT_LT(c.x, kCubeEdge);
    EXPECT_GE(c.y, 0);
    EXPECT_LT(c.y, kCubeEdge);
    EXPECT_GE(c.z, 0);
    EXPECT_LT(c.z, kCubeEdge);
  }
}

TEST(CubeTest, HostOwnsFourChips) {
  EXPECT_EQ(Cube::HostOf(0), 0);
  EXPECT_EQ(Cube::HostOf(3), 0);
  EXPECT_EQ(Cube::HostOf(4), 1);
  EXPECT_EQ(Cube::HostOf(63), 15);
}

TEST(CubeTest, HostFailureKillsItsChipsAndCube) {
  Cube cube(0);
  EXPECT_TRUE(cube.Healthy());
  cube.SetHostHealth(2, false);
  EXPECT_FALSE(cube.Healthy());
  for (int chip = 8; chip < 12; ++chip) EXPECT_FALSE(cube.chip(chip).healthy);
  EXPECT_TRUE(cube.chip(0).healthy);
  cube.Restore();
  EXPECT_TRUE(cube.Healthy());
}

TEST(CubeTest, SingleChipFailureDegradesCube) {
  Cube cube(1);
  cube.SetChipHealth(17, false);
  EXPECT_FALSE(cube.Healthy());
}

TEST(CubeTest, HealthyMatchesFlagsUnderRandomOps) {
  // Healthy() is a count the setters keep; after every call it must equal
  // the per-host and per-chip flags it summarizes.
  auto every_flag_healthy = [](const Cube& cube) {
    for (int h = 0; h < cube.host_count(); ++h) {
      if (!cube.host(h).healthy) return false;
    }
    for (int c = 0; c < cube.chip_count(); ++c) {
      if (!cube.chip(c).healthy) return false;
    }
    return true;
  };
  Cube cube(2);
  // A host restored while its chips stay dead leaves the cube down.
  cube.SetHostHealth(5, false);
  cube.SetHostHealth(5, true);
  EXPECT_TRUE(cube.host(5).healthy);
  EXPECT_FALSE(cube.chip(20).healthy);
  EXPECT_FALSE(cube.Healthy());
  for (int chip = 20; chip < 24; ++chip) cube.SetChipHealth(chip, true);
  EXPECT_TRUE(cube.Healthy());

  // Random calls with both values over hosts 0-1 and their 8 chips, so the
  // cube also comes back up through the setters, not only via Restore.
  common::Rng rng(17);
  int restores = 0, healthy_again = 0, unhealthy = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool was_healthy = cube.Healthy();
    const bool healthy = rng.Bernoulli(0.7);
    const std::uint64_t op = rng.UniformInt(40);
    if (op == 0) {
      cube.Restore();
      ++restores;
    } else if (op < 10) {
      cube.SetHostHealth(static_cast<int>(rng.UniformInt(2)), healthy);
    } else {
      cube.SetChipHealth(static_cast<int>(rng.UniformInt(2 * kChipsPerHost)), healthy);
    }
    ASSERT_EQ(cube.Healthy(), every_flag_healthy(cube)) << "step " << step;
    if (!cube.Healthy()) ++unhealthy;
    if (op != 0 && !was_healthy && cube.Healthy()) ++healthy_again;
  }
  EXPECT_GT(restores, 0);
  EXPECT_GT(healthy_again, 0);
  EXPECT_GT(unhealthy, 0);
}

// --- wiring -------------------------------------------------------------------

TEST(Wiring, ProductionPlanCounts) {
  const WiringPlan plan;
  EXPECT_EQ(plan.cube_count(), 64);
  EXPECT_EQ(plan.ocs_count(), 48);
  EXPECT_EQ(plan.OpticalLinksPerCube(), 96);
}

TEST(Wiring, OcsIdsPartitionByDimension) {
  const WiringPlan plan;
  std::set<int> ids;
  for (Dim d : kAllDims) {
    for (int f = 0; f < plan.ocs_per_dim(); ++f) {
      const int id = plan.OcsFor(d, f);
      EXPECT_TRUE(ids.insert(id).second) << "duplicate ocs id " << id;
      EXPECT_EQ(plan.DimOfOcs(id), d);
      EXPECT_EQ(plan.FaceIndexOfOcs(id), f);
    }
  }
  EXPECT_EQ(static_cast<int>(ids.size()), plan.ocs_count());
}

TEST(Wiring, PlusAndMinusFacesShareOcsAndPortIndex) {
  // Appendix A: the +/- connections of a dimension land on the same OCS so
  // rings (including self-loop wraparound) are bijective N->S maps.
  const WiringPlan plan;
  const auto a = plan.AssignmentFor(17, Dim::kY, 5);
  EXPECT_EQ(a.ocs_id, plan.OcsFor(Dim::kY, 5));
  EXPECT_EQ(a.north_port, 17);
  EXPECT_EQ(a.south_port, 17);
}

TEST(Wiring, OcsCountPerTransceiverTechnology) {
  // §4.2.2: 96 / 48 / 24 OCSes for duplex CWDM4 / bidi CWDM4 / bidi CWDM8.
  EXPECT_EQ(OcsCountForTransceiver(false, 4), 96);
  EXPECT_EQ(OcsCountForTransceiver(true, 4), 48);
  EXPECT_EQ(OcsCountForTransceiver(true, 8), 24);
}

// --- slice shapes ----------------------------------------------------------------

TEST(Shapes, ChipDimsAreCubeTimesFour) {
  const SliceShape s{2, 4, 8};
  EXPECT_EQ(s.CubeCount(), 64);
  EXPECT_EQ(s.ChipCount(), 4096);
  EXPECT_EQ(s.ToString(), "8x16x32");
  EXPECT_EQ(s.ToCubeString(), "2x4x8");
}

TEST(Shapes, EnumerateOrderedShapesOf64) {
  const auto shapes = EnumerateShapes(64);
  // Ordered factor triples of 64 = 7 choose... verify count by direct
  // enumeration: sum over divisors a of d(64/a).
  EXPECT_EQ(shapes.size(), 28u);
  for (const auto& s : shapes) EXPECT_EQ(s.CubeCount(), 64);
}

TEST(Shapes, CanonicalShapesUnique) {
  const auto canonical = EnumerateCanonicalShapes(64);
  std::set<std::string> seen;
  for (const auto& s : canonical) {
    EXPECT_LE(s.a, s.b);
    EXPECT_LE(s.b, s.c);
    EXPECT_TRUE(seen.insert(s.ToCubeString()).second);
  }
  // 64 = 2^6: partitions of 6 into <= 3 parts -> 7 canonical shapes.
  EXPECT_EQ(canonical.size(), 7u);
}

TEST(Shapes, FullPodRangeMatchesPaper) {
  // §4.2: slice shapes for a full pod range 4x4x256 .. 16x16x16.
  const auto shapes = EnumerateCanonicalShapes(64);
  bool has_asymmetric = false, has_symmetric = false;
  for (const auto& s : shapes) {
    if (s.ToString() == "4x4x256") has_asymmetric = true;
    if (s.ToString() == "16x16x16") has_symmetric = true;
  }
  EXPECT_TRUE(has_asymmetric);
  EXPECT_TRUE(has_symmetric);
}

// --- slice topology ---------------------------------------------------------------

SliceTopology MakeSlice(SliceShape shape, int first_cube = 0) {
  std::vector<int> ids;
  for (int i = 0; i < shape.CubeCount(); ++i) ids.push_back(first_cube + i);
  auto result = SliceTopology::Create(shape, std::move(ids));
  EXPECT_TRUE(result.ok());
  return result.value();
}

TEST(Slice, CreateValidations) {
  EXPECT_FALSE(SliceTopology::Create(SliceShape{1, 1, 2}, {0}).ok());       // count
  EXPECT_FALSE(SliceTopology::Create(SliceShape{65536, 65536, 1}, {}).ok());  // 2^32 cubes
  EXPECT_FALSE(SliceTopology::Create(SliceShape{1, 1, 2}, {0, 0}).ok());    // dup
  EXPECT_FALSE(SliceTopology::Create(SliceShape{1, 1, 2}, {0, -1}).ok());   // negative
  EXPECT_TRUE(SliceTopology::Create(SliceShape{1, 1, 2}, {5, 9}).ok());
}

TEST(Slice, SingleCubeSelfLoops) {
  const WiringPlan plan(64, 16);
  const auto slice = MakeSlice(SliceShape{1, 1, 1}, 7);
  const auto conns = slice.OcsConnections(plan);
  // Every OCS of every dimension carries the self-loop 7 -> 7.
  EXPECT_EQ(conns.size(), 48u);
  for (const auto& [ocs, target] : conns) {
    ASSERT_EQ(target.size(), 1u);
    EXPECT_EQ(target.at(7), 7);
  }
}

TEST(Slice, TwoCubeRingAlongZ) {
  const WiringPlan plan(64, 16);
  const auto slice = MakeSlice(SliceShape{1, 1, 2}, 10);
  const auto conns = slice.OcsConnections(plan);
  for (const auto& [ocs, target] : conns) {
    const Dim d = plan.DimOfOcs(ocs);
    if (d == Dim::kZ) {
      // Ring 10 -> 11 -> 10.
      EXPECT_EQ(target.at(10), 11);
      EXPECT_EQ(target.at(11), 10);
    } else {
      // Self-loops in the length-1 dimensions.
      EXPECT_EQ(target.at(10), 10);
      EXPECT_EQ(target.at(11), 11);
    }
  }
}

TEST(Slice, ConnectionsAreBijectivePerOcs) {
  const WiringPlan plan(64, 16);
  const auto slice = MakeSlice(SliceShape{2, 4, 8});
  for (const auto& [ocs, target] : slice.OcsConnections(plan)) {
    std::set<int> souths;
    for (const auto& [n, s] : target) EXPECT_TRUE(souths.insert(s).second);
    EXPECT_EQ(souths.size(), target.size());
    EXPECT_EQ(target.size(), 64u);  // every cube participates in every ring
  }
}

TEST(Slice, OcsConnectionsCarryTheRingLists) {
  // For every shape of 1-16 cubes on a random cube assignment, each
  // dimension's ring list holds one circuit per cube, north = the cube at a
  // logical position and south = the cube one step further along the
  // dimension (wrapping), and every OCS of that dimension carries exactly
  // that list, on the 48-OCS plan and on the 24-OCS CWDM8 plan alike.
  common::Rng rng(79);
  std::array<std::pair<int, int>, ocs::kPalomarUsablePorts> buffer;
  for (const int ocs_per_dim : {kOcsPerDim, kOcsPerDim / 2}) {
    const WiringPlan plan(kCubesPerPod, ocs_per_dim);
    for (int cubes = 1; cubes <= 16; ++cubes) {
      for (const SliceShape& shape : EnumerateShapes(cubes)) {
        SCOPED_TRACE(shape.ToCubeString() + " on " + std::to_string(plan.ocs_count()) +
                     " OCSes");
        std::vector<int> pool;
        for (int id = 0; id < kCubesPerPod; ++id) pool.push_back(id);
        std::vector<int> ids;
        for (int k = 0; k < cubes; ++k) {
          const auto at = rng.UniformInt(pool.size());
          ids.push_back(pool[at]);
          pool[at] = pool.back();
          pool.pop_back();
        }
        const SliceTopology slice = SliceTopology::Create(shape, ids).value();
        const auto conns = slice.OcsConnections(plan);
        ASSERT_EQ(conns.size(), static_cast<std::size_t>(plan.ocs_count()));
        const int len[3] = {shape.a, shape.b, shape.c};
        for (Dim dim : kAllDims) {
          const int d = static_cast<int>(dim);
          std::vector<std::pair<int, int>> expected;
          for (int ic = 0; ic < shape.c; ++ic) {
            for (int ib = 0; ib < shape.b; ++ib) {
              for (int ia = 0; ia < shape.a; ++ia) {
                int next[3] = {ia, ib, ic};
                next[d] = (next[d] + 1) % len[d];
                expected.emplace_back(slice.CubeAt(ia, ib, ic),
                                      slice.CubeAt(next[0], next[1], next[2]));
              }
            }
          }
          const auto ring = slice.RingCircuits(dim, buffer);
          ASSERT_EQ(decltype(expected)(ring.begin(), ring.end()), expected) << ToString(dim);
          const std::map<int, int> carried(ring.begin(), ring.end());
          for (int face = 0; face < ocs_per_dim; ++face) {
            EXPECT_EQ(conns.at(plan.OcsFor(dim, face)), carried) << ToString(dim) << face;
          }
        }
      }
    }
  }
}

TEST(Slice, BisectionMaximalForSymmetricShape) {
  const WiringPlan plan(64, 16);
  // §4.2.1: 16x16x16 chips (4x4x4 cubes) has the highest bisection
  // bandwidth of all full-pod shapes.
  const int symmetric = MakeSlice(SliceShape{4, 4, 4}).BisectionLinks(plan);
  for (const auto& shape : EnumerateCanonicalShapes(64)) {
    const int links = MakeSlice(shape).BisectionLinks(plan);
    EXPECT_LE(links, symmetric) << shape.ToCubeString();
  }
  EXPECT_EQ(symmetric, 2 * 16 * 16);  // 16 lines x 2 crossings x 16 links
}

TEST(Slice, BisectionOfHighlyAsymmetricShape) {
  const WiringPlan plan(64, 16);
  // 4x4x256 chips = 1x1x64 cubes: one ring, 2 crossings, 16 links.
  EXPECT_EQ(MakeSlice(SliceShape{1, 1, 64}).BisectionLinks(plan), 32);
}

TEST(Slice, CubeDiameter) {
  EXPECT_EQ(MakeSlice(SliceShape{4, 4, 4}).CubeDiameter(), 6);
  EXPECT_EQ(MakeSlice(SliceShape{1, 1, 64}).CubeDiameter(), 32);
}

// --- superpod --------------------------------------------------------------------

TEST(SuperpodTest, InstallAndRemoveSlice) {
  Superpod pod(100, /*cubes=*/8, /*ocs_per_dim=*/2);
  const auto slice = MakeSlice(SliceShape{1, 2, 2}, 0);
  auto id = pod.InstallSlice(slice);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(pod.slices().size(), 1u);
  EXPECT_EQ(pod.FreeHealthyCubes().size(), 4u);
  EXPECT_TRUE(pod.SliceOwningCube(0).has_value());
  ASSERT_TRUE(pod.RemoveSlice(id.value()).ok());
  EXPECT_EQ(pod.slices().size(), 0u);
  EXPECT_EQ(pod.FreeHealthyCubes().size(), 8u);
  // Fabric fully drained.
  for (int i = 0; i < pod.ocs_count(); ++i) {
    EXPECT_EQ(pod.ocs(i).ConnectionCount(), 0);
  }
}

/// The owner of every cube, in cube order.
std::vector<std::optional<SliceId>> Owners(const Superpod& pod) {
  std::vector<std::optional<SliceId>> owners;
  for (int i = 0; i < pod.cube_count(); ++i) owners.push_back(pod.SliceOwningCube(i));
  return owners;
}

TEST(SuperpodTest, InstallRejectsBusyCube) {
  Superpod pod(101, 8, 2);
  const auto first = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(first.ok());
  const auto owners = Owners(pod);
  const auto free = pod.FreeHealthyCubes();
  const auto overlapping = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 1));
  EXPECT_FALSE(overlapping.ok());
  // The failed install leaves ownership as it was.
  EXPECT_EQ(Owners(pod), owners);
  EXPECT_EQ(pod.FreeHealthyCubes(), free);
  EXPECT_EQ(pod.SliceOwningCube(1), first.value());
  EXPECT_FALSE(pod.SliceOwningCube(2).has_value());
  EXPECT_EQ(free, (std::vector<int>{2, 3, 4, 5, 6, 7}));
  // Ids outside the pod have no owner.
  EXPECT_FALSE(pod.SliceOwningCube(-1).has_value());
  EXPECT_FALSE(pod.SliceOwningCube(pod.cube_count()).has_value());
}

TEST(SuperpodTest, InstallRejectsUnhealthyCube) {
  Superpod pod(102, 8, 2);
  pod.cube(3).SetHostHealth(0, false);
  const auto free = pod.FreeHealthyCubes();
  EXPECT_EQ(free, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
  EXPECT_FALSE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 2)).ok());
  // Cube 2 passed its checks before cube 3 failed; neither is owned.
  EXPECT_EQ(Owners(pod), std::vector<std::optional<SliceId>>(8));
  EXPECT_EQ(pod.FreeHealthyCubes(), free);
}

TEST(SuperpodTest, SecondSliceDoesNotDisturbFirst) {
  Superpod pod(103, 8, 2);
  auto first = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(first.ok());
  // Record the exact switch state for slice 1.
  std::map<int, std::map<int, int>> before;
  for (int i = 0; i < pod.ocs_count(); ++i) {
    for (const auto& c : pod.ocs(i).Connections()) before[i][c.north] = c.south;
  }
  auto second = pod.InstallSlice(MakeSlice(SliceShape{1, 2, 2}, 2));
  ASSERT_TRUE(second.ok());
  // Every connection of slice 1 still present and unchanged.
  for (const auto& [ocs, conns] : before) {
    for (const auto& [n, s] : conns) {
      ASSERT_TRUE(pod.ocs(ocs).ConnectionOn(n).has_value());
      EXPECT_EQ(pod.ocs(ocs).ConnectionOn(n)->south, s);
    }
  }
}

TEST(SuperpodTest, SliceDegradedByCubeFailure) {
  Superpod pod(104, 8, 2);
  auto id = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(pod.SliceDegraded(id.value()));
  pod.cube(1).SetHostHealth(5, false);
  EXPECT_TRUE(pod.SliceDegraded(id.value()));
}

TEST(SuperpodTest, MultiCubeSliceDegradedByOcsFailure) {
  Superpod pod(105, 8, 2);
  auto multi = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  auto single = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 1}, 4));
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE(single.ok());
  pod.FailOcs(0);
  EXPECT_TRUE(pod.SliceDegraded(multi.value()));
  // §4.2.2: a single-cube slice needs no inter-cube reconfiguration, so an
  // OCS failure does not degrade it.
  EXPECT_FALSE(pod.SliceDegraded(single.value()));
  pod.RepairOcs(0);
  EXPECT_FALSE(pod.SliceDegraded(multi.value()));
}

TEST(SuperpodTest, RepairOcsRestoresConnections) {
  Superpod pod(106, 8, 2);
  auto id = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(id.ok());
  const int conns_before = pod.ocs(0).ConnectionCount();
  pod.FailOcs(0);
  pod.RepairOcs(0);
  EXPECT_EQ(pod.ocs(0).ConnectionCount(), conns_before);
  EXPECT_FALSE(pod.SliceDegraded(id.value()));
}

TEST(SuperpodTest, InstallFailsWhenOcsDown) {
  Superpod pod(107, 8, 2);
  pod.FailOcs(3);
  EXPECT_FALSE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0)).ok());
  // Nothing was programmed, not even on the switches ahead of the down one,
  // and no cube was claimed.
  for (int i = 0; i < pod.ocs_count(); ++i) EXPECT_EQ(pod.ocs(i).ConnectionCount(), 0) << i;
  EXPECT_EQ(Owners(pod), std::vector<std::optional<SliceId>>(8));
  EXPECT_EQ(pod.FreeHealthyCubes(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  pod.RepairOcs(3);
  EXPECT_TRUE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0)).ok());
}

TEST(SuperpodTest, InstallFailsCleanlyOnDeadPort) {
  Superpod pod(110, 8, 2);
  // Exhaust the mirror spares behind cube 1's north port on OCS 5.
  bool usable = true;
  for (int i = 0; i < 60 && usable; ++i) usable = pod.ocs(5).InjectMirrorFailure(true, 1);
  ASSERT_FALSE(pod.ocs(5).PortUsable(true, 1));
  EXPECT_FALSE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0)).ok());
  EXPECT_TRUE(pod.slices().empty());
  for (int i = 0; i < pod.ocs_count(); ++i) EXPECT_EQ(pod.ocs(i).ConnectionCount(), 0) << i;
  // Cubes off the dead port still install.
  EXPECT_TRUE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 2)).ok());
}

TEST(SuperpodTest, RepairOcsDropsSliceRemovedWhileDown) {
  Superpod pod(109, 8, 2);
  auto removed = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  auto kept = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 2));
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(kept.ok());
  pod.FailOcs(0);
  ASSERT_TRUE(pod.RemoveSlice(removed.value()).ok());
  pod.RepairOcs(0);
  // The switch comes back with exactly the running slice's circuits.
  EXPECT_EQ(pod.slices().size(), 1u);
  EXPECT_EQ(pod.ocs(0).CurrentMapping(), pod.slices().at(kept.value()).connections.at(0));
  for (int i = 0; i < pod.ocs_count(); ++i) EXPECT_EQ(pod.ocs(i).ConnectionCount(), 2) << i;
  EXPECT_TRUE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0)).ok());
}

/// FNV-1a over every switch's circuits: north, south and the bits of both
/// losses, which carry the alignment RNG's draws.
std::uint64_t SwitchDigest(const Superpod& pod) {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (int i = 0; i < pod.ocs_count(); ++i) {
    const auto conns = pod.ocs(i).Connections();
    mix(conns.size());
    for (const auto& c : conns) {
      mix(static_cast<std::uint64_t>(c.north));
      mix(static_cast<std::uint64_t>(c.south));
      mix(std::bit_cast<std::uint64_t>(c.insertion_loss.value()));
      mix(std::bit_cast<std::uint64_t>(c.return_loss.value()));
    }
  }
  return hash;
}

/// Programs a slice's circuits onto `twin` through the serial reference path
/// (perfbench's twin C): one full-target PalomarSwitch::Reconfigure per OCS,
/// CurrentMapping() plus (or minus) the slice's circuits, one OCS after
/// another.
void ReconfigureFullTarget(Superpod& twin,
                           const std::map<int, std::map<int, int>>& connections, bool add) {
  for (const auto& [ocs_id, conns] : connections) {
    ocs::PalomarSwitch& sw = twin.ocs(ocs_id);
    std::map<int, int> target = sw.CurrentMapping();
    for (const auto& [north, south] : conns) {
      if (add) {
        target[north] = south;
      } else if (auto it = target.find(north); it != target.end() && it->second == south) {
        target.erase(it);
      }
    }
    ASSERT_TRUE(sw.Reconfigure(target).ok()) << "ocs " << ocs_id;
  }
}

struct ChurnCounters {
  std::uint64_t reconfigurations = 0, connects = 0, disconnects = 0;
  bool operator==(const ChurnCounters&) const = default;
};

ChurnCounters CountChurn(const Superpod& pod) {
  ChurnCounters counters;
  for (int i = 0; i < pod.ocs_count(); ++i) {
    counters.reconfigurations += pod.ocs(i).telemetry().reconfigurations;
    counters.connects += pod.ocs(i).telemetry().connects;
    counters.disconnects += pod.ocs(i).telemetry().disconnects;
  }
  return counters;
}

/// Seeded allocate/release churn on the production pod. A twin pod with the
/// same seed runs the same steps through serial full-target Reconfigure;
/// the delta path must reproduce it exactly, alignment RNG draws included,
/// however many pool threads program a commit's switches. The pins hold
/// the twin's values, so a change to the draws must move both together.
void ExpectPinnedChurn() {
  Superpod pod(4242);
  Superpod twin(4242);
  common::Rng rng(77);
  std::vector<SliceId> live;
  const SliceShape menu[] = {{1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2}, {1, 2, 4}, {2, 2, 4}};
  int installs = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && rng.Bernoulli(0.45)) {
      const auto pick = rng.UniformInt(live.size());
      ReconfigureFullTarget(twin, pod.slices().at(live[pick]).connections, /*add=*/false);
      ASSERT_TRUE(pod.RemoveSlice(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
      continue;
    }
    const SliceShape shape = menu[rng.UniformInt(std::size(menu))];
    std::vector<int> free = pod.FreeHealthyCubes();
    if (static_cast<int>(free.size()) < shape.CubeCount()) continue;
    std::vector<int> cubes;
    for (int k = 0; k < shape.CubeCount(); ++k) {
      const auto at = rng.UniformInt(free.size());
      cubes.push_back(free[at]);
      free[at] = free.back();
      free.pop_back();
    }
    auto topology = SliceTopology::Create(shape, std::move(cubes));
    ASSERT_TRUE(topology.ok());
    auto id = pod.InstallSlice(topology.value());
    ASSERT_TRUE(id.ok()) << step << ": " << id.error().message;
    ReconfigureFullTarget(twin, pod.slices().at(id.value()).connections, /*add=*/true);
    live.push_back(id.value());
    ++installs;
  }
  const ChurnCounters counters = CountChurn(pod);
  EXPECT_EQ(SwitchDigest(pod), SwitchDigest(twin));
  EXPECT_TRUE(counters == CountChurn(twin));
  EXPECT_EQ(pod.TotalReconfigMs(), twin.TotalReconfigMs());

  EXPECT_EQ(installs, 1349);
  EXPECT_EQ(live.size(), 13u);
  EXPECT_EQ(SwitchDigest(pod), 0x7c626c5fccaf3828ull);
  EXPECT_EQ(counters.reconfigurations, 128880u);
  EXPECT_EQ(counters.connects, 368592u);
  EXPECT_EQ(counters.disconnects, 366048u);
  EXPECT_EQ(pod.TotalReconfigMs(), 426441.99999999697);
}

TEST(SuperpodTest, ChurnMatchesFullTargetReconfigureByteForByte) {
  const int configured = common::parallel::Threads();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    common::parallel::SetThreads(threads);
    ExpectPinnedChurn();
  }
  common::parallel::SetThreads(configured);
}

TEST(SuperpodTest, ImportedSliceMatchesTheLiveHistory) {
  // Pod A installs slice 1 on cubes {0, 1}, removes it, then installs slice
  // 2 on {2, 3}; pod B, from the same seed, installs only slice 2 under the
  // same id, as a snapshot import does. A circuit's physics depends only on
  // its path, so both hold the same circuits with the same losses.
  Superpod live(4243);
  auto first = live.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(live.RemoveSlice(first.value()).ok());
  auto second = live.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 2));
  ASSERT_TRUE(second.ok());

  Superpod imported(4243);
  ASSERT_TRUE(imported.InstallSliceWithId(second.value(), MakeSlice(SliceShape{1, 1, 2}, 2)).ok());
  EXPECT_EQ(SwitchDigest(imported), SwitchDigest(live));
  EXPECT_EQ(imported.slices().at(second.value()).install_time_ms,
            live.slices().at(second.value()).install_time_ms);
}

/// A slice table row: what a pod records for one installed slice.
struct SliceRow {
  SliceId id = 0;
  std::vector<int> cubes;
  std::map<int, std::map<int, int>> connections;
  double install_time_ms = 0.0;
  bool operator==(const SliceRow&) const = default;
};

std::vector<SliceRow> SliceTable(const Superpod& pod) {
  std::vector<SliceRow> rows;
  for (const auto& [id, slice] : pod.slices()) {
    rows.push_back({id, slice.topology.cube_ids(), slice.connections, slice.install_time_ms});
  }
  return rows;
}

TEST(SuperpodTest, BatchCommitMatchesOneAtATime) {
  // The same seeded installs and removals on two production pods: one
  // commits each as it returns, the other stages eight at a time in a Batch
  // scope. The batched pod's switches do not move until its scope closes;
  // then both pods hold the same circuits, losses, slices and install
  // times. Ports a staged removal frees are open to a staged install, and
  // the batched pod programs no more than the other.
  Superpod each(4244), batched(4244);
  common::Rng rng(78);
  std::vector<SliceId> live;
  const SliceShape menu[] = {{1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2}, {1, 2, 4}};
  for (int scope = 0; scope < 40; ++scope) {
    const std::uint64_t digest_before = SwitchDigest(batched);
    {
      Superpod::Batch batch(batched);
      for (int step = 0; step < 8; ++step) {
        if (!live.empty() && rng.Bernoulli(0.45)) {
          const auto pick = rng.UniformInt(live.size());
          ASSERT_TRUE(each.RemoveSlice(live[pick]).ok());
          ASSERT_TRUE(batched.RemoveSlice(live[pick]).ok());
          live[pick] = live.back();
          live.pop_back();
          continue;
        }
        const SliceShape shape = menu[rng.UniformInt(std::size(menu))];
        std::vector<int> free = each.FreeHealthyCubes();
        ASSERT_EQ(batched.FreeHealthyCubes(), free);
        if (static_cast<int>(free.size()) < shape.CubeCount()) continue;
        std::vector<int> cubes;
        for (int k = 0; k < shape.CubeCount(); ++k) {
          const auto at = rng.UniformInt(free.size());
          cubes.push_back(free[at]);
          free[at] = free.back();
          free.pop_back();
        }
        auto topology = SliceTopology::Create(shape, std::move(cubes));
        ASSERT_TRUE(topology.ok());
        auto one = each.InstallSlice(topology.value());
        auto staged = batched.InstallSlice(topology.value());
        ASSERT_TRUE(one.ok() && staged.ok()) << scope << "/" << step;
        ASSERT_EQ(staged.value(), one.value());
        live.push_back(one.value());
      }
      EXPECT_EQ(SwitchDigest(batched), digest_before) << scope;
    }
    ASSERT_EQ(SwitchDigest(batched), SwitchDigest(each)) << scope;
    ASSERT_TRUE(SliceTable(batched) == SliceTable(each)) << scope;
  }
  EXPECT_LE(CountChurn(batched).connects, CountChurn(each).connects);
  EXPECT_LT(CountChurn(batched).reconfigurations, CountChurn(each).reconfigurations);

  // A slice installed and removed inside one scope is never programmed.
  const ChurnCounters before = CountChurn(batched);
  const std::uint64_t digest = SwitchDigest(batched);
  {
    Superpod::Batch batch(batched);
    const std::vector<int> free = batched.FreeHealthyCubes();
    ASSERT_FALSE(free.empty());
    auto id = batched.InstallSlice(SliceTopology::Create({1, 1, 1}, {free[0]}).value());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(batched.RemoveSlice(id.value()).ok());
  }
  EXPECT_TRUE(CountChurn(batched) == before);
  EXPECT_EQ(SwitchDigest(batched), digest);
}

TEST(SuperpodTest, BatchCommitFillsTheSliceRecordAtCommit) {
  // A slice's record gets its connections and install time when it is
  // programmed. Inside a Batch the staged slices have neither; once the
  // scope closes both equal those of a pod that commits each call as it
  // returns, and a slice removed inside the scope never had them.
  Superpod each(4245), batched(4245);
  const SliceTopology kept[] = {MakeSlice(SliceShape{2, 2, 2}, 0),
                                MakeSlice(SliceShape{1, 2, 4}, 8)};
  const SliceTopology dropped = MakeSlice(SliceShape{1, 1, 2}, 20);
  for (const SliceTopology& topology : kept) ASSERT_TRUE(each.InstallSlice(topology).ok());
  auto gone = each.InstallSlice(dropped);
  ASSERT_TRUE(gone.ok());
  ASSERT_TRUE(each.RemoveSlice(gone.value()).ok());
  {
    Superpod::Batch batch(batched);
    for (const SliceTopology& topology : kept) ASSERT_TRUE(batched.InstallSlice(topology).ok());
    auto staged = batched.InstallSlice(dropped);
    ASSERT_TRUE(staged.ok());
    for (const auto& [id, slice] : batched.slices()) {
      EXPECT_TRUE(slice.connections.empty()) << id;
      EXPECT_EQ(slice.install_time_ms, 0.0) << id;
      EXPECT_FALSE(batched.SliceDegraded(id)) << id;
    }
    ASSERT_TRUE(batched.RemoveSlice(staged.value()).ok());
  }
  ASSERT_EQ(batched.slices().size(), 2u);
  EXPECT_TRUE(SliceTable(batched) == SliceTable(each));
  EXPECT_EQ(SwitchDigest(batched), SwitchDigest(each));
  for (const auto& [id, slice] : batched.slices()) {
    EXPECT_EQ(slice.connections, slice.topology.OcsConnections(batched.plan())) << id;
    EXPECT_GT(slice.install_time_ms, ocs::PalomarSwitch::kCommandOverheadMs) << id;
  }
}

TEST(SuperpodTest, OutOfRangeArgumentsTripChecks) {
  // A Release build compiles assert out, so these guards are LW_CHECKs:
  // each reports through the handler and, when the handler returns, leaves
  // the pod as it was.
  std::vector<std::string> failures;
  common::ScopedCheckHandler handler([&failures](const common::CheckFailure& failure) {
    failures.push_back(common::FormatCheckFailure(failure));
  });
  Superpod pod(111, 8, 2);
  auto id = pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 0));
  ASSERT_TRUE(id.ok());
  const std::uint64_t digest = SwitchDigest(pod);
  EXPECT_FALSE(pod.SliceDegraded(id.value() + 1));
  pod.FailOcs(-1);
  pod.FailOcs(pod.ocs_count());
  pod.RepairOcs(-1);
  pod.RepairOcs(pod.ocs_count());
  ASSERT_EQ(failures.size(), 5u);
  EXPECT_NE(failures[0].find("SliceDegraded of unknown slice 2"), std::string::npos)
      << failures[0];
  EXPECT_NE(failures[1].find("FailOcs of ocs -1"), std::string::npos) << failures[1];
  EXPECT_NE(failures[2].find("FailOcs of ocs 6"), std::string::npos) << failures[2];
  EXPECT_NE(failures[3].find("RepairOcs of ocs -1"), std::string::npos) << failures[3];
  EXPECT_NE(failures[4].find("RepairOcs of ocs 6"), std::string::npos) << failures[4];
  EXPECT_FALSE(pod.SliceDegraded(id.value()));
  EXPECT_EQ(SwitchDigest(pod), digest);
  EXPECT_TRUE(pod.InstallSlice(MakeSlice(SliceShape{1, 1, 2}, 2)).ok());
  EXPECT_EQ(failures.size(), 5u);
  // A pod with more cubes than an OCS has ports cannot be wired.
  const Superpod oversized(112, ocs::kPalomarUsablePorts + 1, 1);
  ASSERT_EQ(failures.size(), 6u);
  EXPECT_NE(failures[5].find("a pod of 129 cubes outgrows the 128 ports"), std::string::npos)
      << failures[5];
}

TEST(SuperpodTest, Cwdm8PodVariantUses24Switches) {
  // With CWDM8 bidi optics two face positions share each OCS connection
  // (§4.2.2: only 24 OCSes needed); structurally that is a wiring plan with
  // 8 face positions per dimension.
  Superpod pod(200, kCubesPerPod, /*ocs_per_dim=*/8);
  EXPECT_EQ(pod.ocs_count(), 24);
  std::vector<int> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(i);
  auto slice = SliceTopology::Create(SliceShape{2, 2, 2}, ids);
  ASSERT_TRUE(slice.ok());
  auto installed = pod.InstallSlice(slice.value());
  ASSERT_TRUE(installed.ok());
  for (int i = 0; i < pod.ocs_count(); ++i) {
    EXPECT_EQ(pod.ocs(i).ConnectionCount(), 8);
  }
}

class SuperpodShapeSweep : public ::testing::TestWithParam<SliceShape> {};

TEST_P(SuperpodShapeSweep, FullPodShapeInstalls) {
  Superpod pod(108);  // full 64-cube pod with 48 OCSes
  const auto slice = MakeSlice(GetParam());
  auto id = pod.InstallSlice(slice);
  ASSERT_TRUE(id.ok()) << GetParam().ToCubeString();
  EXPECT_TRUE(pod.FreeHealthyCubes().empty());
  // Every OCS carries exactly one connection per cube (64 norths used).
  for (int i = 0; i < pod.ocs_count(); ++i) {
    EXPECT_EQ(pod.ocs(i).ConnectionCount(), 64);
  }
}

INSTANTIATE_TEST_SUITE_P(FullPodShapes, SuperpodShapeSweep,
                         ::testing::Values(SliceShape{4, 4, 4}, SliceShape{1, 1, 64},
                                           SliceShape{2, 4, 8}, SliceShape{1, 8, 8}),
                         [](const auto& info) {
                           std::string s = info.param.ToCubeString();
                           for (auto& c : s) {
                             if (c == 'x') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace lightwave::tpu
