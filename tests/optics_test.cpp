// Unit tests for the optics substrate: WDM grids, circulators, transceiver
// generations and interoperability, fiber spans, and the link-budget engine
// with its MPI aggregation.
#include <gtest/gtest.h>

#include "optics/circulator.h"
#include "optics/fiber.h"
#include "optics/link_budget.h"
#include "optics/transceiver.h"
#include "optics/wdm.h"

namespace lightwave::optics {
namespace {

using common::DbmPower;
using common::Decibel;

// --- wdm ---------------------------------------------------------------------

TEST(Wdm, Cwdm4Grid) {
  const WdmGrid grid = WdmGrid::Make(WdmGridKind::kCwdm4);
  EXPECT_EQ(grid.lane_count(), 4);
  EXPECT_DOUBLE_EQ(grid.spacing().nm, 20.0);
  EXPECT_DOUBLE_EQ(grid.channel(0).center.nm, 1271.0);
  EXPECT_DOUBLE_EQ(grid.channel(3).center.nm, 1331.0);
  EXPECT_EQ(grid.Name(), "CWDM4");
}

TEST(Wdm, Cwdm8PacksEightLanesInSameSpectralWidth) {
  const WdmGrid g4 = WdmGrid::Make(WdmGridKind::kCwdm4);
  const WdmGrid g8 = WdmGrid::Make(WdmGridKind::kCwdm8);
  EXPECT_EQ(g8.lane_count(), 8);
  EXPECT_DOUBLE_EQ(g8.spacing().nm, 10.0);
  // The paper's point (§3.3.1): 8 lanes at 10 nm spacing stay within the
  // same 80 nm spectral range as 4 lanes at 20 nm.
  EXPECT_EQ(g8.SpectralWidth().nm, g4.SpectralWidth().nm);
}

TEST(Wdm, Cwdm8CoversCwdm4Channels) {
  const WdmGrid g4 = WdmGrid::Make(WdmGridKind::kCwdm4);
  const WdmGrid g8 = WdmGrid::Make(WdmGridKind::kCwdm8);
  // Every CWDM4 channel center falls inside a CWDM8 passband.
  EXPECT_TRUE(g8.Overlaps(g4));
}

TEST(Wdm, ChannelIndicesAscending) {
  const WdmGrid g8 = WdmGrid::Make(WdmGridKind::kCwdm8);
  for (int i = 1; i < g8.lane_count(); ++i) {
    EXPECT_GT(g8.channel(i).center.nm, g8.channel(i - 1).center.nm);
  }
}

// --- circulator --------------------------------------------------------------

TEST(CirculatorTest, InsertionLossApplied) {
  const Circulator c(IntegratedCirculator());
  const DbmPower tx{2.0};
  EXPECT_NEAR(c.TxThrough(tx).value(), 2.0 - 0.7, 1e-12);
  EXPECT_NEAR(c.RxThrough(DbmPower{-5.0}).value(), -5.7, 1e-12);
}

TEST(CirculatorTest, LeakageIsIsolationBelowTx) {
  const CirculatorSpec spec = IntegratedCirculator();
  const Circulator c(spec);
  const DbmPower tx{0.0};
  EXPECT_NEAR(c.LeakageAtRx(tx).value(),
              spec.isolation.value() - spec.insertion_loss_rx.value(), 1e-12);
}

TEST(CirculatorTest, ReengineeredPartsBeatTelecomBaseline) {
  // §3.3.1: the telecom baseline had to be re-engineered for lower return
  // loss and crosstalk at 1300 nm.
  const auto telecom = TelecomBaselineCirculator();
  const auto datacom = DatacomCirculator();
  const auto integrated = IntegratedCirculator();
  EXPECT_LT(datacom.isolation.value(), telecom.isolation.value());
  EXPECT_LT(integrated.isolation.value(), telecom.isolation.value());
  EXPECT_LT(integrated.insertion_loss_tx.value(), telecom.insertion_loss_tx.value());
  EXPECT_TRUE(integrated.integrated);
  EXPECT_FALSE(telecom.integrated);
}

// --- transceivers --------------------------------------------------------------

TEST(Transceiver, RoadmapGrows20x) {
  const auto roadmap = DcnRoadmap();
  ASSERT_GE(roadmap.size(), 5u);
  EXPECT_NEAR(roadmap.back().ModuleRateGbps() / roadmap.front().ModuleRateGbps(), 20.0,
              1e-9);
}

TEST(Transceiver, RoadmapEnergyPerBitImproves) {
  const auto roadmap = DcnRoadmap();
  EXPECT_LT(roadmap.back().EnergyPerBitPj(), roadmap.front().EnergyPerBitPj());
}

TEST(Transceiver, RoadmapYearsAscend) {
  const auto roadmap = DcnRoadmap();
  for (std::size_t i = 1; i < roadmap.size(); ++i) {
    EXPECT_GT(roadmap[i].year, roadmap[i - 1].year);
  }
}

TEST(Transceiver, BidiHalvesFiberCount) {
  const auto duplex = Cwdm4Duplex();
  const auto bidi = Cwdm4Bidi();
  EXPECT_EQ(duplex.FiberCount(), 4);
  EXPECT_EQ(bidi.FiberCount(), 2);
  EXPECT_EQ(Cwdm8Bidi().FiberCount(), 1);
}

TEST(Transceiver, ModuleRates) {
  EXPECT_DOUBLE_EQ(Cwdm4Bidi().ModuleRateGbps(), 800.0);
  EXPECT_DOUBLE_EQ(Cwdm8Bidi().ModuleRateGbps(), 800.0);
  EXPECT_DOUBLE_EQ(Cwdm4Duplex().ModuleRateGbps(), 800.0);
}

TEST(Transceiver, BackwardCompatAcrossGenerations) {
  const auto roadmap = DcnRoadmap();
  // §3.3.1: each generation inter-operates with the previous via legacy
  // lane rates.
  for (std::size_t i = 1; i < roadmap.size(); ++i) {
    EXPECT_TRUE(roadmap[i].InteroperatesWith(roadmap[i - 1]))
        << roadmap[i].name << " vs " << roadmap[i - 1].name;
  }
}

TEST(Transceiver, FirstAndLastGenerationStillInteroperate) {
  // §6: interoperability maintained across an order of magnitude (40G vs
  // 400G+) — both can run 10G? No: via chained legacy rates the 800G part
  // still talks 25G, which the 100G part supports.
  const auto roadmap = DcnRoadmap();
  EXPECT_TRUE(roadmap[1].InteroperatesWith(roadmap.back()));
}

TEST(Transceiver, BidiAndDuplexDoNotInteroperate) {
  EXPECT_FALSE(Cwdm4Bidi().InteroperatesWith(Cwdm4Duplex()));
}

TEST(Transceiver, MlPartsCarryDspBlocks) {
  EXPECT_TRUE(Cwdm4Bidi().has_oim_dsp);
  EXPECT_TRUE(Cwdm4Bidi().has_inner_sfec);
  EXPECT_TRUE(Cwdm8Bidi().has_oim_dsp);
  EXPECT_FALSE(Cwdm4Duplex().has_oim_dsp);
}

// --- fiber -------------------------------------------------------------------

TEST(Fiber, InsertionLossComposition) {
  const FiberSpan span(1.0, 2, 2);
  // 0.32 dB/km + 2 x 0.25 connectors + 2 x 0.05 splices.
  EXPECT_NEAR(span.InsertionLoss().value(), 0.32 + 0.5 + 0.1, 1e-9);
}

TEST(Fiber, ReflectionPointsOnePerConnector) {
  const FiberSpan span(0.5, 3, 1);
  EXPECT_EQ(span.ReflectionPoints().size(), 3u);
  for (const auto& rl : span.ReflectionPoints()) EXPECT_LT(rl.value(), -40.0);
}

TEST(Fiber, DispersionZeroAtZeroDispersionWavelength) {
  const FiberSpan span(2.0, 0, 0);
  EXPECT_NEAR(span.DispersionPsPerNm(kZeroDispersionWavelength), 0.0, 1e-9);
}

TEST(Fiber, DispersionGrowsAwayFromZero) {
  const FiberSpan span(2.0, 0, 0);
  const double d_1271 = std::abs(span.DispersionPsPerNm(common::Nanometers{1271.0}));
  const double d_1291 = std::abs(span.DispersionPsPerNm(common::Nanometers{1291.0}));
  EXPECT_GT(d_1271, d_1291);
}

TEST(Fiber, DispersionPenaltyWorseForOuterLanesAndHigherRates) {
  const FiberSpan span(2.0, 0, 0);
  const auto outer_100g = span.DispersionPenalty(common::Nanometers{1271.0},
                                                 common::GbitPerSec{100.0}, 0.3);
  const auto inner_100g = span.DispersionPenalty(common::Nanometers{1311.0},
                                                 common::GbitPerSec{100.0}, 0.3);
  const auto outer_25g = span.DispersionPenalty(common::Nanometers{1271.0},
                                                common::GbitPerSec{25.0}, 0.3);
  EXPECT_GT(outer_100g.value(), inner_100g.value());
  EXPECT_GT(outer_100g.value(), outer_25g.value());
}

TEST(Fiber, ChirpWorsensDispersionPenalty) {
  const FiberSpan span(2.0, 0, 0);
  const auto eml = span.DispersionPenalty(common::Nanometers{1271.0},
                                          common::GbitPerSec{100.0}, 0.3);
  const auto dml = span.DispersionPenalty(common::Nanometers{1271.0},
                                          common::GbitPerSec{100.0}, 3.0);
  EXPECT_GT(dml.value(), eml.value());
}

// --- link budget ----------------------------------------------------------------

TEST(LinkBudgetTest, ReceivedPowerAccountsForAllLosses) {
  const auto spec = Cwdm4Bidi();
  LinkBudget budget(spec);
  budget.WithCirculator(IntegratedCirculator());
  budget.AddOcsHop(Decibel{2.0}, Decibel{-46.0});
  const auto analysis = budget.Analyze();
  // tx - (2 x 0.7 circulator) - 2.0 OCS.
  EXPECT_NEAR(analysis.rx_power.value(), spec.tx_power_per_lane.value() - 1.4 - 2.0, 1e-9);
}

TEST(LinkBudgetTest, DuplexLinkHasOnlyDoubleReflectionMpi) {
  auto spec = Cwdm4Duplex();
  LinkBudget budget(spec);
  budget.AddOcsHop(Decibel{2.0}, Decibel{-46.0});
  const auto analysis = budget.Analyze();
  // Double reflections only: ~2 x 46 dB down, far below bidi levels.
  EXPECT_LT(analysis.mpi.value(), -80.0);
}

TEST(LinkBudgetTest, BidiLinkMpiDominatedBySingleReflections) {
  LinkBudget budget(Cwdm4Bidi());
  budget.WithCirculator(IntegratedCirculator());
  budget.AddOcsHop(Decibel{2.0}, Decibel{-46.0});
  const auto analysis = budget.Analyze();
  // Reflections of the local Tx land near -(RL) with small path-loss
  // adjustments; aggregate should sit in the -35..-45 dB region.
  EXPECT_GT(analysis.mpi.value(), -46.0);
  EXPECT_LT(analysis.mpi.value(), -30.0);
}

TEST(LinkBudgetTest, WorseReturnLossRaisesMpi) {
  LinkBudget good(Cwdm4Bidi());
  good.AddOcsHop(Decibel{2.0}, Decibel{-46.0});
  LinkBudget bad(Cwdm4Bidi());
  bad.AddOcsHop(Decibel{2.0}, Decibel{-38.0});
  EXPECT_GT(bad.Analyze().mpi.value(), good.Analyze().mpi.value());
}

TEST(LinkBudgetTest, SuperpodLinkHasPositiveMargin) {
  // A nominal Palomar path must close the link with margin (Fig. 13 shows
  // two orders of magnitude of BER margin in production).
  const auto budget = MakeSuperpodLink(Cwdm4Bidi(), Decibel{2.0}, Decibel{-46.0});
  const auto analysis = budget.Analyze();
  EXPECT_GT(analysis.WorstLane().raw_margin.value(), 3.0);
}

TEST(LinkBudgetTest, LaneCountMatchesGrid) {
  const auto budget = MakeSuperpodLink(Cwdm8Bidi(), Decibel{2.0}, Decibel{-46.0});
  EXPECT_EQ(budget.Analyze().lanes.size(), 8u);
}

TEST(LinkBudgetTest, WorstLaneIsOutermost) {
  const auto budget = MakeSuperpodLink(Cwdm4Bidi(), Decibel{2.0}, Decibel{-46.0});
  const auto analysis = budget.Analyze();
  // 1271 nm sits farthest from the 1310 nm zero-dispersion point.
  EXPECT_DOUBLE_EQ(analysis.WorstLane().wavelength.nm, 1271.0);
}

class OcsLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(OcsLossSweep, MarginDecreasesWithOcsLoss) {
  const double loss = GetParam();
  const auto a = MakeSuperpodLink(Cwdm4Bidi(), Decibel{loss}, Decibel{-46.0});
  const auto b = MakeSuperpodLink(Cwdm4Bidi(), Decibel{loss + 0.5}, Decibel{-46.0});
  EXPECT_GT(a.Analyze().WorstLane().raw_margin.value(),
            b.Analyze().WorstLane().raw_margin.value());
}

INSTANTIATE_TEST_SUITE_P(Losses, OcsLossSweep, ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0));

}  // namespace
}  // namespace lightwave::optics
