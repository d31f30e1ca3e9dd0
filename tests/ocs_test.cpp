// Unit tests for the OCS module: MEMS yield/sparing, collimators, the
// closed-loop alignment controller, the optical core, the chassis FRU and
// availability model, the Palomar switch state machine (bijectivity,
// non-blocking reconfiguration, undisturbed connections, failure injection,
// delta transactions against full-target reconfiguration), and the Table C.1
// technology ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ocs/alignment.h"
#include "ocs/chassis.h"
#include "ocs/collimator.h"
#include "ocs/mems.h"
#include "ocs/optical_core.h"
#include "ocs/palomar.h"
#include "ocs/technology.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"

namespace lightwave::ocs {
namespace {

// --- mems --------------------------------------------------------------------

TEST(Mems, FabricationYieldsUsableDie) {
  common::Rng rng(1);
  MemsArray array(rng);
  EXPECT_GE(array.FunctionalCount(), kUsedMirrors);
  EXPECT_GE(array.SparesRemaining(), 0);
}

TEST(Mems, LogicalMappingIsInjective) {
  common::Rng rng(2);
  MemsArray array(rng);
  std::set<int> physical;
  for (int i = 0; i < kUsedMirrors; ++i) physical.insert(array.PhysicalMirror(i));
  EXPECT_EQ(physical.size(), static_cast<std::size_t>(kUsedMirrors));
}

TEST(Mems, ActuateSetsTargetWithOpenLoopError) {
  common::Rng rng(3);
  MemsArray array(rng);
  array.Actuate(rng, 7, 0.01, -0.02);
  const auto& m = array.mirror(array.PhysicalMirror(7));
  EXPECT_DOUBLE_EQ(m.target_x, 0.01);
  EXPECT_DOUBLE_EQ(m.target_y, -0.02);
  EXPECT_GT(array.PointingError(7), 0.0);
  EXPECT_LT(array.PointingError(7), 10.0 * MemsArray::kOpenLoopErrorStd);
}

TEST(Mems, FailedMirrorRemapsToSpare) {
  common::Rng rng(4);
  MemsArray array(rng);
  const int spares_before = array.SparesRemaining();
  ASSERT_GT(spares_before, 0);
  const int physical = array.PhysicalMirror(0);
  EXPECT_TRUE(array.FailMirror(rng, physical));
  EXPECT_NE(array.PhysicalMirror(0), physical);
  EXPECT_EQ(array.SparesRemaining(), spares_before - 1);
}

TEST(Mems, ExhaustedSparesReported) {
  common::Rng rng(5);
  MemsArray array(rng);
  // Burn every spare by repeatedly failing logical mirror 0's chain.
  while (array.SparesRemaining() > 0) {
    ASSERT_TRUE(array.FailMirror(rng, array.PhysicalMirror(0)));
  }
  EXPECT_FALSE(array.FailMirror(rng, array.PhysicalMirror(0)));
}

// --- collimator --------------------------------------------------------------

TEST(Collimator, PortStatisticsMatchSpec) {
  common::Rng rng(6);
  CollimatorArray array(rng, 136);
  double worst_rl = -100.0;
  for (int i = 0; i < array.port_count(); ++i) {
    const auto& p = array.port(i);
    EXPECT_GT(p.coupling_loss.value(), 0.0);
    EXPECT_LT(p.return_loss.value(), -38.0);  // the Fig. 10b spec line
    worst_rl = std::max(worst_rl, p.return_loss.value());
  }
  EXPECT_LT(worst_rl, -38.0);
}

// --- alignment ------------------------------------------------------------------

TEST(Alignment, ConvergesFromOpenLoopError) {
  common::Rng rng(7);
  MemsArray array(rng);
  array.Actuate(rng, 3, 0.005, 0.005);
  const double before = array.PointingError(3);
  AlignmentController controller;
  const auto result = controller.Align(rng, array, 3);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(array.PointingError(3), before);
  EXPECT_LT(array.PointingError(3), 1e-4);
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.elapsed_ms, 0.0);
}

TEST(Alignment, MillisecondClassSwitchTime) {
  // Table C.1: MEMS switching is millisecond class; the alignment loop is
  // what dominates it.
  common::Rng rng(8);
  MemsArray array(rng);
  array.Actuate(rng, 0, 0.01, 0.0);
  AlignmentController controller;
  const auto result = controller.Align(rng, array, 0);
  EXPECT_GT(result.elapsed_ms, 0.1);
  EXPECT_LT(result.elapsed_ms, 50.0);
}

/// Iteration-count histogram, residual errors and converged count of a batch
/// of actuate-then-align runs.
struct AlignmentStats {
  std::vector<double> iterations;  // fraction of runs per iteration count
  std::vector<double> residuals;   // sorted
  int converged = 0;

  double Residual(double q) const {
    return residuals[static_cast<std::size_t>(q * static_cast<double>(residuals.size() - 1))];
  }
};

AlignmentStats Summarize(const std::vector<AlignmentResult>& runs, int max_iterations) {
  AlignmentStats stats;
  stats.iterations.assign(static_cast<std::size_t>(max_iterations) + 1, 0.0);
  stats.residuals.reserve(runs.size());
  for (const auto& r : runs) {
    stats.iterations[static_cast<std::size_t>(r.iterations)] += 1.0 / runs.size();
    stats.residuals.push_back(r.residual_error);
    stats.converged += r.converged ? 1 : 0;
  }
  std::sort(stats.residuals.begin(), stats.residuals.end());
  return stats;
}

/// Box-Muller normals over a uniform stream: an algorithm independent of the
/// library's Ziggurat, so the alignment statistics below compare two
/// samplers rather than one with itself.
class BoxMuller {
 public:
  explicit BoxMuller(std::uint64_t seed) : rng_(seed) {}

  double Gaussian(double mean, double stddev) {
    if (has_cached_) {
      has_cached_ = false;
      return mean + stddev * cached_;
    }
    double u1 = 0.0;
    do {
      u1 = rng_.NextDouble();
    } while (u1 <= 0.0);
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * rng_.NextDouble();
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return mean + stddev * (r * std::cos(theta));
  }

 private:
  common::Rng rng_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// Reference alignment loop on scalar Box-Muller noise: one Gaussian per
/// axis for the open-loop actuation, each measurement and each HV update,
/// with the controller's constants.
AlignmentResult BoxMullerReferenceAlign(BoxMuller& rng, const AlignmentConfig& config) {
  double error_x = rng.Gaussian(0.0, MemsArray::kOpenLoopErrorStd);
  double error_y = rng.Gaussian(0.0, MemsArray::kOpenLoopErrorStd);
  AlignmentResult result;
  for (int i = 0; i < config.max_iterations; ++i) {
    ++result.iterations;
    const double measured_x = error_x + rng.Gaussian(0.0, config.measurement_noise_std);
    const double measured_y = error_y + rng.Gaussian(0.0, config.measurement_noise_std);
    if (std::hypot(measured_x, measured_y) < config.convergence_threshold) {
      result.converged = true;
      break;
    }
    error_x -= config.gain * measured_x + rng.Gaussian(0.0, 2.0e-6);
    error_y -= config.gain * measured_y + rng.Gaussian(0.0, 2.0e-6);
  }
  result.residual_error = std::hypot(error_x, error_y);
  if (!result.converged) result.converged = result.residual_error < config.convergence_threshold;
  return result;
}

TEST(Alignment, ZigguratNoiseMatchesBoxMullerReference) {
  // Fig. 10/13 read the alignment loop only through its statistics, so the
  // Ziggurat's mirror noise must leave those statistics where Box-Muller
  // draws had them.
  constexpr int kRuns = 100000;
  const AlignmentController controller;
  common::Rng rng(31);
  MemsArray array(rng);
  std::vector<AlignmentResult> paired, reference;
  paired.reserve(kRuns);
  reference.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    const int logical = i % kUsedMirrors;
    array.Actuate(rng, logical, 1e-3 * (i % 13), -1e-3 * (i % 7));
    paired.push_back(controller.Align(rng, array, logical));
  }
  BoxMuller reference_rng(32);
  for (int i = 0; i < kRuns; ++i) {
    reference.push_back(BoxMullerReferenceAlign(reference_rng, controller.config()));
  }
  const int max_iterations = controller.config().max_iterations;
  const AlignmentStats got = Summarize(paired, max_iterations);
  const AlignmentStats want = Summarize(reference, max_iterations);
  double total_variation = 0.0;
  for (std::size_t k = 0; k < got.iterations.size(); ++k) {
    total_variation += 0.5 * std::abs(got.iterations[k] - want.iterations[k]);
  }
  EXPECT_LT(total_variation, 0.01);
  for (const double q : {0.5, 0.99}) {
    SCOPED_TRACE("residual quantile " + std::to_string(q));
    EXPECT_NEAR(got.Residual(q) / want.Residual(q), 1.0, 0.02);
  }
  EXPECT_EQ(got.converged, want.converged);
}

TEST(Alignment, MisalignmentLossQuadratic) {
  const double small = MisalignmentLoss(1e-4).value();
  const double large = MisalignmentLoss(2e-4).value();
  EXPECT_NEAR(large / small, 4.0, 0.01);
  EXPECT_EQ(MisalignmentLoss(0.0).value(), 0.0);
}

// --- optical core -----------------------------------------------------------------

TEST(OpticalCore, EstablishPathProducesSpecLoss) {
  OpticalCore core(common::Rng(9));
  const auto metrics = core.EstablishPath(5, 77);
  ASSERT_TRUE(metrics.has_value());
  // Typically < 2 dB, always < 3 dB (the design target of §3.2.1).
  EXPECT_GT(metrics->insertion_loss.value(), 0.5);
  EXPECT_LT(metrics->insertion_loss.value(), 3.5);
  EXPECT_LT(metrics->return_loss.value(), -38.0);
  EXPECT_GT(metrics->alignment_time_ms, 0.0);
}

TEST(OpticalCore, TypicalLossUnder2Db) {
  OpticalCore core(common::Rng(10));
  int under_2db = 0;
  const int samples = 100;
  for (int i = 0; i < samples; ++i) {
    const int n = i % core.port_count();
    const int s = (i * 7 + 3) % core.port_count();
    const auto metrics = core.EstablishPath(n, s);
    ASSERT_TRUE(metrics.has_value());
    under_2db += metrics->insertion_loss.value() < 2.0 ? 1 : 0;
  }
  EXPECT_GT(under_2db, 70);  // "insertion losses are typically less than 2dB"
}

TEST(OpticalCore, MeasurePathStableAfterEstablish) {
  OpticalCore core(common::Rng(11));
  const auto established = core.EstablishPath(1, 2);
  ASSERT_TRUE(established.has_value());
  const auto measured = core.MeasurePath(1, 2);
  EXPECT_NEAR(measured.insertion_loss.value(), established->insertion_loss.value(), 1e-9);
}

TEST(OpticalCore, PathDrawsDependOnlyOnThePath) {
  // Two cores from one seed: a path established after others, established
  // again, or established first, draws the same loss and alignment time.
  OpticalCore busy(common::Rng(12)), fresh(common::Rng(12));
  ASSERT_TRUE(busy.EstablishPath(1, 2).has_value());
  ASSERT_TRUE(busy.EstablishPath(3, 4).has_value());
  const auto after_others = busy.EstablishPath(5, 6);
  const auto again = busy.EstablishPath(5, 6);
  const auto first = fresh.EstablishPath(5, 6);
  ASSERT_TRUE(after_others.has_value() && again.has_value() && first.has_value());
  EXPECT_EQ(after_others->insertion_loss.value(), first->insertion_loss.value());
  EXPECT_EQ(again->insertion_loss.value(), first->insertion_loss.value());
  EXPECT_EQ(after_others->alignment_time_ms, first->alignment_time_ms);
  // A spare mirror behind the north port is a new path: it draws afresh.
  ASSERT_TRUE(fresh.FailMirror(0, fresh.array_a().PhysicalMirror(5)));
  const auto on_spare = fresh.EstablishPath(5, 6);
  ASSERT_TRUE(on_spare.has_value());
  EXPECT_NE(on_spare->insertion_loss.value(), first->insertion_loss.value());
}

// --- chassis ---------------------------------------------------------------------

TEST(Chassis, SteadyStateAvailabilityMeetsSpec) {
  const Chassis chassis;
  // §4.1.1: > 99.98% field availability.
  EXPECT_GT(chassis.SteadyStateAvailability(), 0.9998);
  EXPECT_LT(chassis.SteadyStateAvailability(), 1.0);
}

TEST(Chassis, RedundantPsuSurvivesOneFailure) {
  Chassis chassis;
  EXPECT_TRUE(chassis.FailUnit(FruKind::kPowerSupply, 0));
  EXPECT_TRUE(chassis.Operational());
  EXPECT_FALSE(chassis.FailUnit(FruKind::kPowerSupply, 1));
  EXPECT_FALSE(chassis.Operational());
}

TEST(Chassis, FanRedundancyThreeOfFour) {
  Chassis chassis;
  EXPECT_TRUE(chassis.FailUnit(FruKind::kFanModule, 2));
  EXPECT_FALSE(chassis.FailUnit(FruKind::kFanModule, 3));
}

TEST(Chassis, HvDriverFailureTakesChassisDown) {
  Chassis chassis;
  EXPECT_FALSE(chassis.FailUnit(FruKind::kHvDriverBoard, 5));
  // Hot-swap repair restores operation but disturbs mirror state.
  EXPECT_TRUE(chassis.RepairUnit(FruKind::kHvDriverBoard, 5));
  EXPECT_TRUE(chassis.Operational());
}

TEST(Chassis, PsuSwapDoesNotDisturbMirrors) {
  Chassis chassis;
  chassis.FailUnit(FruKind::kPowerSupply, 0);
  EXPECT_FALSE(chassis.RepairUnit(FruKind::kPowerSupply, 0));
}

TEST(Chassis, PowerBudgetNear108W) {
  const Chassis chassis;
  // §4.1.1: maximum power of the entire system is 108 W.
  EXPECT_LE(chassis.PowerDrawWatts(), 108.0);
  EXPECT_GT(chassis.PowerDrawWatts(), 90.0);
}

// --- palomar ---------------------------------------------------------------------

TEST(Palomar, ConnectDisconnectRoundTrip) {
  PalomarSwitch ocs(12);
  const auto conn = ocs.Connect(3, 100);
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.value().north, 3);
  EXPECT_EQ(conn.value().south, 100);
  EXPECT_TRUE(ocs.ConnectionOn(3).has_value());
  EXPECT_TRUE(ocs.Disconnect(3).ok());
  EXPECT_FALSE(ocs.ConnectionOn(3).has_value());
}

TEST(Palomar, RejectsDoubleConnect) {
  PalomarSwitch ocs(13);
  ASSERT_TRUE(ocs.Connect(1, 2).ok());
  EXPECT_FALSE(ocs.Connect(1, 3).ok());  // north busy
  EXPECT_FALSE(ocs.Connect(4, 2).ok());  // south busy
  EXPECT_EQ(ocs.telemetry().rejected_commands, 2u);
}

TEST(Palomar, RejectsOutOfRange) {
  PalomarSwitch ocs(14);
  EXPECT_FALSE(ocs.Connect(-1, 5).ok());
  EXPECT_FALSE(ocs.Connect(0, kPalomarPortCount).ok());
  EXPECT_FALSE(ocs.Disconnect(7).ok());
}

TEST(Palomar, FullPermutationIsNonBlocking) {
  PalomarSwitch ocs(15);
  // Any-to-any: connect the full reversal permutation over the usable ports.
  for (int n = 0; n < kPalomarUsablePorts; ++n) {
    ASSERT_TRUE(ocs.Connect(n, kPalomarUsablePorts - 1 - n).ok()) << n;
  }
  EXPECT_EQ(ocs.ConnectionCount(), kPalomarUsablePorts);
}

TEST(Palomar, SparePortPoolStartsFull) {
  PalomarSwitch ocs(40);
  EXPECT_EQ(ocs.SparePortsRemaining(true), kPalomarSparePorts);
  EXPECT_EQ(ocs.SparePortsRemaining(false), kPalomarSparePorts);
  EXPECT_EQ(ocs.PhysicalPort(true, 17), 17);  // identity until remapped
}

TEST(Palomar, RemapToSpareMovesActiveConnection) {
  PalomarSwitch ocs(41);
  ASSERT_TRUE(ocs.Connect(5, 50).ok());
  ASSERT_TRUE(ocs.RemapToSpare(true, 5).ok());
  EXPECT_GE(ocs.PhysicalPort(true, 5), kPalomarUsablePorts);
  EXPECT_EQ(ocs.SparePortsRemaining(true), kPalomarSparePorts - 1);
  // The logical connection survived the re-patch.
  ASSERT_TRUE(ocs.ConnectionOn(5).has_value());
  EXPECT_EQ(ocs.ConnectionOn(5)->south, 50);
  EXPECT_TRUE(ocs.PortUsable(true, 5));
}

TEST(Palomar, RemapRescuesDeadPort) {
  PalomarSwitch ocs(42);
  ASSERT_TRUE(ocs.Connect(9, 90).ok());
  // Exhaust the mirror spares behind logical north port 9.
  bool usable = true;
  for (int i = 0; i < 60 && usable; ++i) usable = ocs.InjectMirrorFailure(true, 9);
  ASSERT_FALSE(ocs.PortUsable(true, 9));
  EXPECT_FALSE(ocs.Connect(9, 91).ok());
  // A spare physical port brings the logical port back.
  ASSERT_TRUE(ocs.RemapToSpare(true, 9).ok());
  EXPECT_TRUE(ocs.PortUsable(true, 9));
  EXPECT_TRUE(ocs.Connect(9, 90).ok());
}

TEST(Palomar, RemapPoolExhausts) {
  PalomarSwitch ocs(43);
  for (int i = 0; i < kPalomarSparePorts; ++i) {
    ASSERT_TRUE(ocs.RemapToSpare(false, i).ok()) << i;
  }
  EXPECT_EQ(ocs.SparePortsRemaining(false), 0);
  EXPECT_FALSE(ocs.RemapToSpare(false, 20).ok());
  // The remapped ports remain usable, the retired positions do not come back.
  for (int i = 0; i < kPalomarSparePorts; ++i) EXPECT_TRUE(ocs.PortUsable(false, i));
}

TEST(Palomar, RemapRejectsOutOfRange) {
  PalomarSwitch ocs(44);
  EXPECT_FALSE(ocs.RemapToSpare(true, -1).ok());
  EXPECT_FALSE(ocs.RemapToSpare(true, kPalomarUsablePorts).ok());
}

TEST(Palomar, ReconfigurePreservesIntersection) {
  PalomarSwitch ocs(16);
  ASSERT_TRUE(ocs.Connect(0, 10).ok());
  ASSERT_TRUE(ocs.Connect(1, 11).ok());
  ASSERT_TRUE(ocs.Connect(2, 12).ok());
  // New target keeps 0->10, moves 1 to 13, drops 2, adds 3->14.
  const std::map<int, int> target = {{0, 10}, {1, 13}, {3, 14}};
  const auto report = ocs.Reconfigure(target);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().undisturbed.size(), 1u);
  EXPECT_EQ(report.value().undisturbed[0].north, 0);
  EXPECT_EQ(report.value().removed.size(), 2u);
  EXPECT_EQ(report.value().established.size(), 2u);
  EXPECT_EQ(ocs.ConnectionCount(), 3);
  EXPECT_EQ(ocs.ConnectionOn(1)->south, 13);
  EXPECT_FALSE(ocs.ConnectionOn(2).has_value());
}

TEST(Palomar, ReconfigureRejectsNonBijective) {
  PalomarSwitch ocs(17);
  ASSERT_TRUE(ocs.Connect(0, 5).ok());
  // Two norths to one south.
  const auto report = ocs.Reconfigure({{1, 9}, {2, 9}});
  EXPECT_FALSE(report.ok());
  // Prior state untouched.
  EXPECT_EQ(ocs.ConnectionCount(), 1);
  EXPECT_EQ(ocs.ConnectionOn(0)->south, 5);
}

TEST(Palomar, ReconfigureDurationMillisecondClass) {
  PalomarSwitch ocs(18);
  std::map<int, int> target;
  for (int i = 0; i < 64; ++i) target[i] = i + 64;
  const auto report = ocs.Reconfigure(target);
  ASSERT_TRUE(report.ok());
  // Mirrors actuate in parallel: duration is per-path alignment + command
  // overhead, NOT proportional to 64 connections.
  EXPECT_LT(report.value().duration_ms, 60.0);
  EXPECT_GT(report.value().duration_ms, 1.0);
}

TEST(Palomar, SelfLoopSupportsWraparound) {
  // A 1-cube torus dimension wraps by connecting a cube's +face to its own
  // -face: north i -> south i.
  PalomarSwitch ocs(19);
  EXPECT_TRUE(ocs.Connect(42, 42).ok());
}

TEST(Palomar, MirrorFailureWithSparesKeepsPortAlive) {
  PalomarSwitch ocs(20);
  ASSERT_TRUE(ocs.Connect(7, 70).ok());
  const bool survived = ocs.InjectMirrorFailure(/*north_side=*/true, 7);
  EXPECT_TRUE(survived);
  EXPECT_TRUE(ocs.PortUsable(true, 7));
  // The connection was re-established through the spare mirror.
  ASSERT_TRUE(ocs.ConnectionOn(7).has_value());
  EXPECT_EQ(ocs.ConnectionOn(7)->south, 70);
}

TEST(Palomar, PortDiesWhenSparesExhausted) {
  PalomarSwitch ocs(21);
  ASSERT_TRUE(ocs.Connect(9, 90).ok());
  bool usable = true;
  for (int i = 0; i < 60 && usable; ++i) {
    usable = ocs.InjectMirrorFailure(true, 9);
  }
  EXPECT_FALSE(usable);
  EXPECT_FALSE(ocs.PortUsable(true, 9));
  EXPECT_FALSE(ocs.ConnectionOn(9).has_value());
  EXPECT_FALSE(ocs.Connect(9, 91).ok());
}

TEST(Palomar, SurveyReportsAllConnections) {
  PalomarSwitch ocs(22);
  ASSERT_TRUE(ocs.Connect(0, 1).ok());
  ASSERT_TRUE(ocs.Connect(2, 3).ok());
  const auto survey = ocs.SurveyConnections();
  EXPECT_EQ(survey.size(), 2u);
  for (const auto& conn : survey) {
    EXPECT_GT(conn.insertion_loss.value(), 0.0);
    EXPECT_LT(conn.return_loss.value(), -38.0);
  }
}

TEST(Palomar, TelemetryCountsCommands) {
  PalomarSwitch ocs(23);
  (void)ocs.Connect(0, 1);
  (void)ocs.Connect(0, 2);  // rejected
  (void)ocs.Disconnect(0);
  (void)ocs.Reconfigure({{5, 6}});
  const auto& t = ocs.telemetry();
  EXPECT_EQ(t.connects, 2u);  // initial connect + reconfigure-established
  EXPECT_EQ(t.disconnects, 1u);
  EXPECT_EQ(t.rejected_commands, 1u);
  EXPECT_EQ(t.reconfigurations, 1u);
}

class PalomarPermutationSweep : public ::testing::TestWithParam<int> {};

TEST_P(PalomarPermutationSweep, ReconfigureToShiftedPermutationIsExact) {
  const int shift = GetParam();
  PalomarSwitch ocs(24);
  std::map<int, int> identity;
  for (int i = 0; i < kPalomarUsablePorts; ++i) identity[i] = i;
  ASSERT_TRUE(ocs.Reconfigure(identity).ok());

  std::map<int, int> shifted;
  for (int i = 0; i < kPalomarUsablePorts; ++i) {
    shifted[i] = (i + shift) % kPalomarUsablePorts;
  }
  const auto report = ocs.Reconfigure(shifted);
  ASSERT_TRUE(report.ok());
  // Connections with i == (i+shift) mod P stay undisturbed (all for shift 0).
  const std::size_t expected_undisturbed = shift == 0 ? kPalomarUsablePorts : 0;
  EXPECT_EQ(report.value().undisturbed.size(), expected_undisturbed);
  // Verify the final mapping is exactly the shifted permutation.
  for (int i = 0; i < kPalomarUsablePorts; ++i) {
    ASSERT_TRUE(ocs.ConnectionOn(i).has_value());
    EXPECT_EQ(ocs.ConnectionOn(i)->south, (i + shift) % kPalomarUsablePorts);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, PalomarPermutationSweep, ::testing::Values(0, 1, 7, 64));

// --- palomar delta transactions ------------------------------------------------

/// A delta as the span API takes it: (north, south) pairs.
using Pairs = std::vector<std::pair<int, int>>;

void ExpectSameTelemetry(const SwitchTelemetry& a, const SwitchTelemetry& b) {
  EXPECT_EQ(a.connects, b.connects);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(a.rejected_commands, b.rejected_commands);
  EXPECT_EQ(a.cumulative_switch_ms, b.cumulative_switch_ms);
}

TEST(PalomarDelta, MatchesFullTargetReconfigure) {
  // Two switches from one seed: deltas on one, Reconfigure(current +/- delta)
  // on the other. Circuits (both loss doubles), telemetry, exported metrics
  // and durations must agree exactly after every step.
  PalomarSwitch by_delta(31), by_target(31);
  telemetry::Hub delta_hub, target_hub;
  by_delta.AttachTelemetry(&delta_hub);
  by_target.AttachTelemetry(&target_hub);
  common::Rng rng(32);
  const auto port = [&rng] { return static_cast<int>(rng.UniformInt(kPalomarUsablePorts)); };
  for (int step = 0; step < 400; ++step) {
    std::map<int, int> target = by_target.CurrentMapping();
    std::map<int, int> delta;
    double duration_ms = 0.0;
    if (target.empty() || rng.Bernoulli(0.55)) {
      std::set<int> souths;
      for (const auto& [north, south] : target) souths.insert(south);
      const int tries = 1 + static_cast<int>(rng.UniformInt(8));
      for (int i = 0; i < tries; ++i) {
        const int north = port(), south = port();
        if (target.contains(north) || delta.contains(north) || souths.contains(south)) continue;
        delta[north] = south;
        souths.insert(south);
      }
      target.insert(delta.begin(), delta.end());
      // In north order, as Reconfigure establishes them.
      const auto added = by_delta.ConnectDelta(Pairs(delta.begin(), delta.end()));
      ASSERT_TRUE(added.ok()) << step << ": " << added.error().message;
      duration_ms = added.value();
    } else {
      // Live circuits plus pairs that are not live (free north, or a live
      // north with another south): both paths must leave the latter alone.
      for (const auto& [north, south] : target) {
        if (rng.Bernoulli(0.3)) delta[north] = south;
      }
      delta[port()] = port();
      for (const auto& [north, south] : delta) {
        if (auto it = target.find(north); it != target.end() && it->second == south) {
          target.erase(it);
        }
      }
      const auto removed = by_delta.DisconnectDelta(Pairs(delta.begin(), delta.end()));
      ASSERT_TRUE(removed.ok()) << step << ": " << removed.error().message;
      duration_ms = removed.value();
    }
    const auto report = by_target.Reconfigure(target);
    ASSERT_TRUE(report.ok()) << step << ": " << report.error().message;
    EXPECT_EQ(duration_ms, report.value().duration_ms) << step;
    ASSERT_EQ(by_delta.Connections(), by_target.Connections()) << step;
    EXPECT_EQ(by_delta.ConnectionCount(), by_target.ConnectionCount()) << step;
    ExpectSameTelemetry(by_delta.telemetry(), by_target.telemetry());
  }
  EXPECT_GT(by_target.ConnectionCount(), 0);
  EXPECT_EQ(telemetry::ToPrometheus(delta_hub.metrics()),
            telemetry::ToPrometheus(target_hub.metrics()));
}

TEST(PalomarDelta, InvalidDeltaRejectedWithoutStateChange) {
  PalomarSwitch ocs(33);
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{0, 10}, {1, 11}}).ok());
  bool usable = true;
  for (int i = 0; i < 60 && usable; ++i) usable = ocs.InjectMirrorFailure(true, 5);
  ASSERT_FALSE(ocs.PortUsable(true, 5));

  const Pairs invalid_connects[] = {
      {{2, 12}, {kPalomarUsablePorts, 13}},  // north out of range
      {{2, -1}},                             // south out of range
      {{0, 12}},                             // north busy
      {{2, 10}},                             // south busy
      {{2, 12}, {3, 12}},                    // south repeated
      {{2, 12}, {2, 13}},                    // north repeated
      {{2, 12}, {5, 14}},                    // north port dead
  };
  const auto expect_rejected = [&ocs](const auto& attempt) {
    const auto mapping = ocs.CurrentMapping();
    const auto connections = ocs.Connections();
    SwitchTelemetry expected = ocs.telemetry();
    ++expected.rejected_commands;
    EXPECT_FALSE(attempt().ok());
    EXPECT_EQ(ocs.CurrentMapping(), mapping);
    EXPECT_EQ(ocs.Connections(), connections);
    ExpectSameTelemetry(ocs.telemetry(), expected);
  };
  for (const auto& delta : invalid_connects) {
    EXPECT_FALSE(ocs.CheckConnectDelta(delta).ok());
    expect_rejected([&] { return ocs.ConnectDelta(delta); });
  }
  expect_rejected([&] { return ocs.DisconnectDelta(Pairs{{0, 10}, {1, kPalomarUsablePorts}}); });
  expect_rejected([&] { return ocs.DisconnectDelta(Pairs{{-1, 10}}); });

  // The same switch still takes a valid delta.
  EXPECT_TRUE(ocs.CheckConnectDelta(Pairs{{2, 12}}).ok());
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{2, 12}}).ok());
  ASSERT_TRUE(ocs.DisconnectDelta(Pairs{{0, 10}}).ok());
  EXPECT_EQ(ocs.CurrentMapping(), (std::map<int, int>{{1, 11}, {2, 12}}));
}

TEST(PalomarDelta, CheckCountsStagedPorts) {
  // Under a caller's overlay a taken port is busy and a freed one free,
  // whatever the port tables hold; the check changes and counts nothing.
  PalomarSwitch ocs(34);
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{0, 10}}).ok());
  PortOverlay staged;
  EXPECT_FALSE(ocs.CheckConnectDelta(Pairs{{0, 11}}, staged).ok());
  EXPECT_FALSE(ocs.CheckConnectDelta(Pairs{{1, 10}}, staged).ok());
  staged.north_freed.set(0);
  staged.south_freed.set(10);
  EXPECT_TRUE(ocs.CheckConnectDelta(Pairs{{0, 11}}, staged).ok());
  EXPECT_TRUE(ocs.CheckConnectDelta(Pairs{{1, 10}}, staged).ok());
  staged.north_taken.set(2);
  staged.south_taken.set(12);
  EXPECT_FALSE(ocs.CheckConnectDelta(Pairs{{2, 13}}, staged).ok());
  EXPECT_FALSE(ocs.CheckConnectDelta(Pairs{{3, 12}}, staged).ok());
  EXPECT_TRUE(ocs.CheckConnectDelta(Pairs{{3, 13}}, staged).ok());
  // Without an overlay the port tables decide.
  EXPECT_FALSE(ocs.CheckConnectDelta(Pairs{{0, 11}}).ok());
  EXPECT_TRUE(ocs.CheckConnectDelta(Pairs{{2, 13}}).ok());
  EXPECT_EQ(ocs.CurrentMapping(), (std::map<int, int>{{0, 10}}));
  EXPECT_EQ(ocs.telemetry().rejected_commands, 0u);
}

// --- technology ------------------------------------------------------------------

TEST(Technology, TableHasFiveRows) {
  EXPECT_EQ(OcsTechnologies().size(), 5u);
}

TEST(Technology, MemsWinsForDatacenterRequirements) {
  // §3.2.1: MEMS provides the best match for the DCN/ML requirements.
  const auto ranked = RankTechnologies(UseCaseRequirements{}, OcsTechnologies());
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked.front().technology.name, "MEMS");
  EXPECT_GT(ranked.front().score, 0.0);
}

TEST(Technology, GuidedWaveFailsRadixRequirement) {
  const auto ranked = RankTechnologies(UseCaseRequirements{}, OcsTechnologies());
  for (const auto& ts : ranked) {
    if (ts.technology.name == "GuidedWave") {
      EXPECT_LT(ts.score, 0.0);
      EXPECT_NE(ts.rationale.find("radix"), std::string::npos);
    }
  }
}

TEST(Technology, RoboticFailsFastReconfigurationUseCase) {
  UseCaseRequirements req;
  req.max_switching_time_s = 0.1;
  const auto ranked = RankTechnologies(req, OcsTechnologies());
  for (const auto& ts : ranked) {
    if (ts.technology.name == "Robotic") {
      EXPECT_LT(ts.score, 0.0);
    }
  }
}

}  // namespace
}  // namespace lightwave::ocs
