// Negative tests for the structural validators: each one seeds a specific
// corruption through a test-only hook (or a deliberately one-sided
// operation) and asserts the validator reports it — a validator that cannot
// catch seeded corruption is dead code. The positive direction (healthy
// state validates clean, boundaries stay silent) is asserted alongside.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/dcn_fabric.h"
#include "core/scheduler.h"
#include "fec/gf.h"
#include "ocs/palomar.h"
#include "sim/event.h"
#include "tpu/superpod.h"

namespace lightwave {
namespace {

/// Records contract failures without aborting, with validation mode forced
/// on so the transaction-boundary gates actually run.
class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest()
      : validation_(true), guard_([this](const common::CheckFailure& f) {
          failures_.push_back(common::FormatCheckFailure(f));
        }) {}

  bool Reported(const std::string& needle) const {
    for (const auto& f : failures_) {
      if (f.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  common::ScopedValidation validation_;
  std::vector<std::string> failures_;
  common::ScopedCheckHandler guard_;
};

// --- Palomar bijectivity + dead-mirror consistency ---------------------------

/// A delta as the span API takes it: (north, south) pairs.
using Pairs = std::vector<std::pair<int, int>>;

TEST_F(ValidatorTest, PalomarHealthyStateValidatesClean) {
  ocs::PalomarSwitch ocs(42);
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{0, 5}}).ok());
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{1, 4}}).ok());
  ASSERT_TRUE(ocs.Reconfigure({{0, 5}, {2, 3}}).ok());
  EXPECT_TRUE(ocs.ValidateInvariants().ok());
  EXPECT_TRUE(failures_.empty());
}

TEST_F(ValidatorTest, PalomarDetectsCorruptedMapping) {
  ocs::PalomarSwitch ocs(42);
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{0, 5}}).ok());
  // Redirect the established N->S entry without touching S->N: the maps
  // stay the same size but are no longer inverse.
  ocs.TestOnlyCorruptMapping(0, 9);
  const auto status = ocs.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("inverse"), std::string::npos);
  // The next transaction boundary fires the failure handler.
  (void)ocs.DisconnectDelta(Pairs{{0, 9}});
  EXPECT_TRUE(Reported("after DisconnectDelta"));
}

TEST_F(ValidatorTest, PalomarDetectsConnectionRidingDeadMirror) {
  ocs::PalomarSwitch ocs(42);
  ASSERT_TRUE(ocs.ConnectDelta(Pairs{{3, 8}}).ok());
  ocs.TestOnlyKillPortUnderConnection(/*north_side=*/true, /*logical_port=*/3);
  const auto status = ocs.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("dead mirror"), std::string::npos);
}

// --- EventQueue timestamp monotonicity ---------------------------------------

TEST_F(ValidatorTest, EventQueueRejectsSchedulingIntoThePast) {
  sim::EventQueue queue;
  queue.At(5.0, [] {});
  queue.Run();
  ASSERT_DOUBLE_EQ(queue.now(), 5.0);
  queue.At(1.0, [] {});  // out-of-order event
  EXPECT_TRUE(Reported("event scheduled in the past"));
  queue.After(-0.5, [] {});
  EXPECT_TRUE(Reported("negative delay"));
}

// --- Scheduler slice accounting ----------------------------------------------

TEST_F(ValidatorTest, SchedulerDetectsDoubleBookedSlice) {
  tpu::Superpod pod(7, /*cubes=*/8, /*ocs_per_dim=*/2);
  core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
  auto slice = scheduler.Allocate(tpu::SliceShape{2, 2, 1});
  ASSERT_TRUE(slice.ok());
  EXPECT_TRUE(scheduler.ValidateInvariants().ok());
  EXPECT_TRUE(failures_.empty());

  pod.TestOnlyDuplicateSliceRecord(slice.value());
  const auto status = scheduler.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("double-booked"), std::string::npos);
}

TEST_F(ValidatorTest, SchedulerDetectsCorruptedOwnershipIndex) {
  tpu::Superpod pod(7, 8, 2);
  core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
  auto slice = scheduler.Allocate(tpu::SliceShape{1, 1, 2});
  ASSERT_TRUE(slice.ok());

  // Phantom ownership entry for a cube no slice owns.
  pod.TestOnlySetCubeOwner(7, 999);
  const auto status = scheduler.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("ownership index"), std::string::npos);
  // The next transaction boundary fires the failure handler.
  (void)scheduler.Release(slice.value());
  EXPECT_TRUE(Reported("after Release"));
}

// --- DcnFabric link-state symmetry -------------------------------------------

TEST_F(ValidatorTest, DcnFabricDetectsOneSidedTrunk) {
  core::DcnFabric fabric(/*seed=*/77, /*max_blocks=*/4, /*ocs_count=*/2,
                         /*link_gbps=*/400.0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fabric.AddBlock(optics::Cwdm4Duplex()).ok());
  ASSERT_TRUE(fabric.ApplyTopology(sim::UniformTraffic(4, 1000.0)).ok());
  EXPECT_TRUE(fabric.ValidateInvariants().ok());
  EXPECT_TRUE(failures_.empty());

  // Tear down one direction of an installed trunk, leaving its reverse: the
  // per-switch state is still self-consistent (Palomar stays happy), but
  // the fabric's link state is no longer symmetric.
  bool corrupted = false;
  for (int c = 0; c < fabric.ocs_count() && !corrupted; ++c) {
    const auto conns = fabric.ocs(c).Connections();
    if (!conns.empty()) {
      const Pairs one_direction{{conns.front().north, conns.front().south}};
      ASSERT_TRUE(fabric.ocs(c).DisconnectDelta(one_direction).ok());
      ASSERT_FALSE(fabric.ocs(c).ConnectionOn(conns.front().north).has_value());
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "topology installed no trunks to corrupt";
  const auto status = fabric.ValidateInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("no reverse direction"), std::string::npos);
}

// --- GF(2^10) table self-check -----------------------------------------------

TEST_F(ValidatorTest, GfInstanceSelfChecksClean) {
  EXPECT_TRUE(fec::Gf1024::Instance().SelfCheck().ok());
}

TEST_F(ValidatorTest, GfDetectsCorruptedExpTable) {
  auto exp = fec::Gf1024::Instance().exp_table();
  const auto& log = fec::Gf1024::Instance().log_table();
  exp[5] = static_cast<fec::Gf1024::Element>(exp[5] ^ 1u);  // single bit flip
  const auto status = fec::Gf1024::CheckTables(exp, log);
  ASSERT_FALSE(status.ok());
}

TEST_F(ValidatorTest, GfDetectsCorruptedLogTable) {
  const auto& exp = fec::Gf1024::Instance().exp_table();
  auto log = fec::Gf1024::Instance().log_table();
  log[exp[10]] = 11;  // no longer the inverse of exp
  const auto status = fec::Gf1024::CheckTables(exp, log);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("log[exp["), std::string::npos);
}

}  // namespace
}  // namespace lightwave
