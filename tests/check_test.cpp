// Contracts library (common/check.h): macro semantics, streamed messages,
// source locations, handler plumbing, ensure/fatal accounting, and
// validation mode.
#include "common/check.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/result.h"

namespace lightwave {
namespace {

/// Records every failure the handler sees (and never aborts).
struct Recorder {
  std::vector<common::CheckFailure> failures;

  common::ScopedCheckHandler Install() {
    return common::ScopedCheckHandler(
        [this](const common::CheckFailure& f) { failures.push_back(f); });
  }
};

TEST(Check, PassingContractsAreSilent) {
  Recorder recorder;
  auto guard = recorder.Install();
  LW_CHECK(1 + 1 == 2) << "never evaluated";
  LW_CHECK_OK(common::Status::Ok());
  LW_DCHECK(true);
  EXPECT_TRUE(LW_ENSURE(true));
  EXPECT_TRUE(recorder.failures.empty());
}

TEST(Check, FailureCarriesConditionLocationAndMessage) {
  Recorder recorder;
  auto guard = recorder.Install();
  const int port = 212;
  LW_CHECK(port < 136) << "port " << port << " out of range";
  ASSERT_EQ(recorder.failures.size(), 1u);
  const auto& f = recorder.failures[0];
  EXPECT_EQ(f.kind, common::CheckKind::kCheck);
  EXPECT_STREQ(f.condition, "port < 136");
  EXPECT_NE(std::string(f.where.file).find("check_test.cpp"), std::string::npos);
  EXPECT_GT(f.where.line, 0);
  EXPECT_EQ(f.message, "port 212 out of range");
  const std::string formatted = common::FormatCheckFailure(f);
  EXPECT_NE(formatted.find("LW_check failed"), std::string::npos);
  EXPECT_NE(formatted.find("port 212"), std::string::npos);
}

TEST(Check, CheckOkStreamsTheError) {
  Recorder recorder;
  auto guard = recorder.Install();
  LW_CHECK_OK(common::Status(common::NotFound("no connection on north 7")))
      << "while disconnecting";
  ASSERT_EQ(recorder.failures.size(), 1u);
  EXPECT_NE(recorder.failures[0].message.find("not-found"), std::string::npos);
  EXPECT_NE(recorder.failures[0].message.find("no connection on north 7"),
            std::string::npos);
  EXPECT_NE(recorder.failures[0].message.find("while disconnecting"), std::string::npos);
}

TEST(Check, CheckOkWorksOnResults) {
  Recorder recorder;
  auto guard = recorder.Install();
  LW_CHECK_OK(common::Result<int>(7));
  EXPECT_TRUE(recorder.failures.empty());
  LW_CHECK_OK(common::Result<int>(common::Internal("boom")));
  ASSERT_EQ(recorder.failures.size(), 1u);
  EXPECT_NE(recorder.failures[0].message.find("boom"), std::string::npos);
}

TEST(Check, DcheckFollowsBuildType) {
  Recorder recorder;
  auto guard = recorder.Install();
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return false;
  };
  LW_DCHECK(touch()) << "debug-only";
  if (common::kDchecksEnabled) {
    EXPECT_EQ(evaluations, 1);
    ASSERT_EQ(recorder.failures.size(), 1u);
    EXPECT_EQ(recorder.failures[0].kind, common::CheckKind::kDcheck);
  } else {
    // Stripped: the condition must not even be evaluated.
    EXPECT_EQ(evaluations, 0);
    EXPECT_TRUE(recorder.failures.empty());
  }
}

TEST(Check, EnsureReturnsConditionAndNeverAborts) {
  Recorder recorder;
  auto guard = recorder.Install();
  const auto before = common::GetCheckStats();
  EXPECT_TRUE(LW_ENSURE(2 > 1));
  EXPECT_FALSE(LW_ENSURE(1 > 2));
  EXPECT_FALSE(LW_ENSURE(1 > 2));
  ASSERT_EQ(recorder.failures.size(), 2u);
  EXPECT_EQ(recorder.failures[0].kind, common::CheckKind::kEnsure);
  const auto after = common::GetCheckStats();
  EXPECT_EQ(after.ensure_failures - before.ensure_failures, 2u);
  EXPECT_EQ(after.fatal_failures, before.fatal_failures);
}

TEST(Check, UnreachableFires) {
  Recorder recorder;
  auto guard = recorder.Install();
  const auto before = common::GetCheckStats();
  LW_UNREACHABLE() << "impossible enum value " << 42;
  ASSERT_EQ(recorder.failures.size(), 1u);
  EXPECT_EQ(recorder.failures[0].kind, common::CheckKind::kUnreachable);
  EXPECT_EQ(recorder.failures[0].message, "impossible enum value 42");
  EXPECT_EQ(common::GetCheckStats().fatal_failures - before.fatal_failures, 1u);
}

TEST(Check, ScopedHandlerRestoresThePrevious) {
  Recorder outer;
  auto outer_guard = outer.Install();
  {
    Recorder inner;
    auto inner_guard = inner.Install();
    LW_CHECK(false) << "seen by inner";
    EXPECT_EQ(inner.failures.size(), 1u);
  }
  LW_CHECK(false) << "seen by outer";
  ASSERT_EQ(outer.failures.size(), 1u);
  EXPECT_EQ(outer.failures[0].message, "seen by outer");
}

TEST(Check, ValidationModeToggles) {
  common::SetValidationEnabled(false);
  EXPECT_FALSE(common::ValidationEnabled());
  {
    common::ScopedValidation validation(true);
    EXPECT_TRUE(common::ValidationEnabled());
  }
  EXPECT_FALSE(common::ValidationEnabled());
}

TEST(CheckDeath, DefaultHandlerAbortsOnFatalContracts) {
  EXPECT_DEATH({ LW_CHECK(false) << "fatal by default"; }, "LW_check failed");
}

TEST(CheckDeath, DefaultHandlerToleratesEnsure) {
  // kEnsure only logs; the process must stay alive and report cleanly.
  EXPECT_FALSE(LW_ENSURE(false));
  SUCCEED();
}

}  // namespace
}  // namespace lightwave
