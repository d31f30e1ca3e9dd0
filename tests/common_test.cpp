// Unit tests for the common substrate: dB units, RNG, histograms, math
// helpers, result types, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/math.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace lightwave::common {
namespace {

using namespace lightwave::common::literals;

// --- units -------------------------------------------------------------------

TEST(Units, DecibelLinearRoundTrip) {
  EXPECT_NEAR(Decibel{3.0103}.linear(), 2.0, 1e-4);
  EXPECT_NEAR(Decibel::FromLinear(10.0).value(), 10.0, 1e-12);
  EXPECT_NEAR(Decibel::FromLinear(0.5).value(), -3.0103, 1e-4);
}

TEST(Units, DecibelArithmetic) {
  const Decibel a{3.0}, b{1.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 4.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  EXPECT_DOUBLE_EQ((-a).value(), -3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 6.0);
}

TEST(Units, PowerGainArithmetic) {
  const DbmPower p{0.0};  // 1 mW
  EXPECT_NEAR(p.milliwatts(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ((p - Decibel{3.0}).value(), -3.0);
  EXPECT_DOUBLE_EQ((p + Decibel{10.0}).value(), 10.0);
  // Difference of two powers is a ratio in dB.
  EXPECT_DOUBLE_EQ((DbmPower{2.0} - DbmPower{-1.0}).value(), 3.0);
}

TEST(Units, PowerMilliwattsRoundTrip) {
  EXPECT_NEAR(DbmPower::FromMilliwatts(2.0).value(), 3.0103, 1e-4);
  EXPECT_NEAR(DbmPower{-30.0}.milliwatts(), 1e-3, 1e-9);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((3.5_dB).value(), 3.5);
  EXPECT_DOUBLE_EQ((2_dBm).value(), 2.0);
}

TEST(Units, SumInterferersDominatedByStrongest) {
  const Decibel terms[] = {Decibel{-30.0}, Decibel{-60.0}};
  const Decibel sum = SumInterferers(terms, 2);
  EXPECT_GT(sum.value(), -30.0);
  EXPECT_LT(sum.value(), -29.9);
}

TEST(Units, SumInterferersEqualPowersAdd3Db) {
  const Decibel terms[] = {Decibel{-40.0}, Decibel{-40.0}};
  EXPECT_NEAR(SumInterferers(terms, 2).value(), -36.99, 0.01);
}

TEST(Units, SumInterferersEmptyIsFloor) {
  EXPECT_LT(SumInterferers(nullptr, 0).value(), -300.0);
}

// --- rng ---------------------------------------------------------------------

// A generator is its four xoshiro256++ state words and nothing else, so a
// copy continues exactly where the original would.
static_assert(sizeof(Rng) == 4 * sizeof(std::uint64_t));

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.rbegin(), 5u);
}

/// Kolmogorov-Smirnov distance between the sample's empirical CDF and the
/// standard normal CDF.
double KsDistanceToNormal(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double distance = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-sample[i] / std::sqrt(2.0));
    distance = std::max({distance, cdf - static_cast<double>(i) / n,
                         static_cast<double>(i + 1) / n - cdf});
  }
  return distance;
}

TEST(Rng, GaussianMoments) {
  // Scalar draws: each standard normal and uncorrelated with the next.
  Rng rng(13);
  const int n = 1000000;
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.Gaussian();
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / n;
  double var = 0.0, lag1 = 0.0;
  for (int i = 0; i < n; ++i) {
    var += (xs[i] - mean) * (xs[i] - mean);
    if (i + 1 < n) lag1 += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  EXPECT_LT(std::abs(mean), 0.005);
  EXPECT_LT(std::abs(var / n - 1.0), 0.01);
  EXPECT_LT(std::abs(lag1 / var), 0.005);
  EXPECT_LT(KsDistanceToNormal(std::move(xs)), 0.003);
}

TEST(Rng, GaussianTails) {
  // The KS bound above is blind to the tail: only 2 Phi(-R) = 5.8e-4 of the
  // mass lies beyond the Ziggurat's R, where its tail sampler works, next to
  // its outermost wedges. Count the draws beyond R and beyond 4 against
  // their Poisson expectations, and check the whole shape by chi-square over
  // 64 equiprobable bins (63 degrees of freedom: 120 is about 5 sigma).
  constexpr int kDraws = 10000000;
  constexpr double kR = detail::ZigguratTables::kR;
  Rng rng(15);
  std::array<std::int64_t, 64> bins{};
  std::int64_t beyond_r = 0, beyond_4 = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Gaussian();
    beyond_r += std::abs(x) > kR ? 1 : 0;
    beyond_4 += std::abs(x) > 4.0 ? 1 : 0;
    const double cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    ++bins[static_cast<std::size_t>(std::min(63, static_cast<int>(cdf * 64.0)))];
  }
  const double n = kDraws;
  for (const auto& [count, cut] : {std::pair{beyond_r, kR}, std::pair{beyond_4, 4.0}}) {
    const double expected = n * std::erfc(cut / std::sqrt(2.0));  // 2 Phi(-cut) N
    const double z = (static_cast<double>(count) - expected) / std::sqrt(expected);
    EXPECT_LT(std::abs(z), 5.0) << "|x| > " << cut << ": " << count << " vs " << expected;
  }
  double chi_square = 0.0;
  for (const std::int64_t count : bins) {
    const double diff = static_cast<double>(count) - n / 64.0;
    chi_square += diff * diff / (n / 64.0);
  }
  EXPECT_LT(chi_square, 120.0);
}

TEST(Rng, GaussianWithParams) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- histogram / samples --------------------------------------------------------

TEST(SampleSet, BasicStats) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(SampleSet, PercentileNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
}

TEST(SampleSet, PercentileBoundaries) {
  // p = 0 is the minimum, p = 100 the maximum; out-of-range p clamps.
  SampleSet s;
  for (double x : {7.0, 3.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(s.Percentile(-5.0), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(250.0), 9.0);
}

TEST(SampleSet, PercentileSingleSample) {
  SampleSet s;
  s.Add(42.0);
  for (double p : {0.0, 1.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(s.Percentile(p), 42.0) << "p=" << p;
  }
}

TEST(SampleSet, PercentileEmptySetIsZero) {
  // Never-observed telemetry histograms query percentiles at export time;
  // an empty set answers 0.0 instead of asserting.
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 0.0);
}

TEST(SampleSet, PercentileUnsortedInput) {
  SampleSet s;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Histogram, BinningAndCenters) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.99);
  h.Add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 0.5);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-0.1);
  h.Add(1.0);  // hi edge is exclusive
  h.Add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 10; ++i) h.Add(0.5);
  h.Add(1.5);
  const std::string art = h.Render(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("10"), std::string::npos);
}

// --- math --------------------------------------------------------------------

TEST(MathTest, QFunctionKnownValues) {
  EXPECT_NEAR(QFunction(0.0), 0.5, 1e-12);
  EXPECT_NEAR(QFunction(1.0), 0.158655, 1e-6);
  EXPECT_NEAR(QFunction(3.0), 1.349898e-3, 1e-8);
  EXPECT_NEAR(QFunction(6.0), 9.8659e-10, 1e-13);
}

TEST(MathTest, QInverseRoundTrip) {
  for (double p : {0.4, 0.1, 1e-2, 1e-4, 2e-4, 1e-6, 1e-9}) {
    EXPECT_NEAR(QFunction(QInverse(p)), p, p * 1e-6) << "p=" << p;
  }
}

TEST(MathTest, QInverseMonotone) {
  EXPECT_GT(QInverse(1e-6), QInverse(1e-4));
  EXPECT_GT(QInverse(1e-4), QInverse(1e-2));
}

TEST(MathTest, Linspace) {
  const auto v = Linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(MathTest, BinomialCoefficient) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 5), 0.0);
  EXPECT_NEAR(BinomialCoefficient(64, 32), 1.83262414e18, 1e12);
}

TEST(MathTest, AtLeastKofNBoundaries) {
  EXPECT_DOUBLE_EQ(AtLeastKofN(10, 0, 0.5), 1.0);
  EXPECT_NEAR(AtLeastKofN(10, 10, 0.9), std::pow(0.9, 10), 1e-12);
  EXPECT_NEAR(AtLeastKofN(1, 1, 0.37), 0.37, 1e-12);
}

TEST(MathTest, AtLeastKofNMonotoneInP) {
  EXPECT_LT(AtLeastKofN(20, 15, 0.7), AtLeastKofN(20, 15, 0.8));
  EXPECT_LT(AtLeastKofN(20, 15, 0.8), AtLeastKofN(20, 15, 0.9));
}

class AtLeastKofNSweep : public ::testing::TestWithParam<int> {};

TEST_P(AtLeastKofNSweep, DecreasesInK) {
  const int n = 30;
  const int k = GetParam();
  EXPECT_GE(AtLeastKofN(n, k, 0.85), AtLeastKofN(n, k + 1, 0.85));
}

INSTANTIATE_TEST_SUITE_P(Ks, AtLeastKofNSweep, ::testing::Values(0, 5, 10, 20, 25, 29));

// --- result ------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
  EXPECT_EQ(r.error().message, "bad");
}

TEST(ResultTest, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status failed = NotFound("missing");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, Error::Code::kNotFound);
}

TEST(ResultTest, ErrorCodeNames) {
  EXPECT_STREQ(ToString(Error::Code::kUnavailable), "unavailable");
  EXPECT_STREQ(ToString(Error::Code::kResourceExhausted), "resource-exhausted");
}

// --- table -------------------------------------------------------------------

TEST(TableTest, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "22"});
  const std::string s = t.Render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Factor(1.239, 2), "1.24x");
  EXPECT_EQ(Table::Percent(0.975, 1), "97.5%");
  EXPECT_EQ(Table::Sci(2e-4, 1), "2.0e-04");
}

}  // namespace
}  // namespace lightwave::common
