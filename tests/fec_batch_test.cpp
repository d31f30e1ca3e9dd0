// Batch Reed-Solomon kernel tests (CTest label: fecbatch): bit-exactness of
// EncodeMany/DecodeMany against the per-word kernels under every supported
// dispatch path, ragged tails, per-lane failure isolation, and the
// thread-count/dispatch invariance of the parallel Monte-Carlo FER sweep.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "fec/concatenated.h"
#include "fec/gf.h"
#include "fec/reed_solomon.h"
#include "fec/rs_batch.h"

namespace lightwave::fec {
namespace {

using Element = Gf1024::Element;

/// Pins a dispatch path for the test's scope, restoring automatic selection
/// on exit (other tests must not inherit a forced path).
class ScopedDispatch {
 public:
  explicit ScopedDispatch(batch::Dispatch dispatch) { batch::Force(dispatch); }
  ~ScopedDispatch() { batch::ResetDispatch(); }
};

std::vector<batch::Dispatch> SupportedDispatches() {
  std::vector<batch::Dispatch> out;
  for (auto d : {batch::Dispatch::kSwar, batch::Dispatch::kAvx2}) {
    if (batch::Supported(d)) out.push_back(d);
  }
  return out;
}

std::vector<Element> RandomData(const ReedSolomon& rs, int count, common::Rng& rng) {
  std::vector<Element> data(static_cast<std::size_t>(count) *
                            static_cast<std::size_t>(rs.k()));
  for (auto& s : data) s = static_cast<Element>(rng.UniformInt(Gf1024::kFieldSize));
  return data;
}

/// Scalar reference: encode each word with EncodeInto.
std::vector<Element> EncodeEachScalar(const ReedSolomon& rs,
                                      const std::vector<Element>& data) {
  const auto count = data.size() / static_cast<std::size_t>(rs.k());
  std::vector<Element> out(count * static_cast<std::size_t>(rs.n()));
  for (std::size_t w = 0; w < count; ++w) {
    std::span<Element> word(out.data() + w * static_cast<std::size_t>(rs.n()),
                            static_cast<std::size_t>(rs.n()));
    std::copy_n(data.data() + w * static_cast<std::size_t>(rs.k()),
                static_cast<std::size_t>(rs.k()), word.data());
    rs.EncodeInto(word.first(static_cast<std::size_t>(rs.k())), word);
  }
  return out;
}

/// Corrupts word `w` of `words` with `errors` random distinct positions.
void CorruptWord(std::span<Element> words, int n, int w, int errors, common::Rng& rng) {
  std::vector<int> positions;
  while (static_cast<int>(positions.size()) < errors) {
    const int pos = static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(n)));
    if (std::find(positions.begin(), positions.end(), pos) != positions.end()) continue;
    positions.push_back(pos);
    Element& symbol = words[static_cast<std::size_t>(w) * static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(pos)];
    const auto flip = static_cast<Element>(1 + rng.UniformInt(Gf1024::kFieldSize - 1));
    symbol = static_cast<Element>(symbol ^ flip);
  }
}

TEST(RsBatchDispatch, SwarAlwaysSupported) {
  EXPECT_TRUE(batch::Supported(batch::Dispatch::kSwar));
  // Whatever is active must report as supported.
  EXPECT_TRUE(batch::Supported(batch::Active()));
}

TEST(RsBatchDispatch, NamesAreStable) {
  EXPECT_STREQ(batch::Name(batch::Dispatch::kSwar), "swar");
  EXPECT_STREQ(batch::Name(batch::Dispatch::kAvx2), "avx2");
}

TEST(RsBatchDispatch, ForceOverridesAndResetRestores) {
  // Without an override the CPU alone picks the path.
  const auto automatic = batch::Supported(batch::Dispatch::kAvx2) ? batch::Dispatch::kAvx2
                                                                  : batch::Dispatch::kSwar;
  EXPECT_EQ(batch::Active(), automatic);
  for (auto dispatch : SupportedDispatches()) {
    {
      ScopedDispatch forced(dispatch);
      EXPECT_EQ(batch::Active(), dispatch);
    }
    EXPECT_EQ(batch::Active(), automatic);
  }
}

TEST(RsBatchEncode, MatchesScalarOnFullTilesAndRaggedTail) {
  const auto rs = ReedSolomon::Kp4();
  ReedSolomon::BatchScratch scratch;
  common::Rng rng(20260808);
  // 2 full tiles plus a 5-lane ragged tail.
  const int count = 2 * batch::kLaneWidth + 5;
  const auto data = RandomData(rs, count, rng);
  const auto expected = EncodeEachScalar(rs, data);
  for (auto dispatch : SupportedDispatches()) {
    ScopedDispatch forced(dispatch);
    std::vector<Element> got(expected.size());
    rs.EncodeMany(data, got, scratch);
    EXPECT_EQ(got, expected) << "dispatch=" << batch::Name(dispatch);
  }
}

TEST(RsBatchEncode, SmallCodeAndSingleWord) {
  const ReedSolomon rs(20, 14);
  ReedSolomon::BatchScratch scratch;
  common::Rng rng(7);
  for (const int count : {1, batch::kLaneWidth, batch::kLaneWidth + 1}) {
    const auto data = RandomData(rs, count, rng);
    const auto expected = EncodeEachScalar(rs, data);
    for (auto dispatch : SupportedDispatches()) {
      ScopedDispatch forced(dispatch);
      std::vector<Element> got(expected.size());
      rs.EncodeMany(data, got, scratch);
      EXPECT_EQ(got, expected)
          << "dispatch=" << batch::Name(dispatch) << " count=" << count;
    }
  }
}

TEST(RsBatchDecode, MatchesScalarAcrossRandomErrorCounts) {
  const auto rs = ReedSolomon::Kp4();
  ReedSolomon::BatchScratch scratch;
  ReedSolomon::Scratch scalar_scratch;
  common::Rng rng(42);
  const int count = batch::kLaneWidth + 7;  // one full tile + ragged tail
  const auto data = RandomData(rs, count, rng);
  const auto clean = EncodeEachScalar(rs, data);
  auto corrupted = clean;
  // Per-lane error counts sweep clean lanes, correctable lanes, and
  // beyond-t lanes (detection/miscorrection) in one batch.
  for (int w = 0; w < count; ++w) {
    const int errors = static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(rs.t() + 4)));
    CorruptWord(corrupted, rs.n(), w, errors, rng);
  }
  // Scalar reference: DecodeInPlace per word, recording results and bytes.
  auto expected_words = corrupted;
  std::vector<int> expected(static_cast<std::size_t>(count));
  for (int w = 0; w < count; ++w) {
    std::span<Element> word(expected_words.data() + static_cast<std::size_t>(w) * rs.n(),
                            static_cast<std::size_t>(rs.n()));
    const auto result = rs.DecodeInPlace(word, scalar_scratch);
    expected[static_cast<std::size_t>(w)] =
        result.ok() ? result.value() : ReedSolomon::kDecodeFailed;
  }
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](int c) { return c == ReedSolomon::kDecodeFailed; }))
      << "the sweep should include at least one uncorrectable lane";
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(), [](int c) { return c > 0; }));
  for (auto dispatch : SupportedDispatches()) {
    ScopedDispatch forced(dispatch);
    auto words = corrupted;
    std::vector<int> corrected(static_cast<std::size_t>(count));
    rs.DecodeMany(words, corrected, scratch);
    EXPECT_EQ(corrected, expected) << "dispatch=" << batch::Name(dispatch);
    EXPECT_EQ(words, expected_words) << "dispatch=" << batch::Name(dispatch);
  }
}

TEST(RsBatchDecode, OutOfFieldLaneFailsWithoutPoisoningNeighbors) {
  const auto rs = ReedSolomon::Kp4();
  ReedSolomon::BatchScratch scratch;
  common::Rng rng(3);
  const int count = batch::kLaneWidth;
  const auto data = RandomData(rs, count, rng);
  auto words = EncodeEachScalar(rs, data);
  CorruptWord(words, rs.n(), 2, 4, rng);  // lane 2: correctable
  words[static_cast<std::size_t>(5) * rs.n() + 100] = Gf1024::kFieldSize;  // lane 5: invalid
  for (auto dispatch : SupportedDispatches()) {
    ScopedDispatch forced(dispatch);
    auto batch_words = words;
    std::vector<int> corrected(static_cast<std::size_t>(count));
    rs.DecodeMany(batch_words, corrected, scratch);
    EXPECT_EQ(corrected[5], ReedSolomon::kDecodeFailed);
    EXPECT_EQ(corrected[2], 4);
    for (int w = 0; w < count; ++w) {
      if (w == 2 || w == 5) continue;
      EXPECT_EQ(corrected[static_cast<std::size_t>(w)], 0) << "lane " << w;
    }
    // The invalid lane keeps its received bytes.
    EXPECT_EQ(std::vector<Element>(
                  batch_words.begin() + static_cast<std::ptrdiff_t>(5) * rs.n(),
                  batch_words.begin() + static_cast<std::ptrdiff_t>(6) * rs.n()),
              std::vector<Element>(
                  words.begin() + static_cast<std::ptrdiff_t>(5) * rs.n(),
                  words.begin() + static_cast<std::ptrdiff_t>(6) * rs.n()));
  }
}

TEST(RsBatchDecode, ScratchReuseAcrossBatches) {
  const auto rs = ReedSolomon::Kp4();
  ReedSolomon::BatchScratch scratch;
  common::Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    const int count = batch::kLaneWidth + round;
    const auto data = RandomData(rs, count, rng);
    auto words = EncodeEachScalar(rs, data);
    CorruptWord(words, rs.n(), 0, rs.t(), rng);
    std::vector<int> corrected(static_cast<std::size_t>(count));
    rs.DecodeMany(words, corrected, scratch);
    EXPECT_EQ(corrected[0], rs.t()) << "round " << round;
    for (int w = 1; w < count; ++w) {
      EXPECT_EQ(corrected[static_cast<std::size_t>(w)], 0) << "round " << round;
    }
  }
}

/// The Monte-Carlo sweep must be byte-identical at any thread count: same
/// FER and same caller-RNG state afterwards. (ISSUE acceptance: 1, 2, and 8
/// threads.)
TEST(ParallelFerSweep, ThreadCountInvariance) {
  const ConcatenatedFec fec;
  std::vector<double> fers;
  std::vector<std::uint64_t> rng_after;
  for (const int threads : {1, 2, 8}) {
    common::parallel::SetThreads(threads);
    common::Rng rng(123);
    fers.push_back(fec.MeasureFrameErrorRate(4e-3, false, 70, rng));
    rng_after.push_back(rng.NextU64());
  }
  common::parallel::SetThreads(1);
  EXPECT_EQ(fers[0], fers[1]);
  EXPECT_EQ(fers[0], fers[2]);
  EXPECT_EQ(rng_after[0], rng_after[1]);
  EXPECT_EQ(rng_after[0], rng_after[2]);
  // The operating point sits mid-waterfall, so the sweep must actually see
  // both outcomes for the invariance check to mean anything.
  EXPECT_GT(fers[0], 0.0);
  EXPECT_LT(fers[0], 1.0);
}

TEST(ParallelFerSweep, DispatchInvariance) {
  const ConcatenatedFec fec;
  std::vector<double> fers;
  for (auto dispatch : SupportedDispatches()) {
    ScopedDispatch forced(dispatch);
    common::Rng rng(99);
    fers.push_back(fec.MeasureFrameErrorRate(4e-3, false, 40, rng));
  }
  for (std::size_t i = 1; i < fers.size(); ++i) EXPECT_EQ(fers[i], fers[0]);
}

}  // namespace
}  // namespace lightwave::fec
