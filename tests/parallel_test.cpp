// Tests for the deterministic parallel runtime (common/parallel.h): the
// partition is exact and machine-independent, results are byte-identical
// across thread counts (the determinism contract DESIGN.md documents),
// exceptions propagate deterministically, nesting degrades to inline serial
// execution, and the pool survives a multi-threaded stress run (exercised
// under TSan in CI).
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "phy/ber_model.h"
#include "phy/monte_carlo.h"
#include "sim/availability.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"

namespace lightwave::common::parallel {
namespace {

/// Restores the configured worker count when a test that calls SetThreads
/// finishes (other tests inherit the process-wide pool).
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(Threads()) {}
  ~ThreadCountGuard() { SetThreads(saved_); }

 private:
  int saved_;
};

TEST(ParallelPartition, ChunkBoundsPartitionExactly) {
  for (std::uint64_t n : {0ull, 1ull, 7ull, 64ull, 1000ull, 4097ull}) {
    for (std::uint64_t chunk_size : {0ull, 1ull, 3ull, 64ull, 5000ull}) {
      const std::uint64_t chunks = NumChunks(n, chunk_size);
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (std::uint64_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ChunkBounds(n, chunk_size, c);
        {
          EXPECT_EQ(begin, prev_end) << "n=" << n << " cs=" << chunk_size << " c=" << c;
        }
        EXPECT_LT(begin, end);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " cs=" << chunk_size;
      if (n > 0) {
        EXPECT_EQ(prev_end, n);
      }
    }
  }
}

TEST(ParallelPartition, AutoModeIsBoundedAndMachineIndependent) {
  EXPECT_EQ(NumChunks(10, 0), 10u);  // small n: one item per chunk
  EXPECT_EQ(NumChunks(1u << 20, 0), kDefaultMaxChunks);
  // The partition must not depend on the configured thread count.
  ThreadCountGuard guard;
  SetThreads(1);
  const std::uint64_t serial = NumChunks(1u << 20, 0);
  SetThreads(8);
  EXPECT_EQ(NumChunks(1u << 20, 0), serial);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    SetThreads(threads);
    constexpr std::uint64_t kN = 10'000;
    std::vector<std::atomic<int>> visits(kN);
    for (auto& v : visits) v.store(0);
    ParallelFor(kN, 37, [&](std::uint64_t begin, std::uint64_t end, std::uint64_t) {
      for (std::uint64_t i = begin; i < end; ++i) {
        visits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelMap, OutputOrderMatchesIndexOrder) {
  ThreadCountGuard guard;
  SetThreads(4);
  const auto out = ParallelMap(1000, [](std::uint64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelReduce, FoldsPartialsInChunkOrder) {
  ThreadCountGuard guard;
  SetThreads(4);
  // Build the chunk-index sequence via a non-commutative combine (string
  // append): equality with the serial sequence proves ordered folding.
  auto run = [] {
    return ParallelReduce<std::string>(
        1000, 64, std::string{},
        [](std::uint64_t, std::uint64_t, std::uint64_t chunk) {
          return std::to_string(chunk) + ",";
        },
        [](std::string acc, std::string part) { return acc + part; });
  };
  const std::string parallel4 = run();
  SetThreads(1);
  EXPECT_EQ(run(), parallel4);
  EXPECT_EQ(parallel4.substr(0, 8), "0,1,2,3,");
}

TEST(ParallelRng, StreamsAreDeterministicAndDistinct) {
  common::Rng a = common::Rng::Stream(42, 0);
  common::Rng a2 = common::Rng::Stream(42, 0);
  common::Rng b = common::Rng::Stream(42, 1);
  const std::uint64_t a_draw = a.NextU64();
  EXPECT_EQ(a_draw, a2.NextU64());
  EXPECT_NE(a_draw, b.NextU64());
  EXPECT_NE(common::Rng::Stream(43, 0).NextU64(), common::Rng::Stream(42, 0).NextU64());
}

TEST(ParallelDeterminism, MonteCarloIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const phy::BerModel model(optics::Modulation::kPam4, common::DbmPower{-11.0});
  phy::MonteCarloConfig config;
  config.symbols = 300'000;
  config.symbols_per_chunk = 1u << 14;
  std::uint64_t reference_errors = 0;
  for (int threads : {1, 2, 8}) {
    SetThreads(threads);
    phy::MonteCarloChannel channel(model, common::Decibel{-32.0}, config);
    const auto result = channel.Run(common::DbmPower{-10.0});
    if (threads == 1) {
      reference_errors = result.bit_errors;
      EXPECT_GT(result.bit_errors, 0u);  // the point must not be error-free
    } else {
      EXPECT_EQ(result.bit_errors, reference_errors) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, AvailabilityIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  sim::MonteCarloAvailability reference;
  std::string reference_export;
  for (int threads : {1, 2, 8}) {
    SetThreads(threads);
    telemetry::Hub hub;
    const auto result =
        sim::SimulateAvailability(0.995, 8, 6, 6000, /*seed=*/777, {}, &hub);
    const std::string exported = telemetry::ToPrometheus(hub.metrics());
    if (threads == 1) {
      reference = result;
      reference_export = exported;
    } else {
      EXPECT_EQ(result.mean_healthy_cubes, reference.mean_healthy_cubes);
      EXPECT_EQ(result.reconfig_success_rate, reference.reconfig_success_rate);
      EXPECT_EQ(result.static_success_rate, reference.static_success_rate);
      // Telemetry is replayed in trial order, so even the export text is
      // byte-identical.
      EXPECT_EQ(exported, reference_export) << "threads=" << threads;
    }
  }
}

TEST(ParallelExceptions, LowestChunkExceptionPropagates) {
  ThreadCountGuard guard;
  SetThreads(4);
  try {
    ParallelFor(1000, 10, [](std::uint64_t, std::uint64_t, std::uint64_t chunk) {
      if (chunk == 7 || chunk == 3 || chunk == 90) {
        throw std::runtime_error("chunk " + std::to_string(chunk));
      }
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 3");
  }
  // The pool must stay usable after a throwing region.
  std::atomic<std::uint64_t> sum{0};
  ParallelFor(100, 10, [&](std::uint64_t begin, std::uint64_t end, std::uint64_t) {
    for (std::uint64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelNesting, InnerRegionRunsInlineWithSameResults) {
  ThreadCountGuard guard;
  SetThreads(4);
  // Each outer index computes an inner reduction; nesting must neither
  // deadlock nor change values vs the fully serial run.
  auto run = [] {
    return ParallelMap(16, [](std::uint64_t i) {
      return ParallelReduce<std::uint64_t>(
          100, 10, 0,
          [&](std::uint64_t begin, std::uint64_t end, std::uint64_t) {
            std::uint64_t s = 0;
            for (std::uint64_t j = begin; j < end; ++j) s += i * j;
            return s;
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
    });
  };
  const auto nested = run();
  SetThreads(1);
  EXPECT_EQ(run(), nested);
  EXPECT_EQ(nested[2], 2u * 4950u);
}

TEST(ParallelSerial, SetThreadsOneRunsEveryChunkOnTheCallingThread) {
  ThreadCountGuard guard;
  SetThreads(4);
  SetThreads(1);
  EXPECT_EQ(Threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  ParallelFor(64, 1, [&](std::uint64_t begin, std::uint64_t, std::uint64_t) {
    ran_on[static_cast<std::size_t>(begin)] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  // Still serial on the next query: nothing rebuilds a default-sized pool.
  EXPECT_EQ(Threads(), 1);
}

TEST(ParallelEdgeCases, EmptyAndSingleItemRanges) {
  int calls = 0;
  ParallelFor(0, 0, [&](std::uint64_t, std::uint64_t, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const auto one = ParallelMap(1, [](std::uint64_t i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41u);
}

// Stress case for TSan: many regions back-to-back on an 8-thread pool, so
// the pool's queue and the region handshake are exercised under contention,
// and every chunk must run exactly once.
TEST(ParallelStress, RepeatedRegionsWithTelemetrySink) {
  ThreadCountGuard guard;
  SetThreads(8);
  std::atomic<std::uint64_t> executed{0};
  std::uint64_t expected_tasks = 0;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t n = 256 + static_cast<std::uint64_t>(round);
    const std::uint64_t chunks = NumChunks(n, 16);
    expected_tasks += chunks;
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
    ParallelFor(n, 16, [&](std::uint64_t begin, std::uint64_t end, std::uint64_t chunk) {
      common::Rng rng = common::Rng::Stream(9, chunk);
      for (std::uint64_t i = begin; i < end; ++i) {
        out[static_cast<std::size_t>(i)] = rng.NextU64() | 1u;
      }
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    // Disjoint chunk ranges must each have been written.
    for (std::uint64_t v : out) EXPECT_NE(v, 0u);
  }
  EXPECT_EQ(executed.load(), expected_tasks);
}

}  // namespace
}  // namespace lightwave::common::parallel
