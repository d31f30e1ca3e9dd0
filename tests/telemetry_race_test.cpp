// Multi-threaded stress for the telemetry plane, meant to run under TSan
// (cmake -DLIGHTWAVE_TSAN=ON): 8 threads hammer counters, gauges,
// histograms, time series, and tracer spans through one shared registry
// while a reader thread snapshots everything, then totals are checked
// exactly. Any unsynchronized access in MetricsRegistry or Tracer shows up
// as a TSan report; the count assertions catch lost updates.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"

namespace lightwave::telemetry {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 2000;

TEST(TelemetryRace, CountersAndHistogramsUnderContention) {
  MetricsRegistry registry;
  // One shared series plus one per-thread series, resolved concurrently so
  // the registry's lookup-or-create path is contended too.
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      auto& shared = registry.GetCounter("race_shared_total");
      auto& mine = registry.GetCounter("race_per_thread_total",
                                       {{"thread", std::to_string(t)}});
      auto& gauge = registry.GetGauge("race_gauge");
      auto& hist = registry.GetHistogram("race_hist");
      auto& series = registry.GetTimeSeries("race_series", {}, 256);
      for (int i = 0; i < kIterations; ++i) {
        shared.Inc();
        mine.Inc();
        gauge.Add(1.0);
        hist.Observe(static_cast<double>(i));
        series.Record(static_cast<double>(i), static_cast<double>(t));
      }
    });
  }
  // Concurrent reader: snapshots and exports must be safe mid-write.
  std::thread reader([&registry, &go] {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < 50; ++i) {
      (void)registry.Counters();
      (void)registry.Histograms();
      (void)registry.TimeSeriesAll();
      (void)ToPrometheus(registry);
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  reader.join();

  EXPECT_EQ(registry.GetCounter("race_shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("race_per_thread_total",
                                  {{"thread", std::to_string(t)}})
                  .value(),
              static_cast<std::uint64_t>(kIterations));
  }
  EXPECT_DOUBLE_EQ(registry.GetGauge("race_gauge").value(),
                   static_cast<double>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetHistogram("race_hist").count(),
            static_cast<std::size_t>(kThreads) * kIterations);
  auto& series = registry.GetTimeSeries("race_series");
  EXPECT_EQ(series.recorded(), static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(series.Samples().size(), series.capacity());
}

TEST(TelemetryRace, TracerSpansUnderContention) {
  Tracer tracer;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIterations / 4; ++i) {
        const auto id = tracer.Begin("span-" + std::to_string(t), i);
        tracer.Annotate(id, "thread", std::to_string(t));
        tracer.End(id, i + 1.0);
      }
    });
  }
  std::thread reader([&tracer, &go] {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < 50; ++i) {
      (void)tracer.span_count();
      (void)tracer.spans();
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  reader.join();

  EXPECT_EQ(tracer.span_count(),
            static_cast<std::size_t>(kThreads) * (kIterations / 4));
  EXPECT_EQ(tracer.open_count(), 0u);
  for (const auto& span : tracer.spans()) {
    EXPECT_FALSE(span.open);
    ASSERT_EQ(span.attributes.size(), 1u);
  }
}

TEST(TelemetryRace, HubCheckSinkUnderContention) {
  // Contract violations reported from many threads must count exactly, both
  // in the process-wide check stats and through the installed handler.
  std::atomic<std::uint64_t> handled{0};
  common::ScopedCheckHandler handler([&handled](const common::CheckFailure&) {
    handled.fetch_add(1, std::memory_order_relaxed);
  });
  const std::uint64_t before = common::GetCheckStats().ensure_failures;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) (void)LW_ENSURE(i < 0);
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t expected = static_cast<std::uint64_t>(kThreads) * 500;
  EXPECT_EQ(common::GetCheckStats().ensure_failures - before, expected);
  EXPECT_EQ(handled.load(), expected);
}

}  // namespace
}  // namespace lightwave::telemetry
