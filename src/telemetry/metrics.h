// Fabric-wide metrics plane (the ROADMAP's observability step; what §4 of
// the paper calls production telemetry). A MetricsRegistry hands out stable
// references to named, labeled series:
//   - Counter / Gauge: lock-free atomics for hot-path recording;
//   - HistogramMetric: exact percentiles via common::SampleSet (the Fig. 13
//     BER-survey style distributions);
//   - TimeSeries: a fixed-capacity ring buffer of (t, value) samples keyed
//     by the *simulation* clock, never wall-clock, so recordings are
//     deterministic and byte-exact across repeat runs.
// Registry lookups are mutex-guarded and handles stay valid for the
// registry's lifetime, so instrumented classes resolve a handle once at
// attach time and record without further lookups.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace lightwave::telemetry {

/// Label key/value pairs identifying one series of a metric family. The
/// registry normalizes them to sorted-by-key order, so {a=1,b=2} and
/// {b=2,a=1} name the same series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample distribution with exact percentiles (stores the samples, like the
/// evaluation benches; intended for evaluation-sized cardinalities).
class HistogramMetric {
 public:
  void Observe(double x);

  std::size_t count() const;
  double sum() const;
  /// Exact nearest-rank percentile; 0.0 when no samples were observed.
  double Percentile(double p) const;

 private:
  mutable lw::Mutex mu_{"telemetry.histogram", lw::rank::kTelemetrySeries};
  common::SampleSet samples_ LW_GUARDED_BY(mu_);
  double sum_ LW_GUARDED_BY(mu_) = 0.0;
};

/// Ring-buffered (time, value) samples. Timestamps come from the caller's
/// simulation clock (sim::EventQueue::now() or a sim loop's own time
/// variable); the subsystem never reads wall-clock.
class TimeSeries {
 public:
  struct Sample {
    double t = 0.0;
    double value = 0.0;
  };

  explicit TimeSeries(std::size_t capacity = 1024);

  void Record(double t, double value);

  /// Retained samples in chronological order (oldest first). At most
  /// `capacity()` entries; older samples are overwritten.
  std::vector<Sample> Samples() const;

  std::size_t capacity() const { return capacity_; }
  /// Total samples ever recorded (recorded() - Samples().size() were
  /// evicted by the ring).
  std::uint64_t recorded() const;

 private:
  mutable lw::Mutex mu_{"telemetry.timeseries", lw::rank::kTelemetrySeries};
  std::vector<Sample> ring_ LW_GUARDED_BY(mu_);
  std::size_t capacity_;  // immutable after construction
  std::size_t head_ LW_GUARDED_BY(mu_) = 0;  // next write slot once the ring is full
  std::uint64_t recorded_ LW_GUARDED_BY(mu_) = 0;
};

/// Thread-safe, deterministic-iteration registry of all metric families.
class MetricsRegistry {
 public:
  /// Identity of one series: metric name plus normalized labels. Ordered so
  /// the exporters iterate deterministically.
  struct SeriesKey {
    std::string name;
    LabelSet labels;
    auto operator<=>(const SeriesKey&) const = default;
  };

  /// Lookup-or-create. The returned reference stays valid for the lifetime
  /// of the registry.
  Counter& GetCounter(const std::string& name, LabelSet labels = {});
  Gauge& GetGauge(const std::string& name, LabelSet labels = {});
  HistogramMetric& GetHistogram(const std::string& name, LabelSet labels = {});
  /// `capacity` only applies when the series is first created.
  TimeSeries& GetTimeSeries(const std::string& name, LabelSet labels = {},
                            std::size_t capacity = 1024);

  /// Exporter access: (key, series) pairs in deterministic key order. The
  /// pointers stay valid; the vectors are snapshots of the family index.
  std::vector<std::pair<SeriesKey, const Counter*>> Counters() const;
  std::vector<std::pair<SeriesKey, const Gauge*>> Gauges() const;
  std::vector<std::pair<SeriesKey, const HistogramMetric*>> Histograms() const;
  std::vector<std::pair<SeriesKey, const TimeSeries*>> TimeSeriesAll() const;

 private:
  template <typename T>
  using Family = std::map<SeriesKey, std::unique_ptr<T>>;

  /// Lookup-or-create / snapshot bodies; the public entry points take the
  /// lock and these run under it (the compile-time contract on the family
  /// maps below).
  template <typename T, typename... Args>
  T& GetOrCreateLocked(Family<T>& family, const std::string& name, LabelSet labels,
                       Args&&... args) LW_REQUIRES(mu_);
  template <typename T>
  std::vector<std::pair<SeriesKey, const T*>> SnapshotLocked(const Family<T>& family)
      const LW_REQUIRES(mu_);

  mutable lw::Mutex mu_{"telemetry.registry", lw::rank::kTelemetryRegistry};
  Family<Counter> counters_ LW_GUARDED_BY(mu_);
  Family<Gauge> gauges_ LW_GUARDED_BY(mu_);
  Family<HistogramMetric> histograms_ LW_GUARDED_BY(mu_);
  Family<TimeSeries> timeseries_ LW_GUARDED_BY(mu_);
};

}  // namespace lightwave::telemetry
