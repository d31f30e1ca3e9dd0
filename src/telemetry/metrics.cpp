#include "telemetry/metrics.h"

#include <algorithm>

namespace lightwave::telemetry {

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void HistogramMetric::Observe(double x) {
  lw::MutexLock lock(mu_);
  samples_.Add(x);
  sum_ += x;
}

std::size_t HistogramMetric::count() const {
  lw::MutexLock lock(mu_);
  return samples_.count();
}

double HistogramMetric::sum() const {
  lw::MutexLock lock(mu_);
  return sum_;
}

double HistogramMetric::Percentile(double p) const {
  lw::MutexLock lock(mu_);
  return samples_.Percentile(p);
}

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void TimeSeries::Record(double t, double value) {
  lw::MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(Sample{t, value});
  } else {
    ring_[head_] = Sample{t, value};
    head_ = (head_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<TimeSeries::Sample> TimeSeries::Samples() const {
  lw::MutexLock lock(mu_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  // `head_` is the oldest retained sample once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TimeSeries::recorded() const {
  lw::MutexLock lock(mu_);
  return recorded_;
}

namespace {

LabelSet Normalize(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

template <typename T, typename... Args>
T& MetricsRegistry::GetOrCreateLocked(Family<T>& family, const std::string& name,
                                      LabelSet labels, Args&&... args) {
  SeriesKey key{name, Normalize(std::move(labels))};
  auto it = family.find(key);
  if (it == family.end()) {
    it = family.emplace(std::move(key), std::make_unique<T>(std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

template <typename T>
std::vector<std::pair<MetricsRegistry::SeriesKey, const T*>>
MetricsRegistry::SnapshotLocked(const Family<T>& family) const {
  std::vector<std::pair<SeriesKey, const T*>> out;
  out.reserve(family.size());
  for (const auto& [key, series] : family) out.emplace_back(key, series.get());
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, LabelSet labels) {
  lw::MutexLock lock(mu_);
  return GetOrCreateLocked(counters_, name, std::move(labels));
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, LabelSet labels) {
  lw::MutexLock lock(mu_);
  return GetOrCreateLocked(gauges_, name, std::move(labels));
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name, LabelSet labels) {
  lw::MutexLock lock(mu_);
  return GetOrCreateLocked(histograms_, name, std::move(labels));
}

TimeSeries& MetricsRegistry::GetTimeSeries(const std::string& name, LabelSet labels,
                                           std::size_t capacity) {
  lw::MutexLock lock(mu_);
  return GetOrCreateLocked(timeseries_, name, std::move(labels), capacity);
}

std::vector<std::pair<MetricsRegistry::SeriesKey, const Counter*>>
MetricsRegistry::Counters() const {
  lw::MutexLock lock(mu_);
  return SnapshotLocked(counters_);
}

std::vector<std::pair<MetricsRegistry::SeriesKey, const Gauge*>> MetricsRegistry::Gauges()
    const {
  lw::MutexLock lock(mu_);
  return SnapshotLocked(gauges_);
}

std::vector<std::pair<MetricsRegistry::SeriesKey, const HistogramMetric*>>
MetricsRegistry::Histograms() const {
  lw::MutexLock lock(mu_);
  return SnapshotLocked(histograms_);
}

std::vector<std::pair<MetricsRegistry::SeriesKey, const TimeSeries*>>
MetricsRegistry::TimeSeriesAll() const {
  lw::MutexLock lock(mu_);
  return SnapshotLocked(timeseries_);
}

}  // namespace lightwave::telemetry
