#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace lightwave::common {

void SampleSet::Add(double x) {
  if (!samples_.empty() && x < samples_.back()) sorted_ = false;
  samples_.push_back(x);
  sum_ += x;
  sum_sq_ += x * x;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::min() const {
  LW_CHECK(!samples_.empty()) << "min() of an empty sample set";
  EnsureSorted();
  return samples_.front();
}

double SampleSet::max() const {
  LW_CHECK(!samples_.empty()) << "max() of an empty sample set";
  EnsureSorted();
  return samples_.back();
}

double SampleSet::mean() const {
  LW_CHECK(!samples_.empty()) << "mean() of an empty sample set";
  return sum_ / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  LW_CHECK(!samples_.empty()) << "stddev() of an empty sample set";
  const double n = static_cast<double>(samples_.size());
  const double m = sum_ / n;
  const double var = std::max(0.0, sum_sq_ / n - m * m);
  return std::sqrt(var);
}

double SampleSet::Percentile(double p) const {
  // Empty sets answer 0.0 instead of asserting: the telemetry exporters
  // query percentiles of histograms that may never have observed a sample.
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins), counts_(static_cast<std::size_t>(bins), 0) {
  LW_CHECK(hi > lo && bins > 0) << "lo=" << lo << " hi=" << hi << " bins=" << bins;
}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto bin = static_cast<std::size_t>((x - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
  }
}

double Histogram::BinCenter(int bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

std::string Histogram::Render(int max_width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (int b = 0; b < bins(); ++b) {
    const std::size_t c = counts_[static_cast<std::size_t>(b)];
    const int w = static_cast<int>(static_cast<double>(c) / static_cast<double>(peak) *
                                   max_width);
    out.width(9);
    out.precision(3);
    out << std::fixed << BinCenter(b) << " |" << std::string(static_cast<std::size_t>(w), '#')
        << " " << c << "\n";
  }
  return out.str();
}

}  // namespace lightwave::common
