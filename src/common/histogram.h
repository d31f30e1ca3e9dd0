// Streaming summary statistics and fixed-bin histograms used by the hardware
// evaluation benches (insertion-loss / BER distributions) and the simulators.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lightwave::common {

/// Accumulates samples and answers summary queries. Stores the samples so
/// that exact percentiles are available; intended for evaluation-sized data
/// (up to a few million points).
class SampleSet {
 public:
  void Add(double x);
  void Reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// Exact percentile by nearest-rank; p clamped to [0, 100]. Returns 0.0
  /// for an empty set (safe for never-observed telemetry histograms).
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;

  void EnsureSorted() const;
};

/// Fixed-width binning over [lo, hi) with underflow/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void Add(double x);

  int bins() const { return static_cast<int>(counts_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t count(int bin) const { return counts_[static_cast<std::size_t>(bin)]; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }
  double BinCenter(int bin) const;

  /// Renders an ASCII bar chart, one row per bin, widths normalized to the
  /// fullest bin. Used by the figure benches to print paper-style plots.
  std::string Render(int max_width = 60) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace lightwave::common
