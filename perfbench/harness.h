// Shared plumbing of the fleet benchmark: wall-clock timing, exact
// percentiles, the in-memory span log the traced runs record, output checks
// (a mismatch is a failed operation), and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lightwave {}

namespace perfbench {

// The benchmark drives every lightwave module; name them unqualified.
using namespace lightwave;

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Every sample kept; percentiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double Sum() const;
  /// `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// The host's speed, sampled on the calling thread. On the shared host this
/// benchmark was built on, the program's single-threaded loops run up to 45%
/// slower for stretches of seconds to minutes, in wall and thread CPU time
/// alike (the CPU and its memory are slower; the thread is not descheduled),
/// so every timing drifts with the host and no in-run median removes that.
/// The timed workloads run two short fixed loops between their measurements
/// and report each wall time scaled by Scale() or SetupScale(): the time the
/// work would have taken with both loops at their reference times. The loops
/// touch nothing of the program, so a change to the program moves the scaled
/// times as it moves the raw ones.
class SpeedProbe {
 public:
  /// The loops' times on the host this benchmark was tuned on, in a calm
  /// stretch.
  static constexpr double kComputeReferenceMs = 0.6;
  static constexpr double kMemoryReferenceMs = 0.85;
  /// How far the program's times move when the loops' move: the
  /// least-squares slope of log raw time on log Ratio() over 119 runs of
  /// churn, flood and recover at run ratios 0.63-1.05. Serving and recovery
  /// moved 1.5-1.9 times as far as the loops, set-up 1.3 times.
  static constexpr double kWorkSensitivity = 1.75;
  static constexpr double kSetupSensitivity = 1.3;

  SpeedProbe();
  /// Runs the loops when 200 ms have passed since they last ran.
  void Tick();
  /// Runs the loops now.
  void Probe();
  /// Geometric mean of the two loops' reference-over-recent time ratios
  /// (medians of the last few runs); below 1 on a slow host.
  double Ratio() const;
  /// Multiplies a wall time of serving or recovery measured since the
  /// recent loop runs: Ratio() to the power kWorkSensitivity.
  double Scale() const;
  /// The same for a set-up time, to the power kSetupSensitivity.
  double SetupScale() const;
  /// One line after a timed workload's summary: each loop's median time
  /// over the run and the ratio and scales they give.
  void Print() const;

 private:
  std::vector<std::uint64_t> compute_table_;
  std::vector<std::uint32_t> memory_table_;
  std::vector<double> recent_compute_ms_;
  std::vector<double> recent_memory_ms_;
  Samples compute_ms_;
  Samples memory_ms_;
  Clock::time_point last_;
  std::uint64_t sink_ = 1;
};

/// Spans recorded by the benchmark around each call it makes into the
/// program. Single-threaded: spans nest through a stack of open spans, and a
/// span's parent is the innermost span open when it began. Kept in memory
/// and written out once, at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t window = 0;
    /// Time covered by this span's direct children.
    double child_us = 0.0;
  };

  SpanLog();

  int Open(const char* name, std::uint64_t window);
  void Close(int id);

  /// Self time (duration minus direct children) of every span named `name`.
  Samples SelfMicros(std::string_view name) const;

  /// Tab-separated dump: id, parent, window, name, start_us, end_us, self_us.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing (the untraced paths).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t window)
      : log_(log), id_(log == nullptr ? -1 : log->Open(name, window)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Output checks and the result line. Every mismatch is a failed operation.
class Result {
 public:
  void Attempt(std::uint64_t ops = 1) { attempted_ += ops; }
  /// Counts a failed op (and prints why) unless `ok`.
  bool Check(bool ok, const std::string& what);
  void Fail(std::uint64_t ops, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
};

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();
/// CPUs this process may run on.
int AvailableCpus();
/// Filesystem type name of `path` (statfs magic), "unknown" otherwise.
std::string FilesystemType(const std::string& path);

/// 64-bit mix for deriving per-repetition seeds from the run seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
