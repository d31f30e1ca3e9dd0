#include "harness.h"

#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * (sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - lo) * (sorted[hi] - sorted[lo]);
}

namespace {

/// The compute loop: multiplies, loads from a 64 KiB table (L2-resident, as
/// most of the program's hot state is) and a data-dependent branch.
constexpr std::size_t kComputeTableWords = 8192;
constexpr int kComputeIterations = 100000;
/// The memory loop: a dependent random walk over 4 MiB, twice the 2 MiB
/// per-core L2, so each step waits on the shared cache or DRAM. Churn's
/// windows followed such a walk's slowdowns more closely than a compute
/// loop's; flood and the figures followed the compute loop's.
constexpr std::size_t kMemoryTableWords = std::size_t{1} << 20;
constexpr int kMemoryIterations = 20000;
/// Loop times Scale() takes the median of.
constexpr std::size_t kProbeWindow = 5;
constexpr auto kProbeInterval = std::chrono::milliseconds(200);

void Remember(std::vector<double>& recent, double ms) {
  if (recent.size() == kProbeWindow) recent.erase(recent.begin());
  recent.push_back(ms);
}

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

SpeedProbe::SpeedProbe()
    : compute_table_(kComputeTableWords), memory_table_(kMemoryTableWords) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& word : compute_table_) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    word = x;
  }
  for (std::uint32_t& word : memory_table_) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    word = static_cast<std::uint32_t>(x >> 32) & (kMemoryTableWords - 1);
  }
  Probe();
}

void SpeedProbe::Tick() {
  if (Clock::now() - last_ >= kProbeInterval) Probe();
}

void SpeedProbe::Probe() {
  // Each loop runs once untimed, so what the program left in the caches
  // does not change its timed run.
  std::uint64_t x = sink_;
  double compute_ms = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto start = Clock::now();
    for (int i = 0; i < kComputeIterations; ++i) {
      x = x * 6364136223846793005ull + compute_table_[(x >> 40) & (kComputeTableWords - 1)];
      if ((x >> 33) & 1) x ^= x >> 17;
    }
    compute_ms = Micros(start, Clock::now()) / 1e3;
  }
  std::uint32_t at = static_cast<std::uint32_t>(x) & (kMemoryTableWords - 1);
  double memory_ms = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto start = Clock::now();
    for (int i = 0; i < kMemoryIterations; ++i) {
      at = memory_table_[at ^ static_cast<std::uint32_t>(i & 63)];
    }
    memory_ms = Micros(start, Clock::now()) / 1e3;
  }
  sink_ = x + at;
  last_ = Clock::now();
  compute_ms_.Add(compute_ms);
  memory_ms_.Add(memory_ms);
  Remember(recent_compute_ms_, compute_ms);
  Remember(recent_memory_ms_, memory_ms);
}

double SpeedProbe::Ratio() const {
  return std::sqrt(kComputeReferenceMs / MedianOf(recent_compute_ms_) * kMemoryReferenceMs /
                   MedianOf(recent_memory_ms_));
}

double SpeedProbe::Scale() const { return std::pow(Ratio(), kWorkSensitivity); }

double SpeedProbe::SetupScale() const { return std::pow(Ratio(), kSetupSensitivity); }

void SpeedProbe::Print() const {
  const double compute = compute_ms_.Median();
  const double memory = memory_ms_.Median();
  const double ratio = std::sqrt(kComputeReferenceMs / compute * kMemoryReferenceMs / memory);
  std::printf("  host speed: compute loop %.4f ms, memory loop %.4f ms (medians; references"
              " %.2f, %.2f ms), ratio %.4f, scale %.4f, set-up scale %.4f; the times above"
              " and the metrics are scaled\n",
              compute, memory, kComputeReferenceMs, kMemoryReferenceMs, ratio,
              std::pow(ratio, kWorkSensitivity), std::pow(ratio, kSetupSensitivity));
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

int SpanLog::Open(const char* name, std::uint64_t window) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.window = window;
  span.start_us = Micros(epoch_, Clock::now());
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = Micros(epoch_, Clock::now());
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_us += span.end_us - span.start_us;
  }
}

Samples SpanLog::SelfMicros(std::string_view name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (name == span.name) out.Add(span.end_us - span.start_us - span.child_us);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\twindow\tname\tstart_us\tend_us\tself_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.window << '\t' << s.name << '\t' << s.start_us
        << '\t' << s.end_us << '\t' << (s.end_us - s.start_us - s.child_us) << '\n';
  }
  return static_cast<bool>(out);
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) Fail(1, what);
  return ok;
}

void Result::Fail(std::uint64_t ops, const std::string& what) {
  failed_ += ops;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Result::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(fs.f_type));
  return hex;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
