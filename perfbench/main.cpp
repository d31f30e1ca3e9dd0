// fleet_bench: one workload of the fleet benchmark per process.
//
//   fleet_bench --workload churn|flood|recover|figures --seed N --seconds S
//               --trace 0|1 [--scratch DIR] [--spans FILE]
//   fleet_bench --pin        print the figures workload's pinned outputs
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same inputs
// with spans around every call into the program and prints the per-layer
// metrics (spans go to --spans). The last stdout line is the JSON result;
// the exit code is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/parallel.h"
#include "serve.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer set, in output order (BENCHMARK.json's per_layer).
constexpr LayerMetric kLayerMetrics[] = {
    {"fleet.offer_us", "us"},
    {"fleet.pop_batch_us", "us"},
    {"fleet.pipelined_window_p50_ms", "ms"},
    {"fleet.pipelined_window_p90_ms", "ms"},
    {"svc.journal_batch_us", "us"},
    {"svc.apply_batch_us_p50", "us"},
    {"svc.apply_batch_us_p90", "us"},
    {"svc.useful_frac", "ratio"},
    {"journal.encode_us", "us"},
    {"journal.crc_ns_per_kb", "ns/KiB"},
    {"journal.append_us", "us"},
    {"journal.sync_us", "us"},
    {"journal.fsyncs_per_kcmd", "1/kcmd"},
    {"journal.bytes_per_command", "B"},
    {"journal.scan_ms", "ms"},
    {"journal.decode_us", "us"},
    {"journal.replay_ms", "ms"},
    {"journal.records_replayed", "count"},
    {"core.allocate_us_p50", "us"},
    {"core.allocate_us_p90", "us"},
    {"core.pick_us", "us"},
    {"core.release_us", "us"},
    {"core.accept_frac", "ratio"},
    {"core.us_per_sim_job", "us"},
    {"tpu.install_us_p50", "us"},
    {"tpu.install_us_p90", "us"},
    {"tpu.remove_us", "us"},
    {"tpu.ocs_per_install", "count"},
    {"ocs.reconfigure_us", "us"},
    {"ocs.ports_diffed_per_reconfigure", "count"},
    {"ocs.ports_changed_per_reconfigure", "count"},
    {"ocs.changed_frac", "ratio"},
    {"sim.flow_events", "count"},
    {"sim.us_per_flow_event", "us"},
    {"fec.frames", "count"},
    {"fec.us_per_frame", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload churn|flood|recover|figures --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--spans FILE]\n"
               "       fleet_bench --pin\n");
  return 2;
}

}  // namespace

void EmitLayers(const Layers& layers, Result& result) {
  for (const LayerMetric& metric : kLayerMetrics) {
    auto it = layers.find(metric.name);
    if (it == layers.end()) {
      result.Fail(1, std::string("layer metric not measured: ") + metric.name);
      continue;
    }
    result.Metric(metric.name, it->second, metric.unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  RunOptions options;
  options.scratch = ".bench_build/scratch";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pin") {
      PrintFigurePins();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--scratch") {
      options.scratch = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  void (*run)(const RunOptions&, SpanLog*, Layers&, Result&) = nullptr;
  if (workload == "churn") run = RunChurn;
  if (workload == "flood") run = RunFlood;
  if (workload == "recover") run = RunRecover;
  if (workload == "figures") run = RunFigures;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) return Usage();

  // Run metadata, and the two conditions under which numbers are worthless.
  const int cpus = AvailableCpus();
  const int threads = lightwave::common::parallel::Threads();
  std::error_code ec;
  std::filesystem::create_directories(options.scratch, ec);
  std::printf("meta: workload=%s seed=%llu seconds=%g trace=%d build=%s compiler=\"%s\" "
              "nproc=%d threads=%d scratch_fs=%s wal_sync=%s traced_wal_sync=%s\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, __VERSION__, cpus, threads,
              FilesystemType(options.scratch).c_str(),
              lightwave::journal::ToString(kWalSync),
              lightwave::journal::ToString(kTracedWalSync));
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "fleet_bench: unoptimized build; timings would be meaningless\n");
  return 2;
#endif
  if (threads > cpus) {
    std::fprintf(stderr, "fleet_bench: %d pool threads exceed the %d available CPUs\n",
                 threads, cpus);
    return 2;
  }

  Result result;
  Layers layers;
  SpanLog spans;
  run(options, options.trace ? &spans : nullptr, layers, result);
  if (options.trace) {
    EmitLayers(layers, result);
    if (!spans_path.empty() && !spans.Write(spans_path)) {
      result.Fail(1, "could not write spans to " + spans_path);
    }
  }
  result.Print();
  // Leave without static destructors: at exit the common::parallel pool's
  // destructor takes a lock-rank-checked mutex after this thread's
  // thread_local held-lock list is gone (a use-after-free AddressSanitizer
  // reports in every process that used the pool).
  std::fflush(stdout);
  std::_Exit(result.correct() ? 0 : 1);
}
