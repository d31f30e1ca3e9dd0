// Durability and recovery cost over REAL files (bench_recovery).
//
// Part 1 (sync-policy columns): a sync shard's serve loop runs over
// journal::FileStorage in a temp directory under each sync policy, against
// the journaling-off baseline. kGroupCommit (one fsync per batch append)
// and kPeriodic (fsync at most once per interval) must stay under the
// existing 15% overhead gate — the point of group commit is that the fsync
// amortizes over a production batch until the fabric allocation work, not
// the durability, dominates. kGroupCommit at batch=1 (per_command) is the
// reference point for what group commit buys (every command pays a full
// fsync); it is reported, not gated — its cost is the device's, not the
// journal's.
// scripts/check_bench_regression.py --svc re-checks the per-policy overhead
// from the aggregated BENCH_svc.json in CI.
//
// Part 2 (parallel recovery): eight file-backed shards are served once and
// their media abandoned; the fleet then recovers via Router::RecoverAll
// serially (SetThreads(1): every shard on the calling thread) and in
// parallel. The two recoveries must be
// byte-identical (thread count is a performance knob, never a semantic
// one), the parallel one must actually be faster, and the per-shard
// recovery-latency histogram (lightwave_journal_recovery_latency_ms) is
// reported for both modes.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/parallel.h"
#include "fleet/admission.h"
#include "fleet/router.h"
#include "fleet/shard.h"
#include "journal/file_storage.h"
#include "journal/storage.h"
#include "svc/fleet_service.h"
#include "svc/request_stream.h"
#include "telemetry/hub.h"
#include "tpu/superpod.h"

using namespace lightwave;

namespace {

constexpr std::uint64_t kStreamSeed = 77;
constexpr std::uint64_t kPodSeed = 5;
// 32-cube pods: the per-command allocation work a production shard does is
// what the fsync must amortize against; a toy pod would overstate the
// journaling overhead (fsync cost is the device's, not proportional).
constexpr int kPodCubes = 32;
constexpr int kOcsPerDim = 2;
// The parallel-recovery leg always asks for 8 workers (the fleet has 8
// shards); on fewer cores the pool degrades gracefully and the gate below
// only requires parallel to never LOSE to serial.
constexpr int kParallelThreads = 8;
// Production-shaped group commit: the pipelined shard grows batches toward
// its depth under load; 256 amortizes one fsync across enough allocation
// work that durability stops being the bottleneck.
constexpr std::size_t kBatch = 256;
constexpr int kRepeats = 3;
constexpr std::uint64_t kServeCommands = 20000;
// Batch 1 pays one fsync per command; a shorter stream keeps the
// report-only case from dominating the bench's wall clock.
constexpr std::uint64_t kPerCommandCommands = 2000;
constexpr std::uint64_t kSnapshotInterval = 4096;
// Part 2 fleet: per-shard logs long enough that recovery replays real work.
constexpr int kFleetShards = 8;
constexpr std::uint64_t kFleetCommands = 24000;
constexpr std::uint32_t kFleetTenants = 24;

/// mkdtemp-backed scratch directory, removed on destruction. Lives under
/// LW_BENCH_SCRATCH when set (CI points this at tmpfs: shared-runner disk
/// fsync latency varies by an order of magnitude run to run, and the gate
/// measures the journal's overhead, not the device lottery).
struct TempDir {
  std::string dir;
  TempDir() {
    const char* base = std::getenv("LW_BENCH_SCRATCH");
    std::string tmpl_str =
        std::string(base != nullptr ? base : "/tmp") + "/lw_bench_recovery_XXXXXX";
    std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
    tmpl.push_back('\0');
    const char* made = ::mkdtemp(tmpl.data());
    dir = made == nullptr ? "" : made;
  }
  ~TempDir() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  std::string Path(const std::string& name) const { return dir + "/" + name; }
};

svc::RequestStreamConfig StreamConfig(std::uint32_t tenants) {
  svc::RequestStreamConfig config;
  config.tenant_count = tenants;
  config.zipf_skew = 0.5;
  return config;
}

enum class ServeMode { kOff, kGroupCommit, kPeriodic, kPerCommand };

const char* ToString(ServeMode mode) {
  switch (mode) {
    case ServeMode::kOff: return "off";
    case ServeMode::kGroupCommit: return "group_commit";
    case ServeMode::kPeriodic: return "periodic";
    case ServeMode::kPerCommand: return "per_command";
  }
  return "unknown";
}

struct ServeResult {
  double seconds = -1.0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t commands = 0;
};

/// Single-shard batched serve over file-backed storage under one policy.
ServeResult RunServe(const TempDir& tmp, ServeMode mode, int repeat) {
  ServeResult result;
  const std::uint64_t commands =
      mode == ServeMode::kPerCommand ? kPerCommandCommands : kServeCommands;
  const std::size_t batch = mode == ServeMode::kPerCommand ? 1 : kBatch;

  journal::FileStorageOptions file_options;
  switch (mode) {
    case ServeMode::kOff:
    case ServeMode::kGroupCommit:
    case ServeMode::kPerCommand:
      file_options.policy = journal::SyncPolicy::kGroupCommit;
      break;
    case ServeMode::kPeriodic:
      file_options.policy = journal::SyncPolicy::kPeriodic;
      file_options.periodic_interval = std::chrono::milliseconds(5);
      break;
  }
  const std::string stem =
      std::string(ToString(mode)) + "_" + std::to_string(repeat);
  auto wal_storage = journal::FileStorage::Open(tmp.Path(stem + ".wal"), file_options);
  auto snapshot_storage = journal::FileStorage::Open(tmp.Path(stem + ".snap"));
  if (!wal_storage.ok() || !snapshot_storage.ok()) return result;

  tpu::Superpod pod(kPodSeed, kPodCubes, kOcsPerDim);
  fleet::ShardOptions options;
  options.batch_size = batch;
  options.service.journaling = mode != ServeMode::kOff;
  options.service.snapshot_interval = kSnapshotInterval;
  options.admission.default_quota = fleet::TenantQuota{1e18, 1e18, 1.0};
  options.admission.per_tenant_queue_capacity = commands;
  fleet::Shard shard(0, pod, core::AllocationPolicy::kReconfigurable, *wal_storage.value(),
                     *snapshot_storage.value(), options);
  if (!shard.Recover().ok()) return result;
  const svc::RequestStream stream(kStreamSeed, commands, StreamConfig(8));

  const bench::WallTimer timer;
  for (std::uint64_t i = 0; i < commands; ++i) {
    if (!shard.Offer(stream.Command(i)).ok()) return result;
    if ((i + 1) % batch == 0) shard.PumpOnce();
  }
  shard.PumpAll();
  const double seconds = timer.ms() / 1e3;
  const svc::FleetService& service = shard.service();
  if (service.stats().processed != commands) return result;

  result.seconds = seconds;
  result.commands = commands;
  result.fsyncs = wal_storage.value()->fsync_count();
  if (options.service.journaling) {
    result.bytes = service.wal().appended_bytes();
  } else {
    for (std::uint64_t i = 0; i < commands; ++i) {
      result.bytes += stream.Command(i).Encode().size();
    }
  }
  return result;
}

// --- Part 2: fleet recovery ------------------------------------------------

fleet::ShardOptions FleetOptions() {
  fleet::ShardOptions options;
  options.batch_size = kBatch;
  options.service.snapshot_interval = kSnapshotInterval;
  options.admission.default_quota = fleet::TenantQuota{1e18, 1e18, 1.0};
  options.admission.per_tenant_queue_capacity = kFleetCommands;
  return options;
}

std::string WalPath(const TempDir& tmp, int s) {
  return tmp.Path("shard" + std::to_string(s) + ".wal");
}
std::string SnapPath(const TempDir& tmp, int s) {
  return tmp.Path("shard" + std::to_string(s) + ".snap");
}

/// A fleet of file-backed shards over the temp dir (rebuildable over the
/// same files: the recovery benchmark's crash simulation).
struct FileFleet {
  std::vector<std::unique_ptr<tpu::Superpod>> pods;
  std::vector<std::unique_ptr<journal::FileStorage>> stores;
  std::vector<std::unique_ptr<fleet::Shard>> shards;
  fleet::Router router;
  bool ok = true;

  explicit FileFleet(const TempDir& tmp) {
    for (int s = 0; s < kFleetShards; ++s) {
      auto wal = journal::FileStorage::Open(WalPath(tmp, s));
      auto snapshot = journal::FileStorage::Open(SnapPath(tmp, s));
      if (!wal.ok() || !snapshot.ok()) {
        ok = false;
        return;
      }
      pods.push_back(std::make_unique<tpu::Superpod>(
          kPodSeed + static_cast<std::uint64_t>(s), kPodCubes, kOcsPerDim));
      shards.push_back(std::make_unique<fleet::Shard>(
          static_cast<std::uint32_t>(s), *pods.back(),
          core::AllocationPolicy::kReconfigurable, *wal.value(), *snapshot.value(),
          FleetOptions()));
      stores.push_back(std::move(wal.value()));
      stores.push_back(std::move(snapshot.value()));
      router.AddShard(shards.back().get());
    }
  }

  std::vector<std::uint8_t> Digest() const {
    std::vector<std::uint8_t> combined;
    for (const auto& shard : shards) {
      const auto bytes = shard->service().SerializeState();
      combined.insert(combined.end(), bytes.begin(), bytes.end());
    }
    return combined;
  }
};

/// Serves the fleet trace once, leaving durable media behind.
bool BuildFleetMedia(const TempDir& tmp) {
  FileFleet fleet(tmp);
  if (!fleet.ok || !fleet.router.RecoverAll().ok()) return false;
  const svc::RequestStream stream(kStreamSeed + 1, kFleetCommands,
                                  StreamConfig(kFleetTenants));
  for (std::uint64_t i = 0; i < kFleetCommands; ++i) {
    if (!fleet.router.Submit(stream.Command(i)).ok()) return false;
    if (i % 1024 == 1023) fleet.router.PumpAll();
  }
  while (fleet.router.PumpAll() > 0) {
  }
  return true;
}

struct RecoveryRun {
  double seconds = -1.0;
  std::uint64_t records_replayed = 0;
  std::uint64_t wal_bytes = 0;
  double hist_p50_ms = 0.0;
  double hist_p99_ms = 0.0;
  std::vector<std::uint8_t> digest;
};

/// One timed fleet recovery at the given thread count.
RecoveryRun RecoverFleet(const TempDir& tmp, int threads) {
  RecoveryRun run;
  common::parallel::SetThreads(threads);
  FileFleet fleet(tmp);
  if (!fleet.ok) return run;
  telemetry::Hub hub;
  for (auto& shard : fleet.shards) shard->AttachTelemetry(&hub);
  for (const auto& store : fleet.stores) run.wal_bytes += store->size();

  const bench::WallTimer timer;
  auto recovery = fleet.router.RecoverAll();
  const double seconds = timer.ms() / 1e3;
  if (!recovery.ok()) return run;

  run.seconds = seconds;
  run.records_replayed = recovery.value().records_replayed;
  auto& hist = hub.metrics().GetHistogram("lightwave_journal_recovery_latency_ms");
  if (hist.count() > 0) {
    run.hist_p50_ms = hist.Percentile(50.0);
    run.hist_p99_ms = hist.Percentile(99.0);
  }
  run.digest = fleet.Digest();
  return run;
}

std::string PolicyParams(ServeMode mode, const ServeResult& r) {
  char extra[128];
  std::snprintf(extra, sizeof(extra), " fsyncs=%llu commands_per_sec=%.0f",
                static_cast<unsigned long long>(r.fsyncs),
                static_cast<double>(r.commands) / r.seconds);
  return "policy=" + std::string(ToString(mode)) +
         " commands=" + std::to_string(r.commands) +
         " batch=" + std::to_string(mode == ServeMode::kPerCommand ? 1 : kBatch) +
         extra;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter json(argc, argv, "recovery");
  TempDir tmp;
  if (tmp.dir.empty()) {
    std::printf("mkdtemp failed\n");
    return 1;
  }

  // --- Part 1: per-sync-policy journaling overhead over real files ---------
  const ServeMode modes[] = {ServeMode::kOff, ServeMode::kGroupCommit,
                             ServeMode::kPeriodic, ServeMode::kPerCommand};
  ServeResult best[4];
  std::printf("file-backed serve, %llu commands, batch %zu, best of %d (%s)\n",
              static_cast<unsigned long long>(kServeCommands), kBatch, kRepeats,
              tmp.dir.c_str());
  for (int m = 0; m < 4; ++m) {
    best[m].seconds = 1e30;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const ServeResult run = RunServe(tmp, modes[m], repeat);
      if (run.seconds < 0.0) {
        std::printf("serve failed for policy %s\n", ToString(modes[m]));
        return 1;
      }
      if (run.seconds < best[m].seconds) best[m] = run;
    }
  }
  const double off_seconds = best[0].seconds;
  double group_commit_overhead_pct = 0.0;
  double periodic_overhead_pct = 0.0;
  for (int m = 0; m < 4; ++m) {
    const ServeResult& r = best[m];
    const double rps = static_cast<double>(r.commands) / r.seconds;
    // per_command runs a different command count and batch size, so its
    // wall clock is not comparable to the baseline; report its rate only.
    const bool comparable = modes[m] != ServeMode::kPerCommand;
    const double overhead_pct =
        comparable ? (r.seconds / off_seconds - 1.0) * 100.0 : 0.0;
    if (modes[m] == ServeMode::kGroupCommit) group_commit_overhead_pct = overhead_pct;
    if (modes[m] == ServeMode::kPeriodic) periodic_overhead_pct = overhead_pct;
    std::printf("  %-13s: %10.0f commands/s  (%8.2f ms, %5llu fsyncs)", ToString(modes[m]),
                rps, r.seconds * 1e3, static_cast<unsigned long long>(r.fsyncs));
    if (modes[m] == ServeMode::kOff) {
      std::printf("  [baseline]\n");
    } else if (comparable) {
      std::printf("  overhead %+.2f %%\n", overhead_pct);
    } else {
      std::printf("  [report-only: 1 fsync per command]\n");
    }
    json.Add("file_journaling_" + std::string(ToString(modes[m])),
             PolicyParams(modes[m], r), r.seconds * 1e3, r.bytes / r.seconds);
  }

  // --- Part 2: serial vs parallel fleet recovery ---------------------------
  if (!BuildFleetMedia(tmp)) {
    std::printf("fleet media build failed\n");
    return 1;
  }
  const int original_threads = common::parallel::Threads();
  RecoveryRun serial, parallel;
  serial.seconds = parallel.seconds = 1e30;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    RecoveryRun serial_run = RecoverFleet(tmp, 1);
    RecoveryRun parallel_run = RecoverFleet(tmp, kParallelThreads);
    if (serial_run.seconds < 0.0 || parallel_run.seconds < 0.0) {
      std::printf("fleet recovery failed\n");
      common::parallel::SetThreads(original_threads);
      return 1;
    }
    if (serial_run.digest != parallel_run.digest) {
      std::printf("FAIL: parallel recovery digest differs from serial\n");
      common::parallel::SetThreads(original_threads);
      return 1;
    }
    if (serial_run.seconds < serial.seconds) serial = std::move(serial_run);
    if (parallel_run.seconds < parallel.seconds) parallel = std::move(parallel_run);
  }
  common::parallel::SetThreads(original_threads);
  const double speedup = serial.seconds / parallel.seconds;
  std::printf("fleet recovery, %d file-backed shards, %llu records, best of %d\n",
              kFleetShards, static_cast<unsigned long long>(serial.records_replayed),
              kRepeats);
  std::printf("  serial   (1 thread ): %8.2f ms  (per-shard p50 %.2f ms, p99 %.2f ms)\n",
              serial.seconds * 1e3, serial.hist_p50_ms, serial.hist_p99_ms);
  std::printf("  parallel (%d threads): %8.2f ms  (per-shard p50 %.2f ms, p99 %.2f ms)\n",
              kParallelThreads, parallel.seconds * 1e3, parallel.hist_p50_ms,
              parallel.hist_p99_ms);
  std::printf("  speedup  : %.2fx  (digests byte-identical)\n", speedup);

  char serial_params[160];
  std::snprintf(serial_params, sizeof(serial_params),
                "shards=%d threads=1 records=%llu hist_p50_ms=%.3f hist_p99_ms=%.3f",
                kFleetShards, static_cast<unsigned long long>(serial.records_replayed),
                serial.hist_p50_ms, serial.hist_p99_ms);
  json.Add("recovery_serial", serial_params, serial.seconds * 1e3,
           serial.wal_bytes / serial.seconds);
  char parallel_params[160];
  std::snprintf(parallel_params, sizeof(parallel_params),
                "shards=%d threads=%d records=%llu hist_p50_ms=%.3f hist_p99_ms=%.3f",
                kFleetShards, kParallelThreads,
                static_cast<unsigned long long>(parallel.records_replayed),
                parallel.hist_p50_ms, parallel.hist_p99_ms);
  json.Add("recovery_parallel", parallel_params, parallel.seconds * 1e3,
           parallel.wal_bytes / parallel.seconds);

  // --- Gates ---------------------------------------------------------------
  const bool group_ok = group_commit_overhead_pct < 15.0;
  const bool periodic_ok = periodic_overhead_pct < 15.0;
  // Loose bound: parallel recovery must never LOSE to serial (scheduler
  // noise aside); the printed speedup is the real result.
  const bool parallel_ok = parallel.seconds <= serial.seconds * 1.25;
  if (!group_ok) std::printf("FAIL: group_commit overhead over the 15%% budget\n");
  if (!periodic_ok) std::printf("FAIL: periodic overhead over the 15%% budget\n");
  if (!parallel_ok) std::printf("FAIL: parallel recovery slower than serial\n");
  return group_ok && periodic_ok && parallel_ok ? 0 : 1;
}
