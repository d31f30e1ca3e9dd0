// The recover workload: a fleet restart. Set-up serves a churn-style trace
// into four file-backed shards (32-cube pods, snapshots off, so the whole
// log is replayed). The timed part opens the media, builds the shards — the
// WAL scan runs in the constructor — and ends when Router::RecoverAll
// returns. Every recovery must reproduce the pre-crash state byte for byte.
#include <cstdio>
#include <memory>
#include <vector>

#include "fleet/router.h"
#include "serve.h"

namespace perfbench {

namespace {

constexpr int kShards = 4;
/// Each shard's log: a churn trace on a 32-cube, 6-OCS pod, snapshots off.
constexpr ServeWorkload kShardLog{"recover", {TraceKind::kChurn, {32, 2}, 48}};
constexpr PodGeometry kGeometry = kShardLog.config.geometry;
/// Sets of shard logs per run. A set's build time varies by up to half from
/// one sub-seed to the next, so setup_s takes the median of five.
constexpr int kReps = 5;
constexpr int kMinRecoveriesPerRep = 3;
constexpr double kMaxWallSeconds = 120.0;

/// Durable media of the fleet plus what recovery must reproduce.
struct FleetMedia {
  std::vector<std::unique_ptr<Media>> media;
  std::vector<std::uint64_t> pod_seeds;
  std::vector<std::vector<std::uint8_t>> states;
  std::uint64_t records = 0;
  std::uint64_t allocations = 0;
};

FleetMedia BuildMedia(const RunOptions& options, std::uint64_t rep_seed, int rep,
                      SpeedProbe* probe, Result& result) {
  FleetMedia fleet;
  for (int s = 0; s < kShards; ++s) {
    const std::uint64_t seed = MixSeed(rep_seed, static_cast<std::uint64_t>(s));
    Twins twins(seed, kGeometry, nullptr);
    const Trace trace = GenerateTrace(kShardLog.config, seed, twins, 0);
    auto media = std::make_unique<Media>(options.scratch + "/recover" + std::to_string(rep) +
                                         "-shard" + std::to_string(s));
    if (!result.Check(media->Open(), "opening the journal media failed")) return fleet;
    const ServePass pass = DriveShard(trace, kGeometry, *media, ShardMode::kSync, probe, result);
    media->Close();
    fleet.media.push_back(std::move(media));
    fleet.pod_seeds.push_back(seed);
    fleet.states.push_back(pass.state);
    fleet.records += pass.processed;
    fleet.allocations += pass.allocations;
  }
  return fleet;
}

/// One timed fleet recovery; returns seconds (negative on failure).
double RecoverFleet(FleetMedia& fleet, Result& result) {
  std::vector<std::unique_ptr<tpu::Superpod>> pods;
  for (int s = 0; s < kShards; ++s) {
    pods.push_back(std::make_unique<tpu::Superpod>(fleet.pod_seeds[s], kGeometry.cubes,
                                                   kGeometry.ocs_per_dim));
  }
  std::vector<std::unique_ptr<fleet::Shard>> shards;
  fleet::Router router;
  const auto start = Clock::now();
  for (int s = 0; s < kShards; ++s) {
    if (!result.Check(fleet.media[s]->Open(), "reopening the journal media failed")) return -1;
    shards.push_back(std::make_unique<fleet::Shard>(
        static_cast<std::uint32_t>(s), *pods[s], core::AllocationPolicy::kReconfigurable,
        fleet.media[s]->wal(), fleet.media[s]->snapshot(), ServeShardOptions()));
    router.AddShard(shards.back().get());
  }
  const auto recovered = router.RecoverAll();
  const double seconds = Seconds(start, Clock::now());
  result.Attempt(fleet.records);
  if (!result.Check(recovered.ok(), "RecoverAll failed")) return -1;
  result.Check(recovered.value().records_replayed == fleet.records,
               "recovery replayed " + std::to_string(recovered.value().records_replayed) +
                   " of " + std::to_string(fleet.records) + " records");
  for (int s = 0; s < kShards; ++s) {
    result.Check(shards[s]->service().SerializeState() == fleet.states[s],
                 "recovered digest differs from the pre-crash digest, shard " +
                     std::to_string(s));
  }
  shards.clear();
  for (auto& media : fleet.media) media->Close();
  return seconds;
}

void TimedRecover(const RunOptions& options, Result& result) {
  Samples setup_s;
  Samples recovery_ms;
  Samples ops_per_s;
  Samples allocs_per_s;
  double recovered_records = 0.0;
  const auto run_start = Clock::now();
  SpeedProbe probe;
  for (int rep = 0; rep < kReps; ++rep) {
    probe.Probe();
    const auto setup_start = Clock::now();
    FleetMedia fleet = BuildMedia(options, MixSeed(options.seed, static_cast<std::uint64_t>(rep)),
                                  rep, &probe, result);
    setup_s.Add(Seconds(setup_start, Clock::now()) * probe.SetupScale());
    if (fleet.media.size() != kShards) return;
    // Each set of logs is recovered for a share of --seconds of wall time,
    // whatever the host's speed; only the reported times are scaled.
    const auto rep_start = Clock::now();
    for (int i = 0; i < kMinRecoveriesPerRep ||
                    (Seconds(rep_start, Clock::now()) < options.seconds / kReps &&
                     Seconds(run_start, Clock::now()) < kMaxWallSeconds);
         ++i) {
      probe.Probe();
      const double raw_seconds = RecoverFleet(fleet, result);
      if (raw_seconds < 0.0) return;
      const double seconds = raw_seconds * probe.Scale();
      recovery_ms.Add(seconds * 1e3);
      recovered_records += static_cast<double>(fleet.records);
      ops_per_s.Add(fleet.records / seconds);
      allocs_per_s.Add(fleet.allocations / seconds);
    }
  }
  std::printf("recover: %d shards x %.0f records per recovery, %zu recoveries\n", kShards,
              recovered_records / recovery_ms.count() / kShards, recovery_ms.count());
  std::printf("  recovery_s %.6f s (p50) | p90 %.6f s\n", recovery_ms.Percentile(50.0) / 1e3,
              recovery_ms.Percentile(90.0) / 1e3);
  probe.Print();
  result.Metric("setup_s", setup_s.Median(), "s");
  result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  result.Metric("ops_per_s", ops_per_s.Median(), "1/s");
  result.Metric("allocs_per_s", allocs_per_s.Median(), "1/s");
  result.Metric("p50_ms", recovery_ms.Percentile(50.0), "ms");
}

/// Traced: each shard's log is built by the traced stage driver from a
/// traced twin pass, then recovered one shard at a time, untraced and traced
/// (scan, replay and decode spans).
void TracedRecover(const RunOptions& options, SpanLog& spans, Layers& layers, Result& result) {
  FabricCounters fabric;
  ServeTally tally;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const std::uint64_t rep_seed = MixSeed(options.seed, 0);
  for (int s = 0; s < kShards; ++s) {
    const TracedTimes times = TraceServeRep(
        kShardLog, MixSeed(rep_seed, static_cast<std::uint64_t>(s)),
        options.scratch + "/recover-shard" + std::to_string(s),
        static_cast<std::uint64_t>(s) * 1000000, spans, fabric, tally, result);
    untraced_s += times.recovery_untraced_s;
    traced_s += times.recovery_traced_s;
  }
  ServeLayers(spans, fabric, tally, layers);
  layers["trace.overhead_pct"] = (untraced_s == 0.0 ? 0.0 : traced_s / untraced_s - 1.0) * 100.0;
  std::printf("recover traced: serial shard recovery %.3f s untraced, %.3f s traced\n",
              untraced_s, traced_s);
}

}  // namespace

void RunRecover(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result) {
  if (spans == nullptr) {
    TimedRecover(options, result);
    return;
  }
  TracedRecover(options, *spans, layers, result);
  FigureControlLayers(*spans, layers, result);
}

}  // namespace perfbench
