#include "serve.h"

#include <cstdio>
#include <filesystem>
#include <map>

#include "fleet/admission.h"
#include "journal/wal.h"
#include "svc/fleet_service.h"

namespace perfbench {

using svc::SliceCommand;

fleet::ShardOptions ServeShardOptions() {
  fleet::ShardOptions options;
  options.batch_size = kBatch;
  options.pipeline_depth = 8;
  // No snapshots: the serve path stays one cost per command, and recovery
  // replays the whole log.
  options.service.snapshot_interval = 0;
  // Quotas never bind: the client is closed-loop, and a refused command
  // would leave a gap in its tenant's ids.
  options.admission.default_quota = fleet::TenantQuota{1e18, 1e18, 1.0};
  options.admission.per_tenant_queue_capacity = 2 * kBatch;
  return options;
}

Media::Media(std::string dir, journal::SyncPolicy policy)
    : dir_(std::move(dir)), policy_(policy) {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
}

Media::~Media() {
  Close();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

bool Media::Open() {
  Close();
  journal::FileStorageOptions options;
  options.policy = policy_;
  options.periodic_interval = kWalSyncInterval;
  auto wal = journal::FileStorage::Open(dir_ + "/shard.wal", options);
  auto snapshot = journal::FileStorage::Open(dir_ + "/shard.snap", options);
  if (!wal.ok() || !snapshot.ok()) return false;
  wal_ = std::move(wal.value());
  snapshot_ = std::move(snapshot.value());
  return true;
}

void Media::Close() {
  wal_.reset();
  snapshot_.reset();
}

void TimedStorage::Append(const std::uint8_t* data, std::size_t n) {
  ScopedSpan span(spans_, "journal.append", window);
  inner_.Append(data, n);
}

void TimedStorage::Sync() {
  ScopedSpan span(spans_, "journal.sync", window);
  inner_.Sync();
}

void CheckServedState(const Trace& trace, const svc::FleetService& service,
                      const tpu::Superpod& pod, Result& result) {
  const svc::FleetServiceStats& stats = service.stats();
  result.Check(stats.processed == trace.commands, "service processed " +
                                                      std::to_string(stats.processed) + " of " +
                                                      std::to_string(trace.commands));
  result.Check(stats.admitted == trace.admitted && stats.resized == trace.resized &&
                   stats.released == trace.released,
               "service outcomes differ from the twin prediction");
  result.Check(SchedulerBytes(service.scheduler()) == trace.expected_scheduler,
               "scheduler state differs from the twin prediction");
  result.Check(SwitchBytes(pod) == trace.expected_switches,
               "switch state differs from the twin prediction");
  result.Check(SliceBytes(pod) == trace.expected_slices,
               "slice table differs from the twin prediction");
}

void CheckTwins(const Trace& trace, const Twins& twins, Result& result) {
  result.Check(SliceBytes(*twins.pod_b()) == trace.expected_slices,
               "twin B slice table differs from twin A");
  result.Check(SwitchBytes(*twins.pod_b()) == trace.expected_switches,
               "twin B switch state differs from twin A");
  result.Check(SwitchBytes(*twins.pod_c()) == trace.expected_switches,
               "twin C switch state differs from twin A");
}

namespace {

/// Checks a finished pass against the trace and records what it left.
void FinishPass(const Trace& trace, const svc::FleetService& service,
                const tpu::Superpod& pod, std::uint64_t fsyncs, ServePass& pass,
                Result& result) {
  CheckServedState(trace, service, pod, result);
  pass.processed = service.stats().processed;
  pass.allocations = service.stats().admitted + service.stats().resized;
  pass.wal_bytes = service.wal().appended_bytes();
  pass.fsyncs = fsyncs;
  pass.state = service.SerializeState();
}

}  // namespace

ServePass DriveShard(const Trace& trace, PodGeometry geometry, Media& media, ShardMode mode,
                     SpeedProbe* probe, Result& result) {
  ServePass pass;
  const auto scale = [probe] { return probe == nullptr ? 1.0 : probe->Scale(); };
  const auto setup_start = Clock::now();
  tpu::Superpod pod(trace.pod_seed, geometry.cubes, geometry.ocs_per_dim);
  fleet::Shard shard(0, pod, core::AllocationPolicy::kReconfigurable, media.wal(),
                     media.snapshot(), ServeShardOptions());
  if (!result.Check(shard.Recover().ok(), "recovery of fresh media failed")) return pass;
  const std::uint64_t fsyncs_before = media.wal().fsync_count();
  if (mode == ShardMode::kPipelined) shard.Start();
  pass.setup_seconds =
      Seconds(setup_start, Clock::now()) * (probe == nullptr ? 1.0 : probe->SetupScale());
  for (const std::vector<SliceCommand>& window : trace.windows) {
    if (probe != nullptr) probe->Tick();
    const auto start = Clock::now();
    for (const SliceCommand& cmd : window) {
      if (!shard.Offer(cmd).ok()) result.Fail(1, "admission refused a trace command");
    }
    if (mode == ShardMode::kPipelined) {
      shard.Drain();
    } else {
      shard.PumpAll();
    }
    const double seconds = Seconds(start, Clock::now()) * scale();
    pass.window_ms.Add(seconds * 1e3);
    pass.seconds += seconds;
  }
  shard.Stop();

  const fleet::ShardStats shard_stats = shard.stats();
  result.Check(shard_stats.pipeline_duplicates == 0 && shard_stats.pipeline_gaps == 0,
               "the journal stage dropped trace commands as duplicates or gaps");
  FinishPass(trace, shard.service(), pod, media.wal().fsync_count() - fsyncs_before, pass,
             result);
  return pass;
}

ServePass DriveStages(const Trace& trace, PodGeometry geometry, Media& media, SpanLog* spans,
                      std::uint64_t first_window_id, Result& result) {
  ServePass pass;
  const auto setup_start = Clock::now();
  tpu::Superpod pod(trace.pod_seed, geometry.cubes, geometry.ocs_per_dim);
  TimedStorage wal(media.wal(), spans);
  const fleet::ShardOptions options = ServeShardOptions();
  svc::FleetService service(pod, core::AllocationPolicy::kReconfigurable, wal,
                            media.snapshot(), options.service);
  if (!result.Check(service.Recover().ok(), "recovery of fresh media failed")) return pass;
  fleet::AdmissionQueue admission(options.admission);
  const std::uint64_t fsyncs_before = media.wal().fsync_count();
  std::vector<std::vector<std::uint8_t>> encoded;
  pass.setup_seconds = Seconds(setup_start, Clock::now());

  const auto start = Clock::now();
  for (std::size_t w = 0; w < trace.windows.size(); ++w) {
    const std::uint64_t window_id = first_window_id + w;
    wal.window = window_id;
    const auto window_start = Clock::now();
    ScopedSpan window_span(spans, "fleet.window", window_id);
    for (const SliceCommand& cmd : trace.windows[w]) {
      ScopedSpan span(spans, "fleet.offer", window_id);
      if (!admission.Offer(cmd).ok()) result.Fail(1, "admission refused a trace command");
    }
    while (true) {
      std::vector<SliceCommand> batch;
      {
        ScopedSpan span(spans, "fleet.pop_batch", window_id);
        batch = admission.PopBatch(kBatch);
      }
      if (batch.empty()) break;
      {
        // The shard's frontier filter: the first command of each tenant is
        // checked against the service's pending frontier, later ones
        // against the ids already accepted in this batch.
        ScopedSpan span(spans, "svc.check_pending", window_id);
        std::map<std::uint32_t, std::uint64_t> next;
        for (const SliceCommand& cmd : batch) {
          auto it = next.find(cmd.tenant_id);
          const bool accept = it == next.end()
                                  ? service.CheckPending(cmd) == svc::AdmitCheck::kAccept
                                  : cmd.command_id == it->second;
          if (!accept) result.Fail(1, "trace command out of its tenant's id order");
          next[cmd.tenant_id] = cmd.command_id + 1;
        }
      }
      encoded.resize(batch.size());
      {
        ScopedSpan span(spans, "journal.encode", window_id);
        for (std::size_t i = 0; i < batch.size(); ++i) batch[i].EncodeTo(&encoded[i]);
      }
      {
        ScopedSpan span(spans, "journal.crc", window_id);
        for (const auto& payload : encoded) {
          (void)journal::Crc32c(payload.data(), payload.size());
          pass.crc_bytes += payload.size();
        }
      }
      common::Result<std::uint64_t> first_seq = [&] {
        ScopedSpan span(spans, "svc.journal_batch", window_id);
        return service.JournalBatch(batch);
      }();
      if (!result.Check(first_seq.ok(), "journal append failed")) return pass;
      std::size_t applied = 0;
      {
        ScopedSpan span(spans, "svc.apply_batch", window_id);
        applied = service.ApplyJournaled(batch, first_seq.value());
      }
      result.Check(applied == batch.size(), "apply stage stopped inside a batch");
    }
    pass.window_ms.Add(Micros(window_start, Clock::now()) / 1e3);
  }
  pass.seconds = Seconds(start, Clock::now());

  FinishPass(trace, service, pod, media.wal().fsync_count() - fsyncs_before, pass, result);
  return pass;
}

std::uint64_t TracedRecovery(Media& media, PodGeometry geometry, std::uint64_t pod_seed,
                             const std::vector<std::uint8_t>& expected_state, SpanLog* spans,
                             std::uint64_t window_id, Result& result) {
  if (!result.Check(media.Open(), "reopening the journal media failed")) return 0;
  tpu::Superpod pod(pod_seed, geometry.cubes, geometry.ocs_per_dim);
  std::unique_ptr<fleet::Shard> shard;
  {
    ScopedSpan span(spans, "journal.scan", window_id);
    shard = std::make_unique<fleet::Shard>(0, pod, core::AllocationPolicy::kReconfigurable,
                                           media.wal(), media.snapshot(), ServeShardOptions());
  }
  common::Result<journal::RecoveryStats> recovered = [&] {
    ScopedSpan span(spans, "journal.replay", window_id);
    return shard->Recover();
  }();
  if (!result.Check(recovered.ok(), "shard recovery failed")) return 0;
  if (spans != nullptr) {
    std::uint64_t undecodable = 0;
    for (const journal::WalRecord& record : shard->service().wal().recovery_scan().records) {
      ScopedSpan span(spans, "journal.decode", window_id);
      if (!SliceCommand::Decode(record.payload).ok()) ++undecodable;
    }
    if (undecodable > 0) result.Fail(undecodable, "journal records failed to decode");
  }
  result.Check(shard->service().SerializeState() == expected_state,
               "recovered state differs from the pre-crash state");
  return recovered.value().records_replayed;
}

namespace {

double P50(const SpanLog& spans, const char* name) {
  return spans.SelfMicros(name).Median();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void ServeLayers(const SpanLog& spans, const FabricCounters& fabric, const ServeTally& tally,
                 Layers& layers) {
  layers["fleet.offer_us"] = P50(spans, "fleet.offer");
  layers["fleet.pop_batch_us"] = P50(spans, "fleet.pop_batch");
  layers["fleet.pipelined_window_p50_ms"] = tally.pipelined_window_ms.Percentile(50.0);
  layers["fleet.pipelined_window_p90_ms"] = tally.pipelined_window_ms.Percentile(90.0);
  layers["svc.journal_batch_us"] = P50(spans, "svc.journal_batch");
  const Samples apply = spans.SelfMicros("svc.apply_batch");
  layers["svc.apply_batch_us_p50"] = apply.Percentile(50.0);
  layers["svc.apply_batch_us_p90"] = apply.Percentile(90.0);
  layers["svc.useful_frac"] = Ratio(static_cast<double>(tally.useful), tally.commands);
  layers["journal.encode_us"] = P50(spans, "journal.encode");
  layers["journal.crc_ns_per_kb"] =
      Ratio(spans.SelfMicros("journal.crc").Sum() * 1e3, tally.crc_bytes / 1024.0);
  layers["journal.append_us"] = P50(spans, "journal.append");
  layers["journal.sync_us"] = P50(spans, "journal.sync");
  layers["journal.fsyncs_per_kcmd"] = Ratio(tally.fsyncs * 1e3, tally.commands);
  layers["journal.bytes_per_command"] = Ratio(tally.wal_bytes, tally.commands);
  layers["journal.scan_ms"] = P50(spans, "journal.scan") / 1e3;
  layers["journal.decode_us"] = P50(spans, "journal.decode");
  layers["journal.replay_ms"] = P50(spans, "journal.replay") / 1e3;
  layers["journal.records_replayed"] =
      Ratio(static_cast<double>(tally.records_replayed), tally.recoveries);

  const Samples allocate = spans.SelfMicros("core.allocate");
  layers["core.allocate_us_p50"] = allocate.Percentile(50.0);
  layers["core.allocate_us_p90"] = allocate.Percentile(90.0);
  layers["core.pick_us"] = P50(spans, "core.pick");
  layers["core.release_us"] = P50(spans, "core.release");
  layers["core.accept_frac"] = Ratio(fabric.accepted, fabric.allocations);
  const Samples install = spans.SelfMicros("tpu.install");
  layers["tpu.install_us_p50"] = install.Percentile(50.0);
  layers["tpu.install_us_p90"] = install.Percentile(90.0);
  layers["tpu.remove_us"] = P50(spans, "tpu.remove");
  layers["tpu.ocs_per_install"] = Ratio(fabric.ocs_touched, fabric.installs);
  layers["ocs.reconfigure_us"] = P50(spans, "ocs.reconfigure");
  layers["ocs.ports_diffed_per_reconfigure"] = Ratio(fabric.ports_diffed, fabric.reconfigures);
  layers["ocs.ports_changed_per_reconfigure"] =
      Ratio(fabric.ports_changed, fabric.reconfigures);
  layers["ocs.changed_frac"] = Ratio(fabric.ports_changed, fabric.ports_diffed);
}

TracedTimes TraceServeRep(const ServeWorkload& workload, std::uint64_t seed,
                          const std::string& dir, std::uint64_t window_base, SpanLog& spans,
                          FabricCounters& fabric, ServeTally& tally, Result& result) {
  TracedTimes times;
  const PodGeometry geometry = workload.config.geometry;
  Twins twins(seed, geometry, &spans);
  const Trace trace = GenerateTrace(workload.config, seed, twins, window_base);
  CheckTwins(trace, twins, result);
  fabric += twins.counters();
  result.Attempt(4 * trace.commands);
  {
    // Untraced Offer-to-Drain windows on a pipelined shard.
    Media media(dir + "-pipelined");
    if (!result.Check(media.Open(), "opening the journal media failed")) return times;
    tally.pipelined_window_ms.Append(
        DriveShard(trace, geometry, media, ShardMode::kPipelined, nullptr, result).window_ms);
  }
  {
    // Tracing overhead: equal work with and without spans, under the timed
    // runs' sync policy so fsync time does not drown the difference.
    SpanLog discarded;
    for (SpanLog* log : {static_cast<SpanLog*>(nullptr), &discarded}) {
      Media media(dir + (log == nullptr ? "-untraced" : "-overhead"));
      if (!result.Check(media.Open(), "opening the journal media failed")) return times;
      const double seconds = DriveStages(trace, geometry, media, log, window_base, result).seconds;
      (log == nullptr ? times.drive_untraced_s : times.drive_traced_s) = seconds;
    }
  }
  Media media(dir + "-traced", kTracedWalSync);
  if (!result.Check(media.Open(), "opening the journal media failed")) return times;
  const ServePass pass = DriveStages(trace, geometry, media, &spans, window_base, result);
  tally.commands += pass.processed;
  tally.useful += trace.admitted + trace.resized + trace.released;
  tally.wal_bytes += pass.wal_bytes;
  tally.fsyncs += pass.fsyncs;
  tally.crc_bytes += pass.crc_bytes;

  for (SpanLog* log : {static_cast<SpanLog*>(nullptr), &spans}) {
    media.Close();
    const auto start = Clock::now();
    const std::uint64_t replayed =
        TracedRecovery(media, geometry, seed, pass.state, log, window_base, result);
    (log == nullptr ? times.recovery_untraced_s : times.recovery_traced_s) =
        Seconds(start, Clock::now());
    if (log != nullptr) {
      tally.records_replayed += replayed;
      ++tally.recoveries;
    }
  }
  return times;
}

// --- churn and flood -------------------------------------------------------

namespace {

// Generating a trace against a fresh twin costs about as much as serving it,
// so a timed run sets up a few traces and serves them in turn: most of its
// wall time is serving. A churn trace takes about a second to generate, a
// flood trace about 60 ms with a wide spread from trace to trace, so flood
// sets up more of them for a steady median.
/// Production geometry: 64 cubes, 48 OCSes, one client's Poisson jobs.
constexpr ServeWorkload kChurn{"churn", {TraceKind::kChurn, {64, 16}, 24}, 5};
/// A 16-cube, 6-OCS shard partition flooded by 64 Zipf-skewed tenants.
constexpr ServeWorkload kFlood{"flood", {TraceKind::kFlood, {16, 2}, 256}, 16};
/// Traced runs keep every span in memory; a few repetitions give the
/// per-call distributions without a huge span dump.
constexpr std::uint64_t kMaxTracedReps = 3;
/// Hard stop on a run's wall clock, whatever --seconds asks for.
constexpr double kMaxWallSeconds = 120.0;

void TimedServe(const ServeWorkload& workload, const RunOptions& options, Result& result) {
  Samples setup_s;
  Samples window_ms;
  // Rates are totals over the run's scaled serving time, so every trace
  // served counts by its size.
  double serve_s = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t commands = 0;
  std::uint64_t useful = 0;
  const auto run_start = Clock::now();
  SpeedProbe probe;
  const std::size_t trace_count = workload.timed_traces;
  std::vector<Trace> traces;
  std::vector<double> generate_s;
  for (std::size_t i = 0; i < trace_count; ++i) {
    probe.Probe();
    const auto start = Clock::now();
    const std::uint64_t seed = MixSeed(options.seed, i);
    Twins twins(seed, workload.config.geometry, nullptr);
    traces.push_back(GenerateTrace(workload.config, seed, twins, 0));
    generate_s.push_back(Seconds(start, Clock::now()) * probe.SetupScale());
    result.Check(traces.back().order_dependent_windows == 0,
                 "a mixed-tenant window changes state (outcome would depend on order)");
  }
  // Serving lasts --seconds of wall time, whatever the host's speed; only
  // the reported times are scaled.
  const auto serve_start = Clock::now();
  for (std::size_t rep = 0;
       rep < trace_count || (Seconds(serve_start, Clock::now()) < options.seconds &&
                             Seconds(run_start, Clock::now()) < kMaxWallSeconds);
       ++rep) {
    const Trace& trace = traces[rep % trace_count];
    probe.Probe();
    const auto media_start = Clock::now();
    Media media(options.scratch + "/" + workload.name + std::to_string(rep));
    if (!result.Check(media.Open(), "opening the journal media failed")) return;
    const double media_s = Seconds(media_start, Clock::now()) * probe.SetupScale();
    result.Attempt(trace.commands);
    const ServePass pass =
        DriveShard(trace, workload.config.geometry, media, ShardMode::kSync, &probe, result);
    // A trace's first serve completes its set-up: generation, media, pod
    // build and shard start.
    if (rep < trace_count) setup_s.Add(generate_s[rep] + media_s + pass.setup_seconds);
    window_ms.Append(pass.window_ms);
    serve_s += pass.seconds;
    commands += pass.processed;
    allocations += pass.allocations;
    useful += trace.admitted + trace.resized + trace.released;
  }
  const double useful_frac = Ratio(static_cast<double>(useful), commands);
  const double ops_per_s = Ratio(static_cast<double>(commands), serve_s);
  const double allocs_per_s = Ratio(static_cast<double>(allocations), serve_s);
  std::printf("%s: %llu commands in %zu windows of %zu, useful_frac %.4f\n", workload.name,
              static_cast<unsigned long long>(commands), window_ms.count(), kWindowCommands,
              useful_frac);
  std::printf("  commands_per_s %.1f 1/s | admits_per_s %.1f 1/s | window_p50_ms %.3f ms |"
              " window_p90_ms %.3f ms (%zu windows)\n",
              ops_per_s, allocs_per_s, window_ms.Percentile(50.0),
              window_ms.Percentile(90.0), window_ms.count());
  probe.Print();
  if (workload.config.kind == TraceKind::kChurn) {
    result.Check(useful_frac >= 0.5, "churn useful_frac below 0.5");
  } else {
    result.Check(useful_frac < 0.1, "flood useful_frac not below 0.1");
  }
  result.Metric("setup_s", setup_s.Median(), "s");
  result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  result.Metric("ops_per_s", ops_per_s, "1/s");
  result.Metric("allocs_per_s", allocs_per_s, "1/s");
  result.Metric("p50_ms", window_ms.Percentile(50.0), "ms");
}

void TracedServe(const ServeWorkload& workload, const RunOptions& options, SpanLog& spans,
                 Layers& layers, Result& result) {
  FabricCounters fabric;
  ServeTally tally;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const auto run_start = Clock::now();
  for (std::uint64_t rep = 0;
       rep == 0 || (rep < kMaxTracedReps && Seconds(run_start, Clock::now()) < options.seconds);
       ++rep) {
    const TracedTimes times = TraceServeRep(
        workload, MixSeed(options.seed, rep),
        options.scratch + "/" + workload.name + std::to_string(rep), rep * 1000000, spans,
        fabric, tally, result);
    untraced_s += times.drive_untraced_s;
    traced_s += times.drive_traced_s;
  }
  ServeLayers(spans, fabric, tally, layers);
  layers["trace.overhead_pct"] = (Ratio(traced_s, untraced_s) - 1.0) * 100.0;
  std::printf("%s traced: stage drive %.3f s untraced, %.3f s traced (overhead %.2f%%)\n",
              workload.name, untraced_s, traced_s, layers["trace.overhead_pct"]);
}

void RunServe(const ServeWorkload& workload, const RunOptions& options, SpanLog* spans,
              Layers& layers, Result& result) {
  if (spans == nullptr) {
    TimedServe(workload, options, result);
    return;
  }
  TracedServe(workload, options, *spans, layers, result);
  FigureControlLayers(*spans, layers, result);
}

}  // namespace

void RunChurn(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result) {
  RunServe(kChurn, options, spans, layers, result);
}

void RunFlood(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result) {
  RunServe(kFlood, options, spans, layers, result);
}

void ServeControlLayers(const RunOptions& options, SpanLog& spans, Layers& layers,
                        Result& result) {
  // A short churn trace on a 16-cube shard partition.
  constexpr ServeWorkload kControl{"control", {TraceKind::kChurn, {16, 2}, 8}};
  FabricCounters fabric;
  ServeTally tally;
  TraceServeRep(kControl, MixSeed(options.seed, 0xC0), options.scratch + "/control", 0, spans,
                fabric, tally, result);
  ServeLayers(spans, fabric, tally, layers);
}

}  // namespace perfbench
