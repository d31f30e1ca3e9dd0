// Fleet-service crash-recovery tests (CTest label `recovery`). The
// centerpiece is the crash matrix: a 200-command seeded trace, served by a
// sync shard one command per batch, crashed at EVERY command boundary under
// each of the three crash points, recovered, and checked three ways — the
// recovered state is byte-identical to the pre-crash committed state, no
// journaled command applies twice, and no accepted-and-journaled command is
// lost. The matrix also runs under the deterministic parallel runtime at
// 1/2/8 threads with identical results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "journal/faulty_storage.h"
#include "journal/file_storage.h"
#include "storage_test_util.h"
#include "core/scheduler.h"
#include "ctrl/controller.h"
#include "ctrl/fault_injector.h"
#include "ctrl/wire.h"
#include "fleet/shard.h"
#include "journal/snapshot.h"
#include "journal/storage.h"
#include "svc/fleet_service.h"
#include "svc/request_stream.h"
#include "telemetry/hub.h"
#include "tpu/superpod.h"

namespace lightwave {
namespace {

using ctrl::CrashPoint;

constexpr std::uint64_t kPodSeed = 91;
constexpr std::uint64_t kStreamSeed = 2026;
constexpr std::uint64_t kCommands = 200;
// Small pod (8 cubes, 6 OCSes) so the 600-trial matrix stays fast; the
// stream's size menu keeps capacity pressure (and thus apply rejections) in
// the trace.
constexpr int kPodCubes = 8;
constexpr int kOcsPerDim = 2;

// FNV-1a 64 of the final oracle state: the serve path must keep producing
// exactly the state this trace has always reached.
constexpr std::uint64_t kFinalStateFnv = 0x8783c4b398cc3f30ull;

/// One command per journal batch, so every crash point is visited once per
/// command; with a single tenant, admission is FIFO.
fleet::ShardOptions MatrixOptions() {
  fleet::ShardOptions options;
  options.batch_size = 1;
  options.service.snapshot_interval = 16;  // several snapshot/compaction cycles per run
  options.admission.default_quota = fleet::TenantQuota{1e9, 1e9, 1.0};
  options.admission.per_tenant_queue_capacity = kCommands;
  return options;
}

std::unique_ptr<tpu::Superpod> FreshPod() {
  return std::make_unique<tpu::Superpod>(kPodSeed, kPodCubes, kOcsPerDim);
}

std::unique_ptr<fleet::Shard> MakeShard(tpu::Superpod& pod, journal::Storage& wal_storage,
                                        journal::Storage& snapshot_storage,
                                        fleet::ShardOptions options = MatrixOptions()) {
  return std::make_unique<fleet::Shard>(0, pod, core::AllocationPolicy::kReconfigurable,
                                        wal_storage, snapshot_storage, options);
}

const svc::RequestStream& Stream() {
  static const svc::RequestStream stream(kStreamSeed, kCommands);
  return stream;
}

std::uint64_t Committed(const fleet::Shard& shard) {
  return shard.service().next_command_id(0) - 1;
}

/// Offers one command and pumps it through the journal and apply stages.
std::size_t ServeOne(fleet::Shard& shard, std::uint64_t index) {
  EXPECT_TRUE(shard.Offer(Stream().Command(index)).ok());
  return shard.PumpOnce();
}

/// Serves the stream from the committed frontier (what a client replays
/// after the service restarts) until it is exhausted or a crash fires.
/// Returns the commands applied.
std::uint64_t Serve(fleet::Shard& shard) {
  std::uint64_t applied = 0;
  for (std::uint64_t i = Committed(shard); i < kCommands && !shard.service().crashed();
       ++i) {
    applied += ServeOne(shard, i);
  }
  return applied;
}

std::uint64_t Fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Oracle digests: state bytes after committing exactly k commands, for
/// every k in [0, kCommands], from one uneventful serial run.
const std::vector<std::vector<std::uint8_t>>& OracleDigests() {
  static const auto digests = [] {
    std::vector<std::vector<std::uint8_t>> out;
    auto pod = FreshPod();
    journal::MemStorage wal_storage;
    journal::MemStorage snapshot_storage;
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
    EXPECT_TRUE(shard->Recover().ok());
    out.push_back(shard->service().SerializeState());
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      EXPECT_EQ(ServeOne(*shard, i), 1u);
      out.push_back(shard->service().SerializeState());
    }
    return out;
  }();
  return digests;
}

struct TrialResult {
  bool crashed = false;
  std::uint64_t committed_after_crash = 0;
  std::vector<std::uint8_t> recovered_digest;
  std::vector<std::uint8_t> final_digest;
  bool recovery_ok = false;
  bool invariants_ok = false;
};

/// One matrix cell: crash the k-th visit of `point`, recover a successor
/// process over the same durable media, resume, finish the stream.
TrialResult RunCrashTrial(CrashPoint point, std::uint64_t k) {
  TrialResult result;
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  ctrl::FaultInjector injector(7, ctrl::FaultProfile{});

  {
    auto pod = FreshPod();
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
    shard->service().SetFaultInjector(&injector);
    if (!shard->Recover().ok()) return result;
    injector.ArmCrash(point, k);
    Serve(*shard);
    result.crashed = shard->service().crashed();
    // The pod and shard die here; only the two storages survive.
  }

  auto pod = FreshPod();
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
  shard->service().SetFaultInjector(&injector);
  auto recovery = shard->Recover();
  result.recovery_ok = recovery.ok();
  if (!recovery.ok()) return result;
  result.committed_after_crash = Committed(*shard);
  result.recovered_digest = shard->service().SerializeState();

  Serve(*shard);
  if (shard->service().crashed()) return result;
  result.final_digest = shard->service().SerializeState();

  result.invariants_ok = shard->service().scheduler().ValidateInvariants().ok();
  for (int i = 0; result.invariants_ok && i < pod->ocs_count(); ++i) {
    result.invariants_ok = pod->ocs(i).ValidateInvariants().ok();
  }
  return result;
}

void CheckTrial(CrashPoint point, std::uint64_t k, const TrialResult& result) {
  SCOPED_TRACE("crash point " + std::string(ctrl::ToString(point)) + " at command " +
               std::to_string(k));
  ASSERT_TRUE(result.crashed);
  ASSERT_TRUE(result.recovery_ok);
  // Durability contract: a pre-append crash may lose only command k (never
  // acknowledged as committed); at or after the append, command k is
  // journaled and MUST survive.
  const std::uint64_t expected_committed = point == CrashPoint::kPreAppend ? k - 1 : k;
  EXPECT_EQ(result.committed_after_crash, expected_committed);
  // Byte-identical to the committed pre-crash state: nothing applied twice
  // (the oracle applied each command exactly once — a double apply would
  // shift the scheduler's request counters and slice ids), nothing lost.
  EXPECT_EQ(result.recovered_digest, OracleDigests()[expected_committed]);
  // Resuming the stream from the frontier converges on the uneventful run.
  EXPECT_EQ(result.final_digest, OracleDigests()[kCommands]);
  EXPECT_TRUE(result.invariants_ok);
}

TEST(CrashMatrix, EveryBoundaryEveryCrashPoint) {
  // Build serially before fanning out.
  EXPECT_EQ(Fnv1a64(OracleDigests()[kCommands]), kFinalStateFnv);
  for (CrashPoint point : {CrashPoint::kPreAppend, CrashPoint::kPostAppendPreApply,
                           CrashPoint::kMidApply}) {
    // Trials are independent processes-in-miniature; run them through the
    // deterministic parallel runtime (trial k uses only value-captured
    // state).
    auto results = common::parallel::ParallelMap(
        kCommands, [&](std::uint64_t i) { return RunCrashTrial(point, i + 1); });
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      CheckTrial(point, i + 1, results[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(CrashMatrix, DeterministicAcrossThreadCounts) {
  OracleDigests();
  const int original = common::parallel::Threads();
  std::vector<std::vector<std::uint8_t>> digests;
  for (int threads : {1, 2, 8}) {
    common::parallel::SetThreads(threads);
    auto results = common::parallel::ParallelMap(8, [&](std::uint64_t i) {
      // A spread of boundaries across all three crash points.
      const CrashPoint point = static_cast<CrashPoint>(i % 3);
      return RunCrashTrial(point, 11 + 23 * i);
    });
    std::vector<std::uint8_t> combined;
    for (const auto& r : results) {
      EXPECT_TRUE(r.recovery_ok);
      combined.insert(combined.end(), r.recovered_digest.begin(),
                      r.recovered_digest.end());
      combined.insert(combined.end(), r.final_digest.begin(), r.final_digest.end());
    }
    digests.push_back(std::move(combined));
  }
  common::parallel::SetThreads(original);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

// ---------------------------------------------------------------------------
// File-backed durability: the same crash matrix over real files, plus the
// power-cut cases only FaultyStorage can model (torn final append, lost
// sync window).

/// One FILE-BACKED matrix cell: the same protocol as RunCrashTrial, but the
/// two storages are real files that outlive the crashed "process" (whose
/// fds close with it) and are REOPENED by the successor — the recovery path
/// production would take.
TrialResult RunFileCrashTrial(CrashPoint point, std::uint64_t k,
                              const std::string& wal_path,
                              const std::string& snap_path) {
  TrialResult result;
  ctrl::FaultInjector injector(7, ctrl::FaultProfile{});
  const journal::FileStorageOptions file_options;  // kGroupCommit default

  {
    auto wal_storage = journal::FileStorage::Open(wal_path, file_options);
    auto snapshot_storage = journal::FileStorage::Open(snap_path, file_options);
    if (!wal_storage.ok() || !snapshot_storage.ok()) return result;
    auto pod = FreshPod();
    auto shard = MakeShard(*pod, *wal_storage.value(), *snapshot_storage.value());
    shard->service().SetFaultInjector(&injector);
    if (!shard->Recover().ok()) return result;
    injector.ArmCrash(point, k);
    Serve(*shard);
    result.crashed = shard->service().crashed();
    // Process death: fds close, files stay.
  }

  auto wal_storage = journal::FileStorage::Open(wal_path, file_options);
  auto snapshot_storage = journal::FileStorage::Open(snap_path, file_options);
  if (!wal_storage.ok() || !snapshot_storage.ok()) return result;
  auto pod = FreshPod();
  auto shard = MakeShard(*pod, *wal_storage.value(), *snapshot_storage.value());
  shard->service().SetFaultInjector(&injector);
  auto recovery = shard->Recover();
  result.recovery_ok = recovery.ok();
  if (!recovery.ok()) return result;
  result.committed_after_crash = Committed(*shard);
  result.recovered_digest = shard->service().SerializeState();

  Serve(*shard);
  if (shard->service().crashed()) return result;
  result.final_digest = shard->service().SerializeState();
  result.invariants_ok = shard->service().scheduler().ValidateInvariants().ok();
  for (int i = 0; result.invariants_ok && i < pod->ocs_count(); ++i) {
    result.invariants_ok = pod->ocs(i).ValidateInvariants().ok();
  }
  return result;
}

TEST(CrashMatrixFile, EveryBoundaryEveryCrashPointOnRealFiles) {
  OracleDigests();  // build serially before fanning out
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  for (CrashPoint point : {CrashPoint::kPreAppend, CrashPoint::kPostAppendPreApply,
                           CrashPoint::kMidApply}) {
    auto results =
        common::parallel::ParallelMap(kCommands, [&](std::uint64_t i) {
          const std::string stem = "p" + std::to_string(static_cast<int>(point)) +
                                   "_" + std::to_string(i);
          return RunFileCrashTrial(point, i + 1, tmp.Path(stem + ".wal"),
                                   tmp.Path(stem + ".snap"));
        });
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      CheckTrial(point, i + 1, results[static_cast<std::size_t>(i)]);
    }
  }
}

/// Copies `image` over the file at `path` (the restore step of the tear
/// sweep: every tear offset starts from the same captured device image).
void RestoreImage(const std::string& path, const std::vector<std::uint8_t>& image) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
}

std::vector<std::uint8_t> CaptureImage(const journal::FileStorage& storage) {
  std::vector<std::uint8_t> image(storage.size());
  if (!image.empty()) storage.ReadAt(0, image.size(), image.data());
  return image;
}

TEST(CrashMatrixFile, TearingTheFinalAppendAtEveryByte) {
  // A power cut can stop the final append at ANY byte. For representative
  // command boundaries (first command, right after a snapshot/compaction
  // cycle, mid-run, last command — none a multiple of the snapshot interval,
  // so the final append is a plain record), tear at every byte k of that
  // append and require: recovery yields exactly the previous boundary,
  // byte-identical to the oracle; a partial tear is diagnosed as a clean
  // TRUNCATION (never corruption); resubmission converges on the oracle.
  OracleDigests();
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  for (const std::uint64_t boundary : {1ull, 17ull, 50ull, 157ull, 200ull}) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    // Run the first boundary-1 commands once; capture both device images.
    std::vector<std::uint8_t> wal_image;
    std::vector<std::uint8_t> snap_image;
    const std::string stem = "b" + std::to_string(boundary);
    {
      auto wal_storage = journal::FileStorage::Open(tmp.Path(stem + "_prefix.wal"));
      auto snapshot_storage = journal::FileStorage::Open(tmp.Path(stem + "_prefix.snap"));
      ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
      auto pod = FreshPod();
      auto shard = MakeShard(*pod, *wal_storage.value(), *snapshot_storage.value());
      ASSERT_TRUE(shard->Recover().ok());
      for (std::uint64_t i = 0; i + 1 < boundary; ++i) {
        ASSERT_EQ(ServeOne(*shard, i), 1u);
      }
      wal_image = CaptureImage(*wal_storage.value());
      snap_image = CaptureImage(*snapshot_storage.value());
    }
    // Discover the final append's frame size by running command `boundary`
    // once through a FaultyStorage observer.
    std::uint64_t frame = 0;
    {
      RestoreImage(tmp.Path("probe.wal"), wal_image);
      RestoreImage(tmp.Path("probe.snap"), snap_image);
      auto wal_storage = journal::FileStorage::Open(tmp.Path("probe.wal"));
      auto snapshot_storage = journal::FileStorage::Open(tmp.Path("probe.snap"));
      ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
      journal::FaultyStorage faulty(*wal_storage.value(),
                                    journal::FaultyStorage::SyncMode::kNever);
      auto pod = FreshPod();
      auto shard = MakeShard(*pod, faulty, *snapshot_storage.value());
      ASSERT_TRUE(shard->Recover().ok());
      ASSERT_EQ(ServeOne(*shard, boundary - 1), 1u);
      frame = faulty.final_append_bytes();
    }
    ASSERT_GT(frame, 0u);
    for (std::uint64_t keep = 0; keep <= frame; ++keep) {
      SCOPED_TRACE("keep " + std::to_string(keep) + " of " + std::to_string(frame));
      const std::string wal_path = tmp.Path("tear.wal");
      const std::string snap_path = tmp.Path("tear.snap");
      RestoreImage(wal_path, wal_image);
      RestoreImage(snap_path, snap_image);
      {
        auto wal_storage = journal::FileStorage::Open(wal_path);
        auto snapshot_storage = journal::FileStorage::Open(snap_path);
        ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
        journal::FaultyStorage faulty(*wal_storage.value(),
                                      journal::FaultyStorage::SyncMode::kNever);
        auto pod = FreshPod();
        auto shard = MakeShard(*pod, faulty, *snapshot_storage.value());
        ASSERT_TRUE(shard->Recover().ok());
        ASSERT_EQ(ServeOne(*shard, boundary - 1), 1u);
        faulty.CrashTearingFinalAppend(keep);
      }
      // The successor process.
      auto wal_storage = journal::FileStorage::Open(wal_path);
      auto snapshot_storage = journal::FileStorage::Open(snap_path);
      ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
      auto pod = FreshPod();
      auto shard = MakeShard(*pod, *wal_storage.value(), *snapshot_storage.value());
      auto recovery = shard->Recover();
      ASSERT_TRUE(recovery.ok());
      const std::uint64_t expected = keep == frame ? boundary : boundary - 1;
      EXPECT_EQ(Committed(*shard), expected);
      EXPECT_EQ(shard->service().SerializeState(), OracleDigests()[expected]);
      // Tail diagnosis: a tear strictly inside the append is a TRUNCATION
      // (the expected crash artifact); at either boundary the log is clean.
      if (keep == 0 || keep == frame) {
        EXPECT_TRUE(recovery.value().wal_clean);
        EXPECT_EQ(recovery.value().tail_truncations, 0u);
      } else {
        EXPECT_EQ(recovery.value().tail_truncations, 1u);
        EXPECT_GT(recovery.value().torn_bytes_discarded, 0u);
      }
      EXPECT_EQ(recovery.value().tail_corruptions, 0u)
          << "a torn append must never read as corruption";
      // Resubmission converges (spot-checked: the full-stream resume is the
      // expensive half of the trial).
      if (keep == 0 || keep == frame || keep == frame / 2) {
        Serve(*shard);
        ASSERT_FALSE(shard->service().crashed());
        EXPECT_EQ(shard->service().SerializeState(), OracleDigests()[kCommands]);
      }
    }
  }
}

TEST(FleetServiceFile, PeriodicPolicyLosesOnlyTheOpenSyncWindow) {
  // kPeriodic with a never-elapsing interval: appends are never fsynced, so
  // a power cut takes back EVERYTHING since the last durable event — which
  // is the snapshot/compaction cycle (snapshots replace atomically and
  // compaction truncates durably, under every policy). Commands past the
  // last snapshot vanish; the snapshot itself must survive.
  OracleDigests();
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  journal::FileStorageOptions periodic;
  periodic.policy = journal::SyncPolicy::kPeriodic;
  periodic.periodic_interval = std::chrono::milliseconds(3600 * 1000);
  constexpr std::uint64_t kRun = 40;          // snapshots at 16 and 32
  constexpr std::uint64_t kLastSnapshot = 32;  // MatrixOptions interval = 16
  {
    auto wal_storage = journal::FileStorage::Open(tmp.Path("window.wal"), periodic);
    auto snapshot_storage = journal::FileStorage::Open(tmp.Path("window.snap"));
    ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
    journal::FaultyStorage faulty(*wal_storage.value(),
                                  journal::FaultyStorage::SyncMode::kNever);
    auto pod = FreshPod();
    auto shard = MakeShard(*pod, faulty, *snapshot_storage.value());
    ASSERT_TRUE(shard->Recover().ok());
    for (std::uint64_t i = 0; i < kRun; ++i) {
      ASSERT_EQ(ServeOne(*shard, i), 1u);
    }
    // The appends after the last compaction were never fsynced under
    // kPeriodic (only the compactions' durable truncates were).
    EXPECT_LT(wal_storage.value()->fsync_count(), 5u);
    faulty.Crash();
  }
  auto wal_storage = journal::FileStorage::Open(tmp.Path("window.wal"), periodic);
  auto snapshot_storage = journal::FileStorage::Open(tmp.Path("window.snap"));
  ASSERT_TRUE(wal_storage.ok() && snapshot_storage.ok());
  auto pod = FreshPod();
  auto shard = MakeShard(*pod, *wal_storage.value(), *snapshot_storage.value());
  auto recovery = shard->Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery.value().snapshot_loaded) << "the snapshot survived the cut";
  EXPECT_EQ(Committed(*shard), kLastSnapshot);
  EXPECT_EQ(shard->service().SerializeState(), OracleDigests()[kLastSnapshot]);
  // The window loss is a CLEAN truncation story: the log rolls back to a
  // record boundary, so nothing reads as torn, let alone corrupt.
  EXPECT_TRUE(recovery.value().wal_clean);
  EXPECT_EQ(recovery.value().tail_corruptions, 0u);
  // Resubmitting the stream replays the lost window and converges.
  Serve(*shard);
  ASSERT_FALSE(shard->service().crashed());
  EXPECT_EQ(shard->service().SerializeState(), OracleDigests()[kCommands]);
}

TEST(FleetService, ServesStreamAndSnapshotsCompactTheLog) {
  auto pod = FreshPod();
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  telemetry::Hub hub;
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
  shard->AttachTelemetry(&hub);
  ASSERT_TRUE(shard->Recover().ok());
  EXPECT_EQ(Serve(*shard), kCommands);
  EXPECT_FALSE(shard->service().crashed());
  EXPECT_EQ(shard->service().next_command_id(0), kCommands + 1);
  EXPECT_EQ(shard->service().applied_seq(), kCommands);
  const auto& stats = shard->service().stats();
  EXPECT_EQ(stats.processed, kCommands);
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_GT(stats.released, 0u);
  EXPECT_GT(stats.rejected_apply, 0u);
  EXPECT_GT(stats.snapshots, 0u);
  // Compaction after each snapshot keeps the log to the post-snapshot
  // suffix.
  EXPECT_LT(journal::Wal::Scan(wal_storage).records.size(), kCommands);
  EXPECT_GT(shard->service().wal().reclaimed_bytes(), 0u);
  // The service and admission metrics are visible on the hub.
  auto& metrics = hub.metrics();
  EXPECT_EQ(metrics.GetCounter("lightwave_fleet_admitted_total", {{"shard", "0"}}).value(),
            kCommands);
  EXPECT_EQ(metrics.GetCounter("lightwave_svc_admitted_total").value(), stats.admitted);
  EXPECT_EQ(metrics.GetCounter("lightwave_svc_rejected_total", {{"reason", "apply"}})
                .value(),
            stats.rejected_apply);
  EXPECT_EQ(metrics.GetCounter("lightwave_journal_appends_total").value(), kCommands);
  EXPECT_GT(metrics.GetCounter("lightwave_journal_bytes_total").value(), 0u);
  EXPECT_EQ(metrics.GetGauge("lightwave_fleet_shard_queue_depth", {{"shard", "0"}}).value(),
            0.0);
}

TEST(FleetService, BackpressureRejectsWhenQueueFull) {
  auto pod = FreshPod();
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  telemetry::Hub hub;
  fleet::ShardOptions options = MatrixOptions();
  options.admission.per_tenant_queue_capacity = 2;
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage, options);
  shard->AttachTelemetry(&hub);
  ASSERT_TRUE(shard->Recover().ok());
  EXPECT_TRUE(shard->Offer(Stream().Command(0)).ok());
  EXPECT_TRUE(shard->Offer(Stream().Command(1)).ok());
  auto full = shard->Offer(Stream().Command(2));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, common::Error::Code::kResourceExhausted);
  EXPECT_EQ(shard->admission().stats().rejected_backpressure, 1u);
  EXPECT_EQ(hub.metrics()
                .GetCounter("lightwave_fleet_rejected_total",
                            {{"reason", "backpressure"}, {"shard", "0"}})
                .value(),
            1u);
  // Draining one slot re-opens admission.
  EXPECT_EQ(shard->PumpOnce(), 1u);
  EXPECT_TRUE(shard->Offer(Stream().Command(2)).ok());
}

TEST(FleetService, DuplicateAndGapSubmissions) {
  auto pod = FreshPod();
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
  ASSERT_TRUE(shard->Recover().ok());
  ASSERT_EQ(ServeOne(*shard, 0), 1u);
  // Resubmitting a committed command is acknowledged, not re-applied.
  EXPECT_EQ(ServeOne(*shard, 0), 0u);
  EXPECT_EQ(shard->stats().pipeline_duplicates, 1u);
  EXPECT_EQ(shard->service().applied_seq(), 1u);
  // Skipping ahead is a client bug: the journal stage drops and counts it.
  EXPECT_EQ(ServeOne(*shard, 5), 0u);
  EXPECT_EQ(shard->stats().pipeline_gaps, 1u);
  EXPECT_EQ(shard->service().applied_seq(), 1u);
  // The inline control path reports both to the caller.
  EXPECT_TRUE(shard->SubmitControl(Stream().Command(0)).ok());
  auto gap = shard->SubmitControl(Stream().Command(5));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error().code, common::Error::Code::kInvalidArgument);
  EXPECT_EQ(shard->service().applied_seq(), 1u);
}

/// A controller over one agent per switch in `switches`, agent i as OCS i.
std::unique_ptr<ctrl::FabricController> MakeController(
    ctrl::MessageBus& bus, std::vector<ocs::PalomarSwitch*> switches,
    std::vector<std::unique_ptr<ctrl::OcsAgent>>& agents) {
  auto controller = std::make_unique<ctrl::FabricController>(bus, 1);
  for (std::size_t i = 0; i < switches.size(); ++i) {
    agents.push_back(std::make_unique<ctrl::OcsAgent>(*switches[i]));
    controller->Register(static_cast<int>(i), agents.back().get());
  }
  return controller;
}

TEST(FleetService, ControllerStateRidesTheSnapshot) {
  // Build a controller with non-trivial health state (a tripped breaker),
  // bind it to the service, crash, and check the successor's controller
  // recovered the same breaker/counter state through the snapshot.

  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  std::vector<std::uint8_t> exported_before;
  {
    auto pod = FreshPod();
    ctrl::MessageBus bus(3);
    std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
    auto controller = MakeController(bus, {&pod->ocs(0), &pod->ocs(1)}, agents);
    // Trip agent 1's breaker by partitioning the bus mid-run.
    bus.PartitionAfter(0);
    for (int i = 0; i < 4; ++i) {
      (void)controller->ApplyTopology({{1, {{0, 100}}}});
    }
    bus.HealPartition();
    ASSERT_NE(controller->breaker_state(1), ctrl::BreakerState::kClosed);

    fleet::ShardOptions options = MatrixOptions();
    options.service.snapshot_interval = 1;  // snapshot every command
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage, options);
    shard->service().BindController(controller.get());
    ASSERT_TRUE(shard->Recover().ok());
    ASSERT_EQ(ServeOne(*shard, 0), 1u);
    ctrl::WireWriter writer;
    controller->ExportState(writer);
    exported_before = writer.Take();
  }

  auto pod = FreshPod();
  ctrl::MessageBus bus(3);
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
  auto controller = MakeController(bus, {&pod->ocs(0), &pod->ocs(1)}, agents);
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
  shard->service().BindController(controller.get());
  auto recovery = shard->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery.value().snapshot_loaded);
  EXPECT_NE(controller->breaker_state(1), ctrl::BreakerState::kClosed);
  ctrl::WireWriter writer;
  controller->ExportState(writer);
  EXPECT_EQ(writer.buffer(), exported_before);
}

/// A fresh pod, controller and shard recovering from a snapshot that holds
/// `state` (nothing recovered when `state` is empty).
struct ControlledRecovery {
  std::unique_ptr<tpu::Superpod> pod = FreshPod();
  ctrl::MessageBus bus{3};
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
  std::unique_ptr<ctrl::FabricController> controller =
      MakeController(bus, {&pod->ocs(0), &pod->ocs(1)}, agents);
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  std::unique_ptr<fleet::Shard> shard;
  common::Status recovered;

  explicit ControlledRecovery(const std::vector<std::uint8_t>& state) {
    if (!state.empty()) {
      EXPECT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 8, state).ok());
    }
    shard = MakeShard(*pod, wal_storage, snapshot_storage);
    shard->service().BindController(controller.get());
    auto recovery = shard->Recover();
    if (!recovery.ok()) recovered = recovery.error();
  }

  int Circuits() const {
    int count = 0;
    for (int i = 0; i < pod->ocs_count(); ++i) count += pod->ocs(i).ConnectionCount();
    return count;
  }
};

TEST(FleetService, FailedStateImportLeavesThePodEmpty) {
  // Every section of a snapshot state decodes into plain values, and the
  // trailing-byte check runs, before the pod is touched: a controller
  // section cut at any length, or one byte appended, fails Recover with no
  // slice and no circuit on the pod and the state of a fresh service.
  std::vector<std::uint8_t> state;
  std::size_t controller_bytes = 0;
  {
    auto pod = FreshPod();
    ctrl::MessageBus bus(3);
    std::vector<std::unique_ptr<ctrl::OcsAgent>> agents;
    auto controller = MakeController(bus, {&pod->ocs(0), &pod->ocs(1)}, agents);
    journal::MemStorage wal_storage;
    journal::MemStorage snapshot_storage;
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
    shard->service().BindController(controller.get());
    ASSERT_TRUE(shard->Recover().ok());
    for (std::uint64_t i = 0; i < 8; ++i) ASSERT_EQ(ServeOne(*shard, i), 1u);
    ASSERT_FALSE(pod->slices().empty());
    state = shard->service().SerializeState();
    ctrl::WireWriter writer;
    controller->ExportState(writer);
    controller_bytes = writer.buffer().size();
  }
  const std::vector<std::uint8_t> fresh_state =
      ControlledRecovery({}).shard->service().SerializeState();

  std::vector<std::vector<std::uint8_t>> damaged;
  for (std::size_t len = state.size() - controller_bytes; len < state.size(); ++len) {
    damaged.emplace_back(state.begin(), state.begin() + static_cast<long>(len));
  }
  damaged.push_back(state);
  damaged.back().push_back(0);
  for (const std::vector<std::uint8_t>& bytes : damaged) {
    SCOPED_TRACE("state of " + std::to_string(bytes.size()) + " of " +
                 std::to_string(state.size()) + " bytes");
    ControlledRecovery recovery(bytes);
    EXPECT_FALSE(recovery.recovered.ok());
    EXPECT_TRUE(recovery.pod->slices().empty());
    EXPECT_EQ(recovery.Circuits(), 0);
    EXPECT_EQ(recovery.shard->service().SerializeState(), fresh_state);
  }
  // Whole, the same state recovers every slice.
  ControlledRecovery whole(state);
  ASSERT_TRUE(whole.recovered.ok()) << whole.recovered.error().message;
  EXPECT_FALSE(whole.pod->slices().empty());
  EXPECT_GT(whole.Circuits(), 0);
  EXPECT_EQ(whole.shard->service().SerializeState(), state);
}

TEST(FleetService, CrashPointVisitAccounting) {
  auto pod = FreshPod();
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  ctrl::FaultInjector injector(7, ctrl::FaultProfile{});
  auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
  shard->service().SetFaultInjector(&injector);
  ASSERT_TRUE(shard->Recover().ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(ServeOne(*shard, i), 1u);
  }
  // Every processed command visits each crash point exactly once — the
  // matrix's "crash at command k" arithmetic depends on it.
  EXPECT_EQ(injector.crash_point_visits(CrashPoint::kPreAppend), 10u);
  EXPECT_EQ(injector.crash_point_visits(CrashPoint::kPostAppendPreApply), 10u);
  EXPECT_EQ(injector.crash_point_visits(CrashPoint::kMidApply), 10u);
  EXPECT_EQ(injector.crashes_fired(), 0u);
}

/// Service state in SerializeState's layout, with one entry naming `tenant`
/// in table `table` (0 frontiers, 1 live jobs, 2 prepared transactions),
/// over an empty scheduler and no controller.
std::vector<std::uint8_t> StateNamingTenant(int table, std::uint64_t tenant) {
  ctrl::WireWriter writer;
  writer.PutVarint(table == 0 ? 1 : 0);
  if (table == 0) {
    writer.PutVarint(tenant);
    writer.PutU64(42);  // next command id
  }
  writer.PutVarint(table == 1 ? 1 : 0);
  if (table == 1) {
    writer.PutVarint(tenant);
    writer.PutVarint(7);  // job id
    writer.PutU64(3);     // slice id
  }
  writer.PutVarint(table == 2 ? 1 : 0);
  if (table == 2) {
    writer.PutVarint(9);  // txn id
    writer.PutVarint(tenant);
    writer.PutVarint(7);  // job id
    writer.PutU8(1);      // voted yes
    writer.PutU64(3);     // slice id
  }
  writer.PutVarint(0);  // decided transactions
  writer.PutVarint(9);  // highest txn id seen
  auto pod = FreshPod();
  core::SliceScheduler(*pod, core::AllocationPolicy::kReconfigurable).ExportState(writer);
  writer.PutU8(0);  // no controller state
  return writer.Take();
}

TEST(FleetService, RecoverRejectsTenantIdsBeyond32Bits) {
  constexpr std::uint64_t kWrapsToFive = (std::uint64_t{1} << 32) + 5;
  std::vector<std::uint8_t> fresh_state;
  {
    auto pod = FreshPod();
    journal::MemStorage wal_storage;
    journal::MemStorage snapshot_storage;
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
    ASSERT_TRUE(shard->Recover().ok());
    fresh_state = shard->service().SerializeState();
  }
  for (int table = 0; table < 3; ++table) {
    SCOPED_TRACE("table " + std::to_string(table));
    {
      // A snapshot naming tenant 2^32+5 must not recover as tenant 5.
      auto pod = FreshPod();
      journal::MemStorage wal_storage;
      journal::MemStorage snapshot_storage;
      ASSERT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 3,
                                                 StateNamingTenant(table, kWrapsToFive))
                      .ok());
      auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
      auto recovery = shard->Recover();
      EXPECT_FALSE(recovery.ok()) << "tenant 2^32+5 recovered";
      if (!recovery.ok()) {
        EXPECT_EQ(recovery.error().code, common::Error::Code::kInternal);
      }
      EXPECT_EQ(shard->service().next_command_id(5), 1u);
      EXPECT_EQ(shard->service().SerializeState(), fresh_state);
    }
    // The same state naming tenant 5 recovers and re-serializes unchanged.
    auto pod = FreshPod();
    journal::MemStorage wal_storage;
    journal::MemStorage snapshot_storage;
    const std::vector<std::uint8_t> state = StateNamingTenant(table, 5);
    ASSERT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 3, state).ok());
    auto shard = MakeShard(*pod, wal_storage, snapshot_storage);
    auto recovery = shard->Recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().message;
    EXPECT_EQ(shard->service().SerializeState(), state);
    EXPECT_EQ(shard->service().next_command_id(5), table == 0 ? 42u : 1u);
  }
}

}  // namespace
}  // namespace lightwave
