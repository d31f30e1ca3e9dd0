// Sharded fleet tests (CTest label `recovery`): the per-shard batch-boundary
// crash matrix on a sync shard and on a pipelined (two-thread) shard
// (group commit + multi-tenant streams, byte-identical recovery),
// quota/fairness isolation, duplicate and gap handling across batch and
// shard boundaries, circuit-breaker-driven re-hashing, cross-shard
// two-phase commit with in-doubt resolution, exporter visibility of the
// fleet metrics, a pipelined shard stress run that must be clean under
// TSan, three pipelined shards installing slices over the one thread pool
// at once, and a recovered pod matching the served pod circuit for circuit
// and loss for loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "journal/file_storage.h"
#include "storage_test_util.h"
#include "core/scheduler.h"
#include "ctrl/controller.h"
#include "ctrl/fault_injector.h"
#include "ctrl/wire.h"
#include "fleet/admission.h"
#include "fleet/router.h"
#include "fleet/shard.h"
#include "journal/storage.h"
#include "svc/fleet_service.h"
#include "svc/request_stream.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "tpu/superpod.h"

namespace lightwave {
namespace {

using ctrl::CrashPoint;

constexpr std::uint64_t kPodSeed = 91;
constexpr std::uint64_t kStreamSeed = 4242;
constexpr std::uint64_t kCommands = 200;
constexpr std::size_t kBatch = 8;  // kCommands must divide evenly
constexpr std::uint32_t kTenants = 5;
constexpr int kPodCubes = 8;
constexpr int kOcsPerDim = 2;

// FNV-1a 64 of the recovered 8-shard digest in
// FileBackedRecoverAllDeterministicAcrossThreadCounts: serving and recovery
// must keep producing exactly the state this trace has always reached.
constexpr std::uint64_t kRecoveredFleetFnv = 0xae179b094ab5ee32ull;

std::uint64_t Fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Batches of kBatch, several snapshot/compaction cycles per run, and
/// quotas that never bind: a resume re-offers the whole stream.
fleet::ShardOptions MatrixOptions() {
  fleet::ShardOptions options;
  options.batch_size = kBatch;
  options.service.snapshot_interval = 16;
  options.admission.default_quota = fleet::TenantQuota{1e9, 1e9, 1.0};
  options.admission.per_tenant_queue_capacity = kCommands;
  return options;
}

/// A pipelined shard whose handoff fills behind a slower apply thread.
fleet::ShardOptions PipelinedOptions() {
  fleet::ShardOptions options = MatrixOptions();
  options.pipeline_depth = 2;
  return options;
}

std::unique_ptr<tpu::Superpod> FreshPod() {
  return std::make_unique<tpu::Superpod>(kPodSeed, kPodCubes, kOcsPerDim);
}

/// Multi-tenant skewed trace: 5 tenants, Zipf 0.9, per-tenant dense ids.
const svc::RequestStream& Stream() {
  static const svc::RequestStream stream(kStreamSeed, kCommands, [] {
    svc::RequestStreamConfig config;
    config.tenant_count = kTenants;
    config.zipf_skew = 0.9;
    return config;
  }());
  return stream;
}

// ---------------------------------------------------------------------------
// Shard harness: one pod + two storages + a Shard, rebuildable over the same
// media (crash simulation).

struct ShardHarness {
  int pod_cubes;
  int ocs_per_dim;
  std::unique_ptr<tpu::Superpod> pod;
  journal::MemStorage wal;
  journal::MemStorage snapshot;
  std::unique_ptr<fleet::Shard> shard;

  explicit ShardHarness(std::uint32_t id, fleet::ShardOptions options = {},
                        std::uint64_t pod_seed = kPodSeed, int pod_cubes = kPodCubes,
                        int ocs_per_dim = kOcsPerDim)
      : pod_cubes(pod_cubes), ocs_per_dim(ocs_per_dim) {
    Reincarnate(id, options, pod_seed);
  }

  /// Simulated crash: the shard and pod die; the storages survive.
  void Reincarnate(std::uint32_t id, fleet::ShardOptions options = {},
                   std::uint64_t pod_seed = kPodSeed) {
    shard.reset();
    pod = std::make_unique<tpu::Superpod>(pod_seed, pod_cubes, ocs_per_dim);
    shard = std::make_unique<fleet::Shard>(id, *pod, core::AllocationPolicy::kReconfigurable,
                                           wal, snapshot, options);
  }
};

/// Offers stream commands [begin, end) to `shard`.
void OfferRange(fleet::Shard& shard, std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t i = begin; i < end; ++i) {
    ASSERT_TRUE(shard.Offer(Stream().Command(i)).ok());
  }
}

/// Drives the stream through a sync shard window by window: offer the next
/// kBatch commands, then pump once. Blind resubmission from index 0 every
/// time: on a resume, re-offered windows pop and filter as duplicates,
/// which replays admission's DRR state, so every later batch matches the
/// first run's.
void DriveBatched(fleet::Shard& shard) {
  for (std::uint64_t w = 0; w < kCommands && !shard.service().crashed(); w += kBatch) {
    OfferRange(shard, w, w + kBatch);
    shard.PumpOnce();
  }
}

std::uint64_t CommittedCount(const svc::FleetService& service) {
  std::uint64_t total = 0;
  for (std::uint32_t tenant : service.tenants()) {
    total += service.next_command_id(tenant) - 1;
  }
  return total;
}

using DigestsByCount = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/// Oracle digests: state bytes after each committed batch boundary, from
/// one uneventful batched run. Key = total committed commands.
const DigestsByCount& OracleDigests() {
  static const auto digests = [] {
    DigestsByCount out;
    ShardHarness h(0, MatrixOptions());
    EXPECT_TRUE(h.shard->Recover().ok());
    out[0] = h.shard->service().SerializeState();
    for (std::uint64_t w = 0; w < kCommands; w += kBatch) {
      OfferRange(*h.shard, w, w + kBatch);
      EXPECT_EQ(h.shard->PumpOnce(), kBatch);
      out[CommittedCount(h.shard->service())] = h.shard->service().SerializeState();
    }
    EXPECT_EQ(out.rbegin()->first, kCommands);
    return out;
  }();
  return digests;
}

struct TrialResult {
  bool crashed = false;
  bool recovery_ok = false;
  std::uint64_t committed_after_crash = 0;
  std::vector<std::uint8_t> recovered_digest;
  std::vector<std::uint8_t> final_digest;
  bool invariants_ok = false;
};

/// One matrix cell: crash at the k-th visit of `point`, recover a successor
/// over the same durable media, resume, finish the stream.
TrialResult RunCrashTrial(CrashPoint point, std::uint64_t k) {
  TrialResult result;
  ctrl::FaultInjector injector(7, ctrl::FaultProfile{});
  ShardHarness h(0, MatrixOptions());
  h.shard->service().SetFaultInjector(&injector);
  if (!h.shard->Recover().ok()) return result;
  injector.ArmCrash(point, k);
  DriveBatched(*h.shard);
  result.crashed = h.shard->service().crashed();

  // The pod and shard die here; only the two storages survive.
  h.Reincarnate(0, MatrixOptions());
  auto recovery = h.shard->Recover();
  result.recovery_ok = recovery.ok();
  if (!recovery.ok()) return result;
  result.committed_after_crash = CommittedCount(h.shard->service());
  result.recovered_digest = h.shard->service().SerializeState();

  DriveBatched(*h.shard);
  result.final_digest = h.shard->service().SerializeState();
  result.invariants_ok = h.shard->service().scheduler().ValidateInvariants().ok();
  return result;
}

void CheckTrial(CrashPoint point, std::uint64_t k, std::uint64_t expected_committed,
                const TrialResult& result) {
  SCOPED_TRACE("crash point " + std::string(ctrl::ToString(point)) + " visit " +
               std::to_string(k));
  ASSERT_TRUE(result.crashed);
  ASSERT_TRUE(result.recovery_ok);
  // Group-commit durability: a batch is journaled atomically, so a crash
  // before the append loses the whole (unacknowledged) batch and a crash
  // after it loses nothing — even mid-apply, where the remaining commands
  // of the batch recover from the journal.
  EXPECT_EQ(result.committed_after_crash, expected_committed);
  EXPECT_EQ(result.recovered_digest, OracleDigests().at(expected_committed));
  EXPECT_EQ(result.final_digest, OracleDigests().at(kCommands));
  EXPECT_TRUE(result.invariants_ok);
}

TEST(FleetCrashMatrix, BatchBoundariesRecoverByteIdentical) {
  OracleDigests();  // build serially before fanning out
  const std::uint64_t batches = kCommands / kBatch;
  // kPreAppend / kPostAppendPreApply fire once per batch.
  for (CrashPoint point : {CrashPoint::kPreAppend, CrashPoint::kPostAppendPreApply}) {
    auto results = common::parallel::ParallelMap(
        batches, [&](std::uint64_t i) { return RunCrashTrial(point, i + 1); });
    for (std::uint64_t v = 1; v <= batches; ++v) {
      const std::uint64_t expected =
          point == CrashPoint::kPreAppend ? (v - 1) * kBatch : v * kBatch;
      CheckTrial(point, v, expected, results[static_cast<std::size_t>(v - 1)]);
    }
  }
  // kMidApply fires once per applied command; the containing batch is
  // already durable, so recovery completes it.
  auto results = common::parallel::ParallelMap(kCommands, [&](std::uint64_t i) {
    return RunCrashTrial(CrashPoint::kMidApply, i + 1);
  });
  for (std::uint64_t j = 1; j <= kCommands; ++j) {
    const std::uint64_t expected = ((j + kBatch - 1) / kBatch) * kBatch;
    CheckTrial(CrashPoint::kMidApply, j, expected,
               results[static_cast<std::size_t>(j - 1)]);
  }
}

svc::SliceCommand Admit(std::uint32_t tenant, std::uint64_t id, int cubes = 1) {
  svc::SliceCommand cmd;
  cmd.command_id = id;
  cmd.tenant_id = tenant;
  cmd.kind = svc::CommandKind::kAdmit;
  cmd.job_id = id;
  cmd.shape = cubes == 8 ? tpu::SliceShape{2, 2, 2}
              : cubes == 2 ? tpu::SliceShape{1, 1, 2}
                           : tpu::SliceShape{1, 1, 1};
  return cmd;
}

svc::SliceCommand Release(std::uint32_t tenant, std::uint64_t id, std::uint64_t job) {
  svc::SliceCommand cmd;
  cmd.command_id = id;
  cmd.tenant_id = tenant;
  cmd.kind = svc::CommandKind::kRelease;
  cmd.job_id = job;
  return cmd;
}

TEST(FleetAdmission, QuotaExhaustionMidBatchRetriesCleanly) {
  fleet::ShardOptions options;
  options.batch_size = kBatch;
  options.admission.default_quota = fleet::TenantQuota{5.0, 5.0, 1.0};
  ShardHarness h(0, options);
  ASSERT_TRUE(h.shard->Recover().ok());

  // Ten commands against a burst of five: the bucket dries up mid-batch.
  std::uint64_t accepted = 0;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    auto offered = h.shard->Offer(Admit(7, id));
    if (id <= 5) {
      EXPECT_TRUE(offered.ok());
      ++accepted;
    } else {
      ASSERT_FALSE(offered.ok());
      EXPECT_EQ(offered.error().code, common::Error::Code::kResourceExhausted);
    }
  }
  EXPECT_EQ(h.shard->admission().stats().rejected_quota, 5u);
  EXPECT_EQ(h.shard->PumpAll(), accepted);
  EXPECT_EQ(h.shard->service().next_command_id(7), 6u);

  // The client retries the REJECTED ids after a refill — same ids, so the
  // dense per-tenant sequence heals with no gap and nothing applies twice.
  h.shard->Tick(1.0);
  for (std::uint64_t id = 6; id <= 10; ++id) {
    EXPECT_TRUE(h.shard->Offer(Admit(7, id)).ok());
  }
  h.shard->PumpAll();
  EXPECT_EQ(h.shard->service().next_command_id(7), 11u);
  EXPECT_EQ(h.shard->service().stats().processed, 10u);
  EXPECT_EQ(h.shard->stats().pipeline_duplicates, 0u);
}

TEST(FleetAdmission, MisbehavingTenantCannotStarveCompliantTenant) {
  constexpr std::uint64_t kQuotaRate = 20;
  constexpr int kRounds = 50;
  fleet::ShardOptions options;
  options.batch_size = 16;
  options.admission.default_quota =
      fleet::TenantQuota{static_cast<double>(kQuotaRate), static_cast<double>(kQuotaRate), 1.0};
  options.admission.per_tenant_queue_capacity = 64;
  ShardHarness h(0, options);
  ASSERT_TRUE(h.shard->Recover().ok());

  // Tenant 1 floods at 10x its quota; tenant 2 stays exactly at quota.
  std::uint64_t next_id[2] = {1, 1};
  std::uint64_t rejects[2] = {0, 0};
  for (int round = 0; round < kRounds; ++round) {
    h.shard->Tick(1.0);
    for (std::uint64_t k = 0; k < 10 * kQuotaRate; ++k) {
      if (h.shard->Offer(Admit(1, next_id[0])).ok()) {
        ++next_id[0];
      } else {
        ++rejects[0];  // rejected command keeps its id for the retry
      }
    }
    for (std::uint64_t k = 0; k < kQuotaRate; ++k) {
      if (h.shard->Offer(Admit(2, next_id[1])).ok()) {
        ++next_id[1];
      } else {
        ++rejects[1];
      }
    }
    h.shard->PumpAll();
  }
  // The fairness contract of the ISSUE: the flood hurts only the flooder.
  EXPECT_EQ(rejects[1], 0u);
  EXPECT_GT(rejects[0], 0u);
  EXPECT_EQ(h.shard->service().next_command_id(2), kQuotaRate * kRounds + 1);
  // The flooder still gets its full quota-bounded share, nothing more.
  EXPECT_LE(next_id[0] - 1, kQuotaRate * (kRounds + 1));
  EXPECT_GE(next_id[0] - 1, kQuotaRate * kRounds);
}

TEST(FleetAdmission, WeightedTenantsShareEachRoundOneToThree) {
  fleet::AdmissionQueue queue;
  queue.SetQuota(1, fleet::TenantQuota{64.0, 64.0, 1.0});
  queue.SetQuota(2, fleet::TenantQuota{64.0, 64.0, 3.0});
  for (std::uint64_t id = 1; id <= 64; ++id) {
    ASSERT_TRUE(queue.Offer(Admit(1, id)).ok());
    ASSERT_TRUE(queue.Offer(Admit(2, id)).ok());
  }
  // One 32-command batch is one whole DRR round: quantum 8 per unit weight.
  std::uint64_t next_id[3] = {0, 1, 1};
  for (int batch = 0; batch < 2; ++batch) {
    const auto popped = queue.PopBatch(32);
    ASSERT_EQ(popped.size(), 32u);
    std::size_t served[3] = {0, 0, 0};
    for (const auto& cmd : popped) {
      ASSERT_TRUE(cmd.tenant_id == 1 || cmd.tenant_id == 2);
      EXPECT_EQ(cmd.command_id, next_id[cmd.tenant_id]++);  // FIFO per tenant
      ++served[cmd.tenant_id];
    }
    EXPECT_EQ(served[1], 8u) << "batch " << batch;
    EXPECT_EQ(served[2], 24u) << "batch " << batch;
  }
}

TEST(FleetAdmission, SetQuotaRefillsBucketToNewBurst) {
  fleet::AdmissionOptions options;
  options.default_quota = fleet::TenantQuota{0.0, 1.0, 1.0};
  fleet::AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Offer(Admit(7, 1)).ok());
  ASSERT_FALSE(queue.Offer(Admit(7, 2)).ok());  // the burst-1 bucket is dry

  queue.SetQuota(7, fleet::TenantQuota{0.0, 2.0, 1.0});
  EXPECT_TRUE(queue.Offer(Admit(7, 2)).ok());
  EXPECT_TRUE(queue.Offer(Admit(7, 3)).ok());
  const auto refused = queue.Offer(Admit(7, 4));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, common::Error::Code::kResourceExhausted);
  EXPECT_NE(refused.error().message.find("over quota"), std::string::npos)
      << refused.error().message;
}

TEST(FleetAdmission, DefaultQuotaIsCheckedLikeSetQuota) {
  std::vector<common::CheckFailure> failures;
  common::ScopedCheckHandler handler(
      [&failures](const common::CheckFailure& failure) { failures.push_back(failure); });
  fleet::AdmissionOptions options;
  options.default_quota.weight = 0.0;
  const fleet::AdmissionQueue queue(options);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].kind, common::CheckKind::kCheck);
  EXPECT_NE(failures[0].message.find("malformed default quota"), std::string::npos)
      << failures[0].message;
}

TEST(FleetAdmission, FractionalWeightStillPopsEveryQueuedCommand) {
  // Quantum x weight = 0.8 < 1: the first round serves nobody, and PopBatch
  // must skip ahead instead of returning an empty batch.
  fleet::AdmissionQueue queue;
  queue.SetQuota(7, fleet::TenantQuota{64.0, 64.0, 0.1});
  for (std::uint64_t id = 1; id <= 3; ++id) ASSERT_TRUE(queue.Offer(Admit(7, id)).ok());
  const auto popped = queue.PopBatch(32);
  ASSERT_EQ(popped.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(popped[i].command_id, i + 1);
  EXPECT_EQ(queue.Depth(), 0u);
}

TEST(FleetAdmission, SyncShardWithFractionalDefaultWeightApplies) {
  fleet::ShardOptions options;
  options.admission.default_quota.weight = 0.1;
  ShardHarness h(0, options);
  ASSERT_TRUE(h.shard->Recover().ok());
  ASSERT_TRUE(h.shard->Offer(Admit(7, 1)).ok());
  EXPECT_EQ(h.shard->PumpOnce(), 1u);
  EXPECT_EQ(h.shard->service().next_command_id(7), 2u);
}

TEST(FleetService, DuplicateStraddlingBatchBoundaryAppliesOnce) {
  auto run = [](bool with_duplicates) {
    fleet::ShardOptions options;
    options.batch_size = 4;
    ShardHarness h(0, options);
    EXPECT_TRUE(h.shard->Recover().ok());
    for (std::uint64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE(h.shard->Offer(Admit(3, id)).ok());
    }
    EXPECT_EQ(h.shard->PumpOnce(), 4u);
    if (with_duplicates) {
      // A client that never saw batch 1's acks resubmits its tail along
      // with new work: ids 3 and 4 straddle the committed batch boundary.
      EXPECT_TRUE(h.shard->Offer(Admit(3, 3)).ok());
      EXPECT_TRUE(h.shard->Offer(Admit(3, 4)).ok());
    }
    EXPECT_TRUE(h.shard->Offer(Admit(3, 5)).ok());
    EXPECT_TRUE(h.shard->Offer(Release(3, 6, 2)).ok());
    EXPECT_EQ(h.shard->PumpOnce(), 2u);  // only the two new commands ran
    EXPECT_EQ(h.shard->stats().pipeline_duplicates, with_duplicates ? 2u : 0u);
    EXPECT_EQ(h.shard->service().stats().processed, 6u);
    EXPECT_EQ(h.shard->service().next_command_id(3), 7u);
    EXPECT_EQ(h.shard->service().wal().batch_appends(), 2u);
    return h.shard->service().SerializeState();
  };
  // Byte-identity: the duplicate-laden run converges on the clean run.
  EXPECT_EQ(run(true), run(false));
}

TEST(FleetService, OversizedShapeRejectsAndRecovers) {
  // 65536 x 65536 x 1 cubes overflows an int cube count. The shard journals
  // the command before applying it, so the rejection must be deterministic
  // for every later recovery to replay it.
  ShardHarness h(0);
  ASSERT_TRUE(h.shard->Recover().ok());
  svc::SliceCommand oversized = Admit(3, 1);
  oversized.shape = tpu::SliceShape{65536, 65536, 1};
  ASSERT_TRUE(h.shard->Offer(oversized).ok());
  ASSERT_TRUE(h.shard->Offer(Admit(3, 2)).ok());
  EXPECT_EQ(h.shard->PumpAll(), 2u);
  EXPECT_EQ(h.shard->service().stats().rejected_apply, 1u);
  EXPECT_EQ(h.shard->service().stats().admitted, 1u);
  EXPECT_EQ(h.shard->service().scheduler().stats().rejected, 1u);
  const auto state = h.shard->service().SerializeState();

  h.Reincarnate(0);
  const auto recovered = h.shard->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().records_replayed, 2u);
  EXPECT_EQ(h.shard->service().SerializeState(), state);
}

// ---------------------------------------------------------------------------
// Router: hashing, health, relocation, 2PC.

TEST(FleetRouter, ConsistentHashingIsStableAndCompleteOverTenants) {
  ShardHarness a(0), b(1), c(2);
  fleet::Router router;
  router.AddShard(a.shard.get());
  router.AddShard(b.shard.get());
  router.AddShard(c.shard.get());
  std::map<std::uint32_t, int> load;
  for (std::uint32_t tenant = 0; tenant < 300; ++tenant) {
    auto first = router.ShardFor(tenant);
    ASSERT_TRUE(first.ok());
    auto second = router.ShardFor(tenant);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value());  // stable
    ++load[first.value()];
  }
  // Every shard owns a non-trivial arc (virtual nodes smooth the ring).
  for (std::uint32_t id : {0u, 1u, 2u}) EXPECT_GT(load[id], 30) << "shard " << id;
  // Marking one shard unhealthy relocates ONLY its tenants.
  std::map<std::uint32_t, std::uint32_t> before;
  for (std::uint32_t tenant = 0; tenant < 300; ++tenant) {
    before[tenant] = router.ShardFor(tenant).value();
  }
  router.SetShardHealth(1, false);
  for (std::uint32_t tenant = 0; tenant < 300; ++tenant) {
    auto after = router.ShardFor(tenant);
    ASSERT_TRUE(after.ok());
    EXPECT_NE(after.value(), 1u);
    if (before[tenant] != 1) {
      EXPECT_EQ(after.value(), before[tenant]);
    }
  }
}

TEST(FleetRouter, TenantGapDetectedAfterRelocation) {
  ShardHarness a(0), b(1);
  fleet::Router router;
  router.AddShard(a.shard.get());
  router.AddShard(b.shard.get());
  ASSERT_TRUE(router.RecoverAll().ok());

  // A tenant homed on shard 0 while both shards are healthy.
  std::uint32_t tenant = 0;
  while (router.ShardFor(tenant).value() != 0) ++tenant;

  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(router.Submit(Admit(tenant, id)).ok());
  }
  router.PumpAll();
  EXPECT_EQ(a.shard->service().next_command_id(tenant), 6u);

  // Shard 0 goes unhealthy; the tenant re-hashes to shard 1, whose view of
  // the tenant starts at command 1 — the tenant's id-6 resume surfaces as a
  // GAP on the new shard (its history did not move), not as silent loss.
  router.SetShardHealth(0, false);
  ASSERT_EQ(router.ShardFor(tenant).value(), 1u);
  ASSERT_TRUE(router.Submit(Admit(tenant, 6)).ok());
  router.PumpAll();
  EXPECT_EQ(b.shard->stats().pipeline_gaps, 1u);
  EXPECT_EQ(b.shard->service().next_command_id(tenant), 1u);
  EXPECT_GT(router.stats().rerouted, 0u);

  // The tenant restarts its dense sequence against the new shard.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(router.Submit(Admit(tenant, id)).ok());
  }
  router.PumpAll();
  EXPECT_EQ(b.shard->service().next_command_id(tenant), 4u);
}

TEST(FleetRouter, BreakerTripRehashesTenants) {
  ShardHarness a(0), b(1);
  fleet::Router router;
  router.AddShard(a.shard.get());
  router.AddShard(b.shard.get());

  // Shard 0's fabric controller (PR 4): a partitioned control bus trips the
  // circuit breaker on its OCS.
  ctrl::MessageBus bus(3);
  ctrl::FabricController controller(bus, 1);
  ctrl::OcsAgent agent(a.pod->ocs(0));
  controller.Register(0, &agent);

  router.SyncBreaker(0, controller, 0);
  EXPECT_TRUE(router.ShardHealthy(0));

  std::uint32_t tenant = 0;
  while (router.ShardFor(tenant).value() != 0) ++tenant;

  bus.PartitionAfter(0);
  for (int i = 0; i < 4; ++i) (void)controller.ApplyTopology({{0, {{0, 100}}}});
  ASSERT_EQ(controller.breaker_state(0), ctrl::BreakerState::kOpen);

  // The router reads the breaker and routes around the dark shard.
  router.SyncBreaker(0, controller, 0);
  EXPECT_FALSE(router.ShardHealthy(0));
  EXPECT_EQ(router.ShardFor(tenant).value(), 1u);
}

TEST(FleetRouter, CrossShardAdmitCommitsEverywhereOrNowhere) {
  ShardHarness a(0), b(1);
  fleet::Router router;
  router.AddShard(a.shard.get());
  router.AddShard(b.shard.get());
  ASSERT_TRUE(router.RecoverAll().ok());

  // Commit path: both shards can place a cube -> unanimous yes.
  auto committed = router.CrossShardAdmit(500, tpu::SliceShape{1, 1, 1}, {0, 1});
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(a.shard->service().live_jobs(), 1u);
  EXPECT_EQ(b.shard->service().live_jobs(), 1u);
  EXPECT_EQ(a.shard->service().txn_decision(committed.value()),
            svc::TxnDecision::kCommitted);

  // Abort path: fill shard 1's remaining 7 cubes, so it votes no; shard 0's
  // yes-reservation must be rolled back, not leaked.
  for (std::uint64_t id = 1; id <= 7; ++id) {
    ASSERT_TRUE(b.shard->Offer(Admit(9, id)).ok());
  }
  b.shard->PumpAll();
  ASSERT_EQ(b.shard->service().live_jobs(), 8u);
  auto aborted = router.CrossShardAdmit(501, tpu::SliceShape{1, 1, 1}, {0, 1});
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.error().code, common::Error::Code::kResourceExhausted);
  EXPECT_EQ(router.stats().txns_aborted, 1u);
  EXPECT_EQ(a.shard->service().live_jobs(), 1u);
  EXPECT_EQ(b.shard->service().live_jobs(), 8u);

  // Free one cube on shard 1 and retry: succeeds only if the aborted
  // reservation on shard 0 was actually released.
  ASSERT_TRUE(b.shard->Offer(Release(9, 8, 1)).ok());
  b.shard->PumpAll();
  auto retried = router.CrossShardAdmit(502, tpu::SliceShape{1, 1, 1}, {0, 1});
  ASSERT_TRUE(retried.ok()) << retried.error().message;
  EXPECT_GT(retried.value(), committed.value());
  EXPECT_EQ(a.shard->service().live_jobs(), 2u);
  EXPECT_EQ(b.shard->service().live_jobs(), 8u);
}

TEST(FleetRouter, InDoubtTxnsResolveByPresumedAbortUnlessCommitRecorded) {
  fleet::ShardOptions options;
  ShardHarness a(0, options), b(1, options);
  constexpr std::uint64_t kTxnAbort = 9;
  constexpr std::uint64_t kTxnCommit = 10;
  {
    fleet::Router router;
    router.AddShard(a.shard.get());
    router.AddShard(b.shard.get());
    ASSERT_TRUE(router.RecoverAll().ok());
    // Hand-roll a coordinator crash: txn 9 prepared on both shards but
    // never decided; txn 10 prepared on both and committed on shard 0 only.
    auto control = [](std::uint64_t id, svc::CommandKind kind, std::uint64_t job,
                      std::uint64_t txn) {
      svc::SliceCommand cmd;
      cmd.command_id = id;
      cmd.tenant_id = fleet::kControlTenant;
      cmd.kind = kind;
      cmd.job_id = job;
      cmd.txn_id = txn;
      cmd.shape = tpu::SliceShape{1, 1, 2};
      return cmd;
    };
    ASSERT_TRUE(a.shard->SubmitControl(control(1, svc::CommandKind::kPrepare, 70, kTxnAbort)).ok());
    ASSERT_TRUE(b.shard->SubmitControl(control(1, svc::CommandKind::kPrepare, 70, kTxnAbort)).ok());
    ASSERT_TRUE(a.shard->SubmitControl(control(2, svc::CommandKind::kPrepare, 71, kTxnCommit)).ok());
    ASSERT_TRUE(b.shard->SubmitControl(control(2, svc::CommandKind::kPrepare, 71, kTxnCommit)).ok());
    ASSERT_TRUE(a.shard->SubmitControl(control(3, svc::CommandKind::kCommitTxn, 71, kTxnCommit)).ok());
    ASSERT_EQ(a.shard->service().InDoubtTxns().size(), 1u);
    ASSERT_EQ(b.shard->service().InDoubtTxns().size(), 2u);
    // Coordinator and shards crash here; the storages survive.
  }
  a.Reincarnate(0);
  b.Reincarnate(1);
  fleet::Router router;
  router.AddShard(a.shard.get());
  router.AddShard(b.shard.get());
  auto recovered = router.RecoverAll();
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;

  // Txn 9 had no commit evidence anywhere -> presumed abort, reservations
  // released on both shards. Txn 10 was committed on shard 0 -> shard 1's
  // in-doubt branch completes the commit.
  EXPECT_EQ(router.stats().resolved_abort, 1u);
  EXPECT_EQ(router.stats().resolved_commit, 1u);
  EXPECT_TRUE(a.shard->service().InDoubtTxns().empty());
  EXPECT_TRUE(b.shard->service().InDoubtTxns().empty());
  EXPECT_EQ(a.shard->service().txn_decision(kTxnAbort), svc::TxnDecision::kAborted);
  EXPECT_EQ(b.shard->service().txn_decision(kTxnAbort), svc::TxnDecision::kAborted);
  EXPECT_EQ(b.shard->service().txn_decision(kTxnCommit), svc::TxnDecision::kCommitted);
  EXPECT_EQ(a.shard->service().live_jobs(), 1u);
  EXPECT_EQ(b.shard->service().live_jobs(), 1u);

  // The router's txn mint resumed above everything it recovered.
  auto next = router.CrossShardAdmit(600, tpu::SliceShape{1, 1, 1}, {0, 1});
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.value(), kTxnCommit);
}

TEST(FleetTelemetry, FleetSeriesVisibleToExporters) {
  telemetry::Hub hub;
  fleet::ShardOptions options;
  options.batch_size = 4;
  options.admission.default_quota = fleet::TenantQuota{4.0, 4.0, 1.0};
  ShardHarness h(0, options);
  h.shard->AttachTelemetry(&hub);
  ASSERT_TRUE(h.shard->Recover().ok());

  std::uint64_t accepted = 0;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    if (h.shard->Offer(Admit(2, id)).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  h.shard->PumpAll();

  auto& metrics = hub.metrics();
  EXPECT_EQ(metrics.GetCounter("lightwave_fleet_admitted_total", {{"shard", "0"}}).value(),
            accepted);
  EXPECT_EQ(metrics
                .GetCounter("lightwave_fleet_rejected_total",
                            {{"reason", "quota"}, {"shard", "0"}})
                .value(),
            4u);
  EXPECT_EQ(metrics.GetGauge("lightwave_fleet_shard_queue_depth", {{"shard", "0"}}).value(),
            0.0);
  EXPECT_EQ(metrics.GetHistogram("lightwave_fleet_batch_commands", {{"shard", "0"}}).count(),
            1u);

  const std::string prom = telemetry::ToPrometheus(metrics);
  EXPECT_NE(prom.find("lightwave_fleet_admitted_total"), std::string::npos);
  EXPECT_NE(prom.find("lightwave_fleet_rejected_total"), std::string::npos);
  EXPECT_NE(prom.find("reason=\"quota\""), std::string::npos);
  EXPECT_NE(prom.find("lightwave_fleet_batch_commands"), std::string::npos);
  EXPECT_NE(prom.find("lightwave_fleet_shard_queue_depth"), std::string::npos);
}

// ---------------------------------------------------------------------------
// File-backed fleet recovery: Router::RecoverAll over real files, identical
// at every thread count, with the tail diagnoses summed across shards.

constexpr int kFleetShards = 8;
constexpr std::uint64_t kFleetCommands = 400;

fleet::ShardOptions FileFleetOptions() {
  fleet::ShardOptions options;
  options.batch_size = kBatch;
  options.service.snapshot_interval = 16;
  options.admission.default_quota = fleet::TenantQuota{1e9, 1e9, 1.0};
  options.admission.per_tenant_queue_capacity = kFleetCommands;
  return options;
}

/// A fleet of file-backed shards over one TempDir, rebuildable over the same
/// files (the fleet-wide crash simulation).
struct FileFleet {
  std::vector<std::unique_ptr<tpu::Superpod>> pods;
  std::vector<std::unique_ptr<journal::FileStorage>> stores;
  std::vector<std::unique_ptr<fleet::Shard>> shards;
  fleet::Router router;

  FileFleet(const testutil::TempDir& tmp, int shard_count,
            fleet::ShardOptions options) {
    for (int s = 0; s < shard_count; ++s) {
      auto wal = journal::FileStorage::Open(WalPath(tmp, s));
      auto snapshot = journal::FileStorage::Open(SnapPath(tmp, s));
      EXPECT_TRUE(wal.ok() && snapshot.ok());
      if (!wal.ok() || !snapshot.ok()) return;
      pods.push_back(std::make_unique<tpu::Superpod>(
          kPodSeed + static_cast<std::uint64_t>(s), kPodCubes, kOcsPerDim));
      shards.push_back(std::make_unique<fleet::Shard>(
          static_cast<std::uint32_t>(s), *pods.back(),
          core::AllocationPolicy::kReconfigurable, *wal.value(), *snapshot.value(),
          options));
      stores.push_back(std::move(wal.value()));
      stores.push_back(std::move(snapshot.value()));
      router.AddShard(shards.back().get());
    }
  }

  static std::string WalPath(const testutil::TempDir& tmp, int s) {
    return tmp.Path("shard" + std::to_string(s) + ".wal");
  }
  static std::string SnapPath(const testutil::TempDir& tmp, int s) {
    return tmp.Path("shard" + std::to_string(s) + ".snap");
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

/// The multi-shard trace: enough tenants that every shard owns a few arcs.
const svc::RequestStream& FleetFileStream() {
  static const svc::RequestStream stream(kStreamSeed + 1, kFleetCommands, [] {
    svc::RequestStreamConfig config;
    config.tenant_count = 24;
    config.zipf_skew = 0.7;
    return config;
  }());
  return stream;
}

TEST(FleetRouter, FileBackedRecoverAllDeterministicAcrossThreadCounts) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  // One fleet lifetime builds the durable media, then dies.
  {
    FileFleet fleet(tmp, kFleetShards, FileFleetOptions());
    ASSERT_TRUE(fleet.router.RecoverAll().ok());
    for (std::uint64_t i = 0; i < kFleetCommands; ++i) {
      ASSERT_TRUE(fleet.router.Submit(FleetFileStream().Command(i)).ok());
      if (i % 64 == 63) fleet.router.PumpAll();
    }
    while (fleet.router.PumpAll() > 0) {
    }
  }
  // Recover the fleet at 1, 2, and 8 threads: byte-identical state and
  // identical aggregate stats every time (thread count is a performance
  // knob, never a semantic one).
  const int original = common::parallel::Threads();
  std::vector<std::vector<std::uint8_t>> digests;
  std::vector<std::uint64_t> replayed;
  for (int threads : {1, 2, 8}) {
    common::parallel::SetThreads(threads);
    FileFleet fleet(tmp, kFleetShards, FileFleetOptions());
    auto recovery = fleet.router.RecoverAll();
    ASSERT_TRUE(recovery.ok()) << "threads=" << threads;
    EXPECT_TRUE(recovery.value().wal_clean);
    EXPECT_EQ(recovery.value().tail_truncations, 0u);
    EXPECT_EQ(recovery.value().tail_corruptions, 0u);
    digests.push_back(fleet.Digest());
    replayed.push_back(recovery.value().records_replayed);
  }
  common::parallel::SetThreads(original);
  EXPECT_EQ(Fnv1a64(digests[0]), kRecoveredFleetFnv);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_EQ(replayed[0], replayed[1]);
  EXPECT_EQ(replayed[0], replayed[2]);
}

TEST(FleetRouter, RecoverAllSumsTailDiagnosesAcrossShards) {
  // Two shards of damage, two diagnoses: shard 0's wal gets a flipped bit
  // inside a durable record (CORRUPTION — the alarm), shard 1's wal is cut
  // mid-record (TRUNCATION — the expected crash artifact). The fleet
  // aggregate must report exactly one of each, and recovery still succeeds
  // with the healthy prefixes.
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  fleet::ShardOptions options = FileFleetOptions();
  options.service.snapshot_interval = 1u << 30;  // keep every record in the wal
  {
    FileFleet fleet(tmp, 2, options);
    ASSERT_TRUE(fleet.router.RecoverAll().ok());
    for (std::uint64_t id = 1; id <= 10; ++id) {
      for (std::uint32_t shard = 0; shard < 2; ++shard) {
        ASSERT_TRUE(fleet.shards[shard]->Offer(Admit(40 + shard, id)).ok());
      }
      fleet.router.PumpAll();
    }
  }
  {
    // Flip one payload bit in shard 0's second record.
    std::fstream f(FileFleet::WalPath(tmp, 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    ASSERT_GT(static_cast<std::int64_t>(f.tellg()), 60);
    f.seekp(60);
    char byte;
    f.seekg(60);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(60);
    f.write(&byte, 1);
  }
  {
    // Cut shard 1's wal three bytes short (every record frame is larger, so
    // the cut is always strictly inside the final record).
    const std::string path = FileFleet::WalPath(tmp, 1);
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 3u);
    std::filesystem::resize_file(path, size - 3);
  }
  FileFleet fleet(tmp, 2, options);
  auto recovery = fleet.router.RecoverAll();
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery.value().wal_clean);
  EXPECT_EQ(recovery.value().tail_corruptions, 1u);
  EXPECT_EQ(recovery.value().tail_truncations, 1u);
  EXPECT_FALSE(recovery.value().tail_note.empty());
}

TEST(FleetPipeline, PipelinedShardAppliesExactlyOnceAndRecoversByteIdentical) {
  constexpr std::uint64_t kPipelineCommands = 4000;
  svc::RequestStreamConfig config;
  config.tenant_count = 8;
  config.zipf_skew = 0.7;
  svc::RequestStream stream(77, kPipelineCommands, config);

  fleet::ShardOptions options;
  options.batch_size = 32;
  options.pipeline_depth = 4;
  options.service.snapshot_interval = 256;
  options.admission.default_quota = fleet::TenantQuota{1e9, 1e9, 1.0};
  options.admission.per_tenant_queue_capacity = kPipelineCommands;
  ShardHarness h(0, options);
  ASSERT_TRUE(h.shard->Recover().ok());

  // Journal thread + apply thread run while this thread offers: the
  // three-thread interleaving is what the TSan CI leg checks.
  h.shard->Start();
  for (std::uint64_t i = 0; i < kPipelineCommands; ++i) {
    ASSERT_TRUE(h.shard->Offer(stream.Command(i)).ok());
  }
  h.shard->Drain();
  h.shard->Stop();

  const auto& stats = h.shard->service().stats();
  EXPECT_EQ(stats.processed, kPipelineCommands);  // exactly once, none lost
  EXPECT_EQ(h.shard->stats().pipeline_duplicates, 0u);
  EXPECT_EQ(h.shard->stats().pipeline_gaps, 0u);
  EXPECT_EQ(h.shard->service().applied_seq(), kPipelineCommands);
  EXPECT_GT(stats.snapshots, 0u);
  // Group commit actually grouped (far fewer appends than commands).
  EXPECT_LT(h.shard->stats().batches, kPipelineCommands / 2);
  EXPECT_TRUE(h.shard->service().scheduler().ValidateInvariants().ok());

  // A successor recovers byte-identically from the pipelined run's media.
  const auto final_digest = h.shard->service().SerializeState();
  auto pod = FreshPod();
  svc::FleetService successor(*pod, core::AllocationPolicy::kReconfigurable, h.wal,
                              h.snapshot, options.service);
  ASSERT_TRUE(successor.Recover().ok());
  EXPECT_EQ(successor.SerializeState(), final_digest);
}

// ---------------------------------------------------------------------------
// Crash matrix on the pipelined shard: the same crash points, visited by the
// journal thread (kPreAppend, kPostAppendPreApply) and the apply thread
// (kMidApply).

void OfferStream(fleet::Shard& shard) { OfferRange(shard, 0, kCommands); }

/// Oracle for the pipelined matrix: a sync shard pumping the whole stream
/// pre-offered — the admission state a started shard's journal thread pops
/// the same DRR batches from. Key = total committed commands.
const DigestsByCount& PipelinedOracleDigests() {
  static const auto digests = [] {
    DigestsByCount out;
    ShardHarness h(0, PipelinedOptions());
    EXPECT_TRUE(h.shard->Recover().ok());
    OfferStream(*h.shard);
    out[0] = h.shard->service().SerializeState();
    while (h.shard->admission().Depth() > 0) {
      EXPECT_EQ(h.shard->PumpOnce(), kBatch);
      out[CommittedCount(h.shard->service())] = h.shard->service().SerializeState();
    }
    EXPECT_EQ(out.rbegin()->first, kCommands);
    return out;
  }();
  return digests;
}

struct PipelinedTrialResult {
  TrialResult trial;
  /// What the crashed shard did: records it appended, kMidApply visits.
  std::uint64_t appended_records = 0;
  std::uint64_t mid_apply_visits = 0;
};

/// One pipelined cell: pre-offer the stream, arm the crash, run the
/// pipeline until it drains or dies, then recover a sync successor over the
/// same media, re-offer the whole stream and finish it.
PipelinedTrialResult RunPipelinedCrashTrial(CrashPoint point, std::uint64_t k) {
  PipelinedTrialResult result;
  ctrl::FaultInjector injector(7, ctrl::FaultProfile{});
  ShardHarness h(0, PipelinedOptions());
  h.shard->service().SetFaultInjector(&injector);
  if (!h.shard->Recover().ok()) return result;
  OfferStream(*h.shard);
  injector.ArmCrash(point, k);
  h.shard->Start();
  h.shard->Drain();
  h.shard->Stop();
  result.trial.crashed = h.shard->service().crashed();
  result.appended_records = h.shard->service().wal().appended_records();
  result.mid_apply_visits = injector.crash_point_visits(CrashPoint::kMidApply);

  h.Reincarnate(0, PipelinedOptions());
  auto recovery = h.shard->Recover();
  result.trial.recovery_ok = recovery.ok();
  if (!recovery.ok()) return result;
  result.trial.committed_after_crash = CommittedCount(h.shard->service());
  result.trial.recovered_digest = h.shard->service().SerializeState();

  OfferStream(*h.shard);
  h.shard->PumpAll();
  result.trial.final_digest = h.shard->service().SerializeState();
  result.trial.invariants_ok = h.shard->service().scheduler().ValidateInvariants().ok();
  return result;
}

void CheckPipelinedTrial(CrashPoint point, std::uint64_t k,
                         const PipelinedTrialResult& result) {
  SCOPED_TRACE("pipelined crash point " + std::string(ctrl::ToString(point)) + " visit " +
               std::to_string(k));
  const TrialResult& trial = result.trial;
  ASSERT_TRUE(trial.crashed);
  ASSERT_TRUE(trial.recovery_ok);
  const std::uint64_t committed = trial.committed_after_crash;
  switch (point) {
    case CrashPoint::kPreAppend: EXPECT_EQ(committed, (k - 1) * kBatch); break;
    case CrashPoint::kPostAppendPreApply: EXPECT_EQ(committed, k * kBatch); break;
    case CrashPoint::kMidApply:
      // The journal thread may run ahead of the crashed apply, but only in
      // whole batches.
      EXPECT_EQ(committed % kBatch, 0u);
      EXPECT_GE(committed, ((k + kBatch - 1) / kBatch) * kBatch);
      // Nothing applies after the crash.
      EXPECT_EQ(result.mid_apply_visits, k);
      break;
  }
  // Nothing is appended after the crash: the log holds exactly what
  // recovery committed.
  EXPECT_EQ(result.appended_records, committed);
  ASSERT_TRUE(PipelinedOracleDigests().contains(committed));
  EXPECT_EQ(trial.recovered_digest, PipelinedOracleDigests().at(committed));
  EXPECT_EQ(trial.final_digest, PipelinedOracleDigests().at(kCommands));
  EXPECT_TRUE(trial.invariants_ok);
}

TEST(FleetPipeline, PipelinedCrashMatrixRecoversByteIdentical) {
  PipelinedOracleDigests();
  for (CrashPoint point : {CrashPoint::kPreAppend, CrashPoint::kPostAppendPreApply}) {
    for (std::uint64_t v = 1; v <= kCommands / kBatch; ++v) {
      CheckPipelinedTrial(point, v, RunPipelinedCrashTrial(point, v));
    }
  }
  for (std::uint64_t j : {1ull, 3ull, 8ull, 9ull, 16ull, 17ull, 50ull, 64ull, 100ull, 131ull,
                          157ull, 199ull, 200ull}) {
    CheckPipelinedTrial(CrashPoint::kMidApply, j,
                        RunPipelinedCrashTrial(CrashPoint::kMidApply, j));
  }
}

// ---------------------------------------------------------------------------
// A recovered pod is the pod that crashed: circuit for circuit, loss for
// loss, install time for install time.

/// Every switch's circuits with both losses, then every slice's id, cubes
/// and install time.
std::vector<std::uint8_t> PodPhysics(const tpu::Superpod& pod) {
  ctrl::WireWriter writer;
  for (int i = 0; i < pod.ocs_count(); ++i) {
    for (const ocs::Connection& conn : pod.ocs(i).Connections()) {
      writer.PutInt(i);
      writer.PutInt(conn.north);
      writer.PutInt(conn.south);
      writer.PutDouble(conn.insertion_loss.value());
      writer.PutDouble(conn.return_loss.value());
    }
  }
  for (const auto& [id, slice] : pod.slices()) {
    writer.PutU64(id);
    for (int cube : slice.topology.cube_ids()) writer.PutInt(cube);
    writer.PutDouble(slice.install_time_ms);
  }
  return writer.Take();
}

TEST(FleetRecovery, RecoveredPodMatchesServedPodCircuitForCircuit) {
  // A pipelined shard serves the stream on the production pod, committing
  // each applied batch from its apply thread, and dies; a successor
  // recovers onto a fresh pod from the same seed, programming once after
  // replay. With snapshots off it replays the whole log; with them on it
  // imports the last snapshot's slices, then replays the suffix. Either
  // way the recovered pod holds the served pod's circuits with their
  // losses, and each slice its install time.
  for (const std::uint64_t snapshot_interval : {0u, 16u}) {
    SCOPED_TRACE("snapshot interval " + std::to_string(snapshot_interval));
    fleet::ShardOptions options = PipelinedOptions();
    options.service.snapshot_interval = snapshot_interval;
    ShardHarness h(0, options, kPodSeed, tpu::kCubesPerPod, tpu::kOcsPerDim);
    ASSERT_TRUE(h.shard->Recover().ok());
    h.shard->Start();
    OfferRange(*h.shard, 0, kCommands);
    h.shard->Drain();
    h.shard->Stop();
    ASSERT_EQ(h.shard->service().stats().processed, kCommands);
    ASSERT_FALSE(h.pod->slices().empty());
    const std::vector<std::uint8_t> state = h.shard->service().SerializeState();
    const std::vector<std::uint8_t> physics = PodPhysics(*h.pod);

    h.Reincarnate(0, options);
    auto recovery = h.shard->Recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().message;
    EXPECT_EQ(recovery.value().snapshot_loaded, snapshot_interval != 0);
    EXPECT_EQ(h.shard->service().SerializeState(), state);
    EXPECT_EQ(PodPhysics(*h.pod), physics);
    EXPECT_TRUE(h.shard->service().scheduler().ValidateInvariants().ok());
  }
}

// ---------------------------------------------------------------------------
// Parallel slice installs from concurrent pipelines: each started shard's
// apply thread commits every applied batch over the one process-wide pool,
// so three shards put three apply threads into it at once.

TEST(FleetPipeline, PipelinedShardsInstallInParallelByteIdentical) {
  constexpr std::uint32_t kShards = 3;
  svc::RequestStreamConfig config;
  config.tenant_count = kTenants;
  config.zipf_skew = 0.9;
  std::vector<svc::RequestStream> streams;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    streams.emplace_back(kStreamSeed + s, kCommands, config);
  }
  // A shard on a full 64-cube pod, whose 48 OCSes every batch's commit
  // fans out to, with its whole stream pre-offered, as the pipelined crash
  // matrix does.
  const auto make_shard = [&](std::uint32_t s) {
    auto h = std::make_unique<ShardHarness>(s, PipelinedOptions(), kPodSeed + s,
                                            tpu::kCubesPerPod, tpu::kOcsPerDim);
    EXPECT_TRUE(h->shard->Recover().ok());
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      EXPECT_TRUE(h->shard->Offer(streams[s].Command(i)).ok());
    }
    return h;
  };
  const int configured = common::parallel::Threads();

  // Oracle: each stream through a sync shard, every commit serial.
  common::parallel::SetThreads(1);
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint64_t> admitted;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    auto h = make_shard(s);
    h->shard->PumpAll();
    expected.push_back(h->shard->service().SerializeState());
    admitted.push_back(h->shard->service().stats().admitted);
    EXPECT_GT(admitted.back(), 0u) << "shard " << s;
  }

  common::parallel::SetThreads(8);
  std::vector<std::unique_ptr<ShardHarness>> pipelines;
  for (std::uint32_t s = 0; s < kShards; ++s) pipelines.push_back(make_shard(s));
  for (auto& h : pipelines) h->shard->Start();
  for (auto& h : pipelines) h->shard->Drain();
  for (auto& h : pipelines) h->shard->Stop();
  common::parallel::SetThreads(configured);

  for (std::uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const svc::FleetService& service = pipelines[s]->shard->service();
    EXPECT_EQ(service.stats().processed, kCommands);
    EXPECT_EQ(service.stats().admitted, admitted[s]);
    EXPECT_EQ(service.SerializeState(), expected[s]);
    EXPECT_TRUE(service.scheduler().ValidateInvariants().ok());
  }
}

}  // namespace
}  // namespace lightwave
