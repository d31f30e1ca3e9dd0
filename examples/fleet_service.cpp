// Durable fleet service: a crash-recoverable front-end over the slice
// scheduler. A seeded stream of admit/resize/release commands flows through
// a fleet shard's admission queue; every accepted command is journaled to a
// write-ahead log BEFORE it is applied, and periodic snapshots compact the
// log. Mid-stream the demo "kills the process" at the nastiest crash point
// (mid-apply: journaled, state mutation half done), then recovers a
// successor shard from the surviving storage — snapshot + WAL suffix — and
// finishes the stream. The recovered run converges on exactly the state an
// uneventful run would have reached.
#include <cstdio>

#include "ctrl/fault_injector.h"
#include "fleet/shard.h"
#include "journal/storage.h"
#include "svc/fleet_service.h"
#include "svc/request_stream.h"
#include "telemetry/hub.h"
#include "tpu/superpod.h"

using namespace lightwave;

namespace {

fleet::ShardOptions DemoOptions() {
  fleet::ShardOptions options;
  options.batch_size = 1;  // one journal batch per command: crashes land per command
  options.service.snapshot_interval = 64;
  options.admission.default_quota = fleet::TenantQuota{1e9, 1e9, 1.0};
  options.admission.per_tenant_queue_capacity = 16;
  return options;
}

/// Offers the stream from the committed frontier (what a client replays
/// after a restart) and pumps each command through the journal and apply
/// stages, until the stream ends or the process dies. Returns the commands
/// applied.
std::uint64_t Serve(fleet::Shard& shard, const svc::RequestStream& stream) {
  std::uint64_t applied = 0;
  for (std::uint64_t i = shard.service().next_command_id(0) - 1;
       i < stream.count() && !shard.service().crashed(); ++i) {
    if (!shard.Offer(stream.Command(i)).ok()) break;
    applied += shard.PumpOnce();
  }
  return applied;
}

void PrintJournal(const svc::FleetService& service) {
  const auto& wal = service.wal();
  std::printf(
      "          journal: %llu appends (%llu bytes), %llu compactions reclaimed %llu "
      "bytes, %llu snapshots, log now %llu bytes\n",
      static_cast<unsigned long long>(wal.appended_records()),
      static_cast<unsigned long long>(wal.appended_bytes()),
      static_cast<unsigned long long>(wal.compactions()),
      static_cast<unsigned long long>(wal.reclaimed_bytes()),
      static_cast<unsigned long long>(service.stats().snapshots),
      static_cast<unsigned long long>(wal.storage().size()));
}

}  // namespace

int main() {
  // The durable media. Everything else — pod, scheduler, shard — is
  // volatile and dies with the "process".
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  telemetry::Hub hub;

  const svc::RequestStream stream(/*seed=*/2026, /*count=*/400);
  ctrl::FaultInjector injector(/*seed=*/7, ctrl::FaultProfile{});

  std::printf("serving a %llu-command slice-request stream (journaling on)\n",
              static_cast<unsigned long long>(stream.count()));

  // --- first incarnation: serve until the armed crash fires ------------------
  {
    tpu::Superpod pod(/*seed=*/42);
    fleet::Shard shard(0, pod, core::AllocationPolicy::kReconfigurable, wal_storage,
                       snapshot_storage, DemoOptions());
    shard.service().SetFaultInjector(&injector);
    shard.AttachTelemetry(&hub);
    auto recovery = shard.Recover();
    if (!recovery.ok()) {
      std::printf("fresh recovery failed: %s\n", recovery.error().message.c_str());
      return 1;
    }
    // Die mid-apply of the 250th command: it is already journaled, and the
    // fabric mutation is half done when the process vanishes.
    injector.ArmCrash(ctrl::CrashPoint::kMidApply, 250);
    const std::uint64_t served = Serve(shard, stream);
    const svc::FleetService& service = shard.service();
    std::printf("\n[crash]   process died %s after committing %llu commands "
                "(%llu live jobs at the time)\n",
                ctrl::ToString(ctrl::CrashPoint::kMidApply),
                static_cast<unsigned long long>(service.next_command_id(0) - 1),
                static_cast<unsigned long long>(service.live_jobs()));
    std::printf("          served %llu commands this incarnation; crashed: %s\n",
                static_cast<unsigned long long>(served),
                service.crashed() ? "yes" : "no");
    PrintJournal(service);
    // The pod and shard are abandoned here; only the storages survive.
  }

  // --- second incarnation: recover and finish --------------------------------
  tpu::Superpod pod(/*seed=*/42);  // same hardware, rebooted
  fleet::Shard shard(0, pod, core::AllocationPolicy::kReconfigurable, wal_storage,
                     snapshot_storage, DemoOptions());
  shard.service().SetFaultInjector(&injector);
  shard.AttachTelemetry(&hub);
  auto recovery = shard.Recover();
  if (!recovery.ok()) {
    std::printf("recovery failed: %s\n", recovery.error().message.c_str());
    return 1;
  }
  const svc::FleetService& service = shard.service();
  const auto& stats = recovery.value();
  std::printf("\n[recover] snapshot%s", stats.snapshot_loaded ? " loaded" : ": none");
  if (stats.snapshot_loaded) {
    std::printf(" (covers through seq %llu)",
                static_cast<unsigned long long>(stats.snapshot_seq));
  }
  std::printf(", replayed %llu of %llu journal records (%llu covered by the snapshot)\n",
              static_cast<unsigned long long>(stats.records_replayed),
              static_cast<unsigned long long>(stats.records_scanned),
              static_cast<unsigned long long>(stats.records_skipped));
  std::printf("          committed frontier restored to command %llu; %llu live jobs\n",
              static_cast<unsigned long long>(service.next_command_id(0) - 1),
              static_cast<unsigned long long>(service.live_jobs()));

  const std::uint64_t served = Serve(shard, stream);
  if (service.crashed()) {
    std::printf("unexpected second crash\n");
    return 1;
  }
  std::printf("\n[finish]  resumed from the frontier and served the remaining %llu "
              "commands\n",
              static_cast<unsigned long long>(served));
  const auto& s = service.stats();
  std::printf("          admitted %llu, resized %llu, released %llu, rejected %llu "
              "(capacity/validity), %llu live jobs at end\n",
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.resized),
              static_cast<unsigned long long>(s.released),
              static_cast<unsigned long long>(s.rejected_apply),
              static_cast<unsigned long long>(service.live_jobs()));
  PrintJournal(service);

  auto validated = service.scheduler().ValidateInvariants();
  std::printf("\n[check]   scheduler invariants after recovery: %s\n",
              validated.ok() ? "OK" : validated.error().message.c_str());
  std::printf("[check]   recoveries recorded by telemetry: %llu\n",
              static_cast<unsigned long long>(
                  hub.metrics().GetCounter("lightwave_journal_recoveries_total").value()));
  return validated.ok() ? 0 : 1;
}
