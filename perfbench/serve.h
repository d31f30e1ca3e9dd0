// Serve-path plumbing shared by the churn, flood and recover workloads:
// file-backed journal media, the timing Storage decorator, the closed-loop
// Shard driver (sync or pipelined), the single-threaded stage driver the
// traced runs use, and the checks against a trace's prediction.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "journal/file_storage.h"
#include "twins.h"
#include "workloads.h"

namespace perfbench {

/// Commands per group-commit batch; a window is two batches.
inline constexpr std::size_t kBatch = kWindowCommands / 2;

/// The timed drives' WAL syncs at most once a second: per-batch fsync
/// latency on a shared disk swung 2.5x between runs, and it is the device's
/// cost, not the program's. What stays timed is the program's own work:
/// admission, encode, CRC32C, the write, the apply.
inline constexpr journal::SyncPolicy kWalSync = journal::SyncPolicy::kPeriodic;
inline constexpr std::chrono::milliseconds kWalSyncInterval{1000};
/// The traced stage drive whose spans give the journal-write layer fsyncs
/// once per batch, so journal.sync_us times real fsyncs.
inline constexpr journal::SyncPolicy kTracedWalSync = journal::SyncPolicy::kGroupCommit;

/// A serve trace recipe.
struct ServeWorkload {
  const char* name;
  TraceConfig config;
  /// Traces a timed run sets up, each with its own sub-seed, and serves in
  /// turn; setup_s is the median of their set-ups.
  std::size_t timed_traces = 0;
};

fleet::ShardOptions ServeShardOptions();

/// A WAL file and a snapshot file under `policy` in a fresh directory,
/// removed with the object.
class Media {
 public:
  explicit Media(std::string dir, journal::SyncPolicy policy = kWalSync);
  ~Media();
  Media(const Media&) = delete;
  Media& operator=(const Media&) = delete;

  /// (Re)opens both files: a crashed process's successor opening its media.
  bool Open();
  void Close();
  journal::FileStorage& wal() { return *wal_; }
  journal::FileStorage& snapshot() { return *snapshot_; }

 private:
  std::string dir_;
  journal::SyncPolicy policy_;
  std::unique_ptr<journal::FileStorage> wal_;
  std::unique_ptr<journal::FileStorage> snapshot_;
};

/// Times the WAL's storage calls: append and sync spans for the traced run.
class TimedStorage final : public journal::Storage {
 public:
  TimedStorage(journal::Storage& inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  std::uint64_t size() const override { return inner_.size(); }
  void Append(const std::uint8_t* data, std::size_t n) override;
  void ReadAt(std::uint64_t offset, std::size_t n, std::uint8_t* out) const override {
    inner_.ReadAt(offset, n, out);
  }
  void Truncate(std::uint64_t new_size) override { inner_.Truncate(new_size); }
  void Sync() override;
  std::uint64_t durable_size() const override { return inner_.durable_size(); }
  void ReplaceContents(const std::uint8_t* data, std::size_t n) override {
    inner_.ReplaceContents(data, n);
  }

  /// Window id stamped on the spans.
  std::uint64_t window = 0;

 private:
  journal::Storage& inner_;
  SpanLog* spans_;
};

/// What one pass of a trace through a service left behind.
struct ServePass {
  /// Pod build, service construction and recovery of the empty media.
  double setup_seconds = 0.0;
  double seconds = 0.0;
  Samples window_ms;
  std::uint64_t processed = 0;
  std::uint64_t allocations = 0;  // admits + resizes applied
  std::uint64_t wal_bytes = 0;
  std::uint64_t fsyncs = 0;
  /// Stage drives: bytes run through the benchmark's own CRC32C calls.
  std::uint64_t crc_bytes = 0;
  std::vector<std::uint8_t> state;  // FleetService::SerializeState
};

/// Totals over a traced run's serve passes.
struct ServeTally {
  std::uint64_t commands = 0;
  std::uint64_t useful = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t crc_bytes = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t recoveries = 0;
  /// Windows of the untraced pipelined drives (Offer to Drain).
  Samples pipelined_window_ms;
};

enum class ShardMode {
  /// Shard::PumpAll on the client's thread: each batch is journaled, then
  /// applied, inline.
  kSync,
  /// Shard::Start: journal and apply threads overlap; the client waits on
  /// Shard::Drain.
  kPipelined,
};

/// The closed loop: one Shard over `media`; the client offers a window,
/// waits until the shard has journaled and applied it, and repeats. With a
/// `probe`, the loop ticks it between windows and the pass's times are
/// scaled to its reference speed.
ServePass DriveShard(const Trace& trace, PodGeometry geometry, Media& media, ShardMode mode,
                     SpeedProbe* probe, Result& result);

/// The same windows on one thread through AdmissionQueue::Offer/PopBatch
/// and the FleetService stage API over a TimedStorage. Also runs the batch
/// encode and CRC32C as calls of their own (spans when traced), with or
/// without spans, so traced and untraced drives do the same work.
ServePass DriveStages(const Trace& trace, PodGeometry geometry, Media& media, SpanLog* spans,
                      std::uint64_t first_window_id, Result& result);

/// Service scheduler and fabric state must equal the trace's prediction.
void CheckServedState(const Trace& trace, const svc::FleetService& service,
                      const tpu::Superpod& pod, Result& result);
/// Traced twin pass: twins B and C must end where twin A did.
void CheckTwins(const Trace& trace, const Twins& twins, Result& result);

/// Traced recovery of one shard's media: the Shard constructor (WAL scan),
/// Shard::Recover (replay) and, with spans, a decode of every scanned
/// record, each its own span. Returns records replayed; checks the
/// recovered state.
std::uint64_t TracedRecovery(Media& media, PodGeometry geometry, std::uint64_t pod_seed,
                             const std::vector<std::uint8_t>& expected_state, SpanLog* spans,
                             std::uint64_t window_id, Result& result);

/// Wall time of one traced repetition's untraced and traced passes.
struct TracedTimes {
  double drive_untraced_s = 0.0;
  double drive_traced_s = 0.0;
  double recovery_untraced_s = 0.0;
  double recovery_traced_s = 0.0;
};

/// One traced repetition, each drive on its own media: the twin pass; an
/// untraced pipelined Shard drive (window p50, p90); an untraced and a traced stage
/// drive under kWalSync (tracing overhead, their spans discarded); the stage
/// drive whose spans are kept, under kTracedWalSync; then an untraced and a
/// traced recovery of that drive's media. Adds to `fabric` and `tally`.
TracedTimes TraceServeRep(const ServeWorkload& workload, std::uint64_t seed,
                          const std::string& dir, std::uint64_t window_base, SpanLog& spans,
                          FabricCounters& fabric, ServeTally& tally, Result& result);

/// Serve, journal and fabric layer metrics from a traced run's spans.
void ServeLayers(const SpanLog& spans, const FabricCounters& fabric, const ServeTally& tally,
                 Layers& layers);

}  // namespace perfbench
