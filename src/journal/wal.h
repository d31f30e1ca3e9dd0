// Write-ahead log: the event-sourced durability layer under the fleet
// service (the paper's §3.2 availability story demands the management plane
// survive CPE restarts without disturbing running slices; everything the
// controller knows must therefore be reconstructible from durable state).
//
// Record framing, little-endian:
//
//   [length u32][crc32c u32][sequence u64][payload bytes]
//
// `length` counts the sequence field plus the payload (so length >= 8); the
// CRC32C (Castagnoli) covers the length field, the sequence, and the payload,
// so a bit flip anywhere in the record — including a lying length field — is
// caught. A scan reads the whole log in one Storage::ReadAt, walks the
// records in that buffer from offset 0, and copies each payload out once. It
// stops at the first frame that is truncated, corrupt, oversized, or out of
// sequence: that is the torn tail a crash mid-append leaves behind. The scan
// NEVER throws or crashes on hostile bytes; it reports how far the log was
// valid, why it stopped, and WHICH KIND of defect it hit — a clean
// truncation (the expected artifact of a crash inside a sync window or
// mid-append) vs genuine corruption of bytes that were supposedly durable
// (bit rot, a misdirected write) — and recovery truncates the tail and
// appends from there.
//
// Durability boundary: every Append/AppendBatch ends with a Storage::Sync()
// — the commit point. Over FileStorage that is where the sync policy bites
// (kGroupCommit = one fsync per batch right here; kEveryAppend already
// synced inside the storage; kPeriodic may decline). Over MemStorage it is
// a no-op.
//
// Compaction: Compact() rewrites the log on the calling thread via
// Storage::ReplaceContents — atomic over files (write-to-temp + rename), so
// a crash at any byte of the rewrite leaves the OLD log intact. The fleet
// service compacts on its journal stage, the log's only writer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "journal/storage.h"

namespace lightwave::telemetry {
class Counter;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::journal {

/// CRC32C (Castagnoli polynomial, reflected, table-driven). Distinct from
/// the wire format's IEEE CRC32 so a journal record accidentally fed to the
/// frame decoder (or vice versa) cannot pass both gates.
std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size);
/// Incremental form: extends `crc` (state from a previous call) over more
/// bytes. Start from Crc32cInit() and finish with Crc32cFinish().
std::uint32_t Crc32cInit();
std::uint32_t Crc32cExtend(std::uint32_t state, const std::uint8_t* data, std::size_t size);
std::uint32_t Crc32cFinish(std::uint32_t state);

struct WalRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// How a scan's tail diagnosis classifies the first defect. The
/// distinction drives telemetry (RecoveryStats splits the counters): a
/// truncation is the EXPECTED artifact of a crash mid-append or inside an
/// open sync window (kGroupCommit/kPeriodic lose the unsynced tail by
/// design), while corruption means bytes that should have been stable were
/// damaged — an alarm, not business as usual.
enum class WalTailKind : std::uint8_t {
  /// The log ends exactly at a record boundary.
  kClean,
  /// The final record is incomplete: a partial header, a body cut short by
  /// EOF, or a zero-filled tail. Everything before it is intact.
  kTruncated,
  /// A structurally complete record is damaged (CRC mismatch, implausible
  /// length with the full header present, sequence discontinuity).
  kCorrupt,
};

const char* ToString(WalTailKind kind);

/// What a scan found. `tail` is Ok when the log ends exactly at a record
/// boundary; otherwise it describes the torn tail (which starts at
/// `valid_bytes`) and `tail_kind` classifies it. Records before the tear
/// are always intact and returned.
struct WalScan {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;
  common::Status tail;
  WalTailKind tail_kind = WalTailKind::kClean;
};

class Wal {
 public:
  /// Largest accepted record body (sequence + payload). Guards the scanner
  /// against hostile length fields and the writer against runaway payloads.
  static constexpr std::uint64_t kMaxRecordBytes = 1ull << 20;

  /// Opening a log IS recovery: the constructor scans the storage, truncates
  /// any torn tail so future appends land at a record boundary, and
  /// positions the next sequence number after the last valid record. The
  /// scan (including the tear diagnosis) stays readable via recovery_scan().
  explicit Wal(Storage& storage);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Walks the records in `storage` without modifying it. The log is read
  /// in one call (none when it is empty) and framed from memory. Total: any
  /// byte soup is safe input; the result's `tail` explains the first defect.
  static WalScan Scan(const Storage& storage);

  /// Appends one record and returns its sequence number. The record is
  /// synced (per the storage's policy) before this returns — the commit
  /// boundary. Fails only on an oversized payload.
  common::Result<std::uint64_t> Append(const std::vector<std::uint8_t>& payload);

  /// Group commit: frames every payload as a consecutive record and hands
  /// the whole batch to the storage in ONE Append followed by ONE Sync —
  /// the device-call, fsync, and buffer-churn cost is paid once per batch
  /// instead of once per record. Record framing is byte-identical to N
  /// single Appends (Scan cannot tell them apart), so torn-tail repair and
  /// replay are unchanged; a crash mid batch-append tears at most the
  /// batch's own bytes. Returns the sequence number of the FIRST record;
  /// the rest follow densely. An oversized payload fails the whole batch
  /// before any byte reaches the storage.
  common::Result<std::uint64_t> AppendBatch(
      const std::vector<std::vector<std::uint8_t>>& payloads);

  /// Log compaction after a snapshot: drops every record with seq <=
  /// `upto_seq` (typically all of them — the service snapshots at the
  /// applied frontier). The sequence counter is NOT reset; exactly-once
  /// replay keys on sequence numbers staying monotone across compactions.
  /// The rewrite is atomic (see ReplaceContents).
  common::Status Compact(std::uint64_t upto_seq);

  /// Recovery hook: advances the sequence counter (never rewinds). Needed
  /// when a snapshot proves sequence numbers beyond what the (compacted,
  /// possibly empty) log itself shows.
  void SetNextSeq(std::uint64_t next_seq);

  std::uint64_t next_seq() const { return next_seq_; }
  const WalScan& recovery_scan() const { return recovery_scan_; }
  /// Torn-tail bytes the constructor truncated to reach a record boundary.
  std::uint64_t tail_truncated_bytes() const { return tail_truncated_bytes_; }
  const Storage& storage() const { return storage_; }

  std::uint64_t appended_records() const { return appended_records_; }
  std::uint64_t appended_bytes() const { return appended_bytes_; }
  /// Storage Append calls issued by AppendBatch (one per batch).
  std::uint64_t batch_appends() const { return batch_appends_; }
  std::uint64_t compactions() const { return compactions_; }
  /// Bytes reclaimed by compaction plus torn-tail truncation.
  std::uint64_t reclaimed_bytes() const { return reclaimed_bytes_; }

  /// Mirrors append/compaction activity into `hub` (nullptr detaches):
  /// lightwave_journal_bytes_total, appends, compactions, reclaimed bytes.
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  /// Frames one record into `out` (shared by Append and AppendBatch so the
  /// two paths cannot drift).
  void FrameRecord(std::uint64_t seq, const std::vector<std::uint8_t>& payload,
                   std::vector<std::uint8_t>* out) const;
  /// Walks frames over `data[0, limit)` and returns the offset of the
  /// first record with seq > upto_seq (== limit when none). The prefix
  /// must be boundary-valid (appends always leave it so).
  static std::uint64_t CutOffset(const std::uint8_t* data, std::uint64_t limit,
                                 std::uint64_t upto_seq);

  Storage& storage_;
  WalScan recovery_scan_;
  std::uint64_t tail_truncated_bytes_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t batch_appends_ = 0;
  /// Reused frame buffer: group commit amortizes allocation too.
  std::vector<std::uint8_t> batch_scratch_;
  std::uint64_t compactions_ = 0;
  std::uint64_t reclaimed_bytes_ = 0;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Counter* append_counter_ = nullptr;
  telemetry::Counter* compaction_counter_ = nullptr;
  telemetry::Counter* reclaimed_counter_ = nullptr;
};

}  // namespace lightwave::journal
