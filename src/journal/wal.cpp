#include "journal/wal.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"
#include "telemetry/hub.h"

namespace lightwave::journal {

namespace {

std::array<std::uint32_t, 256> BuildCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

std::uint32_t Crc32cSw(std::uint32_t state, const std::uint8_t* data, std::size_t size) {
  static const auto table = BuildCrc32cTable();
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ data[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this reflected CRC-32C
// (Castagnoli, polynomial 0x82F63B78), 8 bytes per issue instead of one
// table lookup per byte. The known-vector test in journal_test pins both
// paths to the same check values.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHw(std::uint32_t state,
                                                         const std::uint8_t* data,
                                                         std::size_t size) {
  while (size >= 8) {
    std::uint64_t chunk;
    __builtin_memcpy(&chunk, data, sizeof(chunk));
    state = static_cast<std::uint32_t>(
        __builtin_ia32_crc32di(state, chunk));
    data += 8;
    size -= 8;
  }
  while (size > 0) {
    state = __builtin_ia32_crc32qi(state, *data++);
    --size;
  }
  return state;
}
#endif

std::uint32_t Crc32cInit() { return 0xFFFFFFFFu; }

std::uint32_t Crc32cExtend(std::uint32_t state, const std::uint8_t* data, std::size_t size) {
#if defined(__x86_64__)
  static const bool have_sse42 = __builtin_cpu_supports("sse4.2");
  if (have_sse42) return Crc32cHw(state, data, size);
#endif
  return Crc32cSw(state, data, size);
}

std::uint32_t Crc32cFinish(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

// Record header: [length u32][crc32c u32]; the length counts the sequence
// field plus the payload, so the smallest legal record body is 8 bytes.
constexpr std::uint64_t kHeaderBytes = 8;
constexpr std::uint64_t kSeqBytes = 8;

std::uint32_t ReadU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t ReadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size) {
  return Crc32cFinish(Crc32cExtend(Crc32cInit(), data, size));
}

const char* ToString(WalTailKind kind) {
  switch (kind) {
    case WalTailKind::kClean: return "clean";
    case WalTailKind::kTruncated: return "truncated";
    case WalTailKind::kCorrupt: return "corrupt";
  }
  return "unknown";
}

WalScan Wal::Scan(const Storage& storage) {
  WalScan scan;
  const std::uint64_t total = storage.size();
  if (total == 0) return scan;
  // One device read for the whole log; every frame below is walked,
  // CRC-checked and copied out of this buffer.
  std::vector<std::uint8_t> log(static_cast<std::size_t>(total));
  storage.ReadAt(0, log.size(), log.data());
  const std::uint8_t* const end = log.data() + log.size();
  std::uint64_t offset = 0;
  // Every early return below is a torn tail: records up to `offset` are
  // intact, the bytes from `offset` on are unusable. The scan reports the
  // defect instead of crashing — hostile input is expected here (that is
  // what a crash mid-append produces). The tail_kind split: an INCOMPLETE
  // final record (header or body cut off by EOF, zero-filled tail) is the
  // expected shape of a crash mid-append or inside an open sync window,
  // while a structurally complete but damaged record is corruption.
  while (offset < total) {
    const std::uint64_t remaining = total - offset;
    if (remaining < kHeaderBytes + kSeqBytes) {
      scan.tail = common::Internal("torn tail: truncated record header at offset " +
                                   std::to_string(offset));
      scan.tail_kind = WalTailKind::kTruncated;
      scan.valid_bytes = offset;
      return scan;
    }
    const std::uint8_t* const header = log.data() + offset;
    const std::uint64_t length = ReadU32(header);
    const std::uint32_t stored_crc = ReadU32(header + 4);
    if (length == 0 && stored_crc == 0) {
      // A zero header is never a legal frame (length >= 8). Some
      // filesystems extend a file with zero pages on a crash between the
      // size update and the data flush — but that artifact zeroes every
      // byte to EOF and only lands above the durable frontier. A zeroed
      // header INSIDE the durable prefix followed by nonzero bytes means
      // stable bytes were damaged: that is the corruption alarm, not the
      // expected truncation artifact.
      const bool rest_zero =
          std::all_of(header + kHeaderBytes, end, [](std::uint8_t byte) { return byte == 0; });
      if (offset >= storage.durable_size() || rest_zero) {
        scan.tail = common::Internal("torn tail: zero-filled tail at offset " +
                                     std::to_string(offset));
        scan.tail_kind = WalTailKind::kTruncated;
      } else {
        scan.tail = common::Internal(
            "torn tail: zeroed record header amid nonzero durable bytes at offset " +
            std::to_string(offset));
        scan.tail_kind = WalTailKind::kCorrupt;
      }
      scan.valid_bytes = offset;
      return scan;
    }
    if (length < kSeqBytes || length > kMaxRecordBytes) {
      scan.tail = common::Internal("torn tail: implausible record length " +
                                   std::to_string(length) + " at offset " +
                                   std::to_string(offset));
      scan.tail_kind = WalTailKind::kCorrupt;
      scan.valid_bytes = offset;
      return scan;
    }
    if (length > remaining - kHeaderBytes) {
      scan.tail = common::Internal("torn tail: record length " + std::to_string(length) +
                                   " overruns the log at offset " + std::to_string(offset));
      scan.tail_kind = WalTailKind::kTruncated;
      scan.valid_bytes = offset;
      return scan;
    }
    const std::uint8_t* const body = header + kHeaderBytes;
    // The CRC covers the length field too: a bit flip that only changes the
    // length cannot re-frame the log into a different valid record stream.
    std::uint32_t crc = Crc32cExtend(Crc32cInit(), header, 4);
    crc = Crc32cFinish(Crc32cExtend(crc, body, static_cast<std::size_t>(length)));
    if (crc != stored_crc) {
      scan.tail = common::Internal("torn tail: crc mismatch at offset " +
                                   std::to_string(offset));
      scan.tail_kind = WalTailKind::kCorrupt;
      scan.valid_bytes = offset;
      return scan;
    }
    const std::uint64_t seq = ReadU64(body);
    if (!scan.records.empty() && seq != scan.records.back().seq + 1) {
      scan.tail = common::Internal(
          "torn tail: sequence discontinuity (" + std::to_string(scan.records.back().seq) +
          " -> " + std::to_string(seq) + ") at offset " + std::to_string(offset));
      scan.tail_kind = WalTailKind::kCorrupt;
      scan.valid_bytes = offset;
      return scan;
    }
    scan.records.push_back(WalRecord{
        .seq = seq, .payload = std::vector<std::uint8_t>(body + kSeqBytes, body + length)});
    offset += kHeaderBytes + length;
  }
  scan.valid_bytes = offset;
  return scan;
}

Wal::Wal(Storage& storage) : storage_(storage) {
  recovery_scan_ = Scan(storage_);
  if (recovery_scan_.valid_bytes < storage_.size()) {
    tail_truncated_bytes_ = storage_.size() - recovery_scan_.valid_bytes;
    reclaimed_bytes_ += tail_truncated_bytes_;
    // Durable under every sync policy: the repaired tail must not
    // resurrect after the next crash.
    storage_.Truncate(recovery_scan_.valid_bytes);
  }
  if (!recovery_scan_.records.empty()) {
    next_seq_ = recovery_scan_.records.back().seq + 1;
  }
}

void Wal::FrameRecord(std::uint64_t seq, const std::vector<std::uint8_t>& payload,
                      std::vector<std::uint8_t>* out) const {
  const std::uint64_t length = kSeqBytes + payload.size();
  const std::size_t base = out->size();
  out->resize(base + static_cast<std::size_t>(kHeaderBytes + length));
  std::uint8_t* p = out->data() + base;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(length >> (8 * i));
  // p[4..7] is the CRC slot, patched below once the body is in place.
  for (int i = 0; i < 8; ++i) {
    p[kHeaderBytes + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  if (!payload.empty()) {
    std::memcpy(p + kHeaderBytes + kSeqBytes, payload.data(), payload.size());
  }
  std::uint32_t crc = Crc32cExtend(Crc32cInit(), p, 4);
  crc = Crc32cFinish(Crc32cExtend(crc, p + kHeaderBytes, static_cast<std::size_t>(length)));
  for (int i = 0; i < 4; ++i) {
    p[4 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

common::Result<std::uint64_t> Wal::AppendBatch(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  if (payloads.empty()) return common::InvalidArgument("empty journal batch");
  // Validate before framing: an oversized payload must not leave a partial
  // batch in the storage or burn sequence numbers.
  for (const auto& payload : payloads) {
    if (kSeqBytes + payload.size() > kMaxRecordBytes) {
      return common::InvalidArgument(
          "journal record of " + std::to_string(payload.size()) +
          " bytes exceeds the " + std::to_string(kMaxRecordBytes) +
          "-byte record limit");
    }
  }
  const std::uint64_t first_seq = next_seq_;
  batch_scratch_.clear();
  for (const auto& payload : payloads) FrameRecord(next_seq_++, payload, &batch_scratch_);
  // One device append, one sync: the whole batch commits at one fsync
  // boundary (this Sync is where kGroupCommit pays its single fsync).
  storage_.Append(batch_scratch_.data(), batch_scratch_.size());
  storage_.Sync();
  appended_records_ += payloads.size();
  appended_bytes_ += batch_scratch_.size();
  ++batch_appends_;
  if (append_counter_ != nullptr) append_counter_->Inc(payloads.size());
  if (bytes_counter_ != nullptr) bytes_counter_->Inc(batch_scratch_.size());
  return first_seq;
}

std::uint64_t Wal::CutOffset(const std::uint8_t* data, std::uint64_t limit,
                             std::uint64_t upto_seq) {
  std::uint64_t offset = 0;
  while (offset + kHeaderBytes + kSeqBytes <= limit) {
    const std::uint64_t length = ReadU32(data + offset);
    const std::uint64_t seq = ReadU64(data + offset + kHeaderBytes);
    // Appends always leave the prefix boundary-valid; a malformed frame
    // here means the walk itself is off the rails, so stop compacting
    // rather than rewrite garbage.
    LW_DCHECK(length >= kSeqBytes && offset + kHeaderBytes + length <= limit)
        << "compaction walked off a record boundary at offset " << offset;
    if (length < kSeqBytes || offset + kHeaderBytes + length > limit) break;
    if (seq > upto_seq) break;
    offset += kHeaderBytes + length;
  }
  return offset;
}

common::Status Wal::Compact(std::uint64_t upto_seq) {
  const std::uint64_t before = storage_.size();
  if (before != 0) {
    if (upto_seq >= next_seq_ - 1) {
      // The floor covers every appended record (the common snapshot
      // cadence): drop the log without rescanning it — the last appended
      // sequence is next_seq_ - 1 by construction. Truncation is durable.
      storage_.Truncate(0);
    } else {
      std::vector<std::uint8_t> log(static_cast<std::size_t>(before));
      storage_.ReadAt(0, log.size(), log.data());
      const std::uint64_t cut = CutOffset(log.data(), before, upto_seq);
      if (cut > 0) {
        // Rewrite = keep the raw suffix bytes verbatim (framing is
        // position-independent) and install them atomically: over files
        // the old log stays intact until the rename, so a crash at any
        // byte of the rewrite recovers from the uncompacted log.
        storage_.ReplaceContents(log.data() + cut,
                                 static_cast<std::size_t>(before - cut));
      }
    }
  }
  ++compactions_;
  if (compaction_counter_ != nullptr) compaction_counter_->Inc();
  if (before > storage_.size()) {
    reclaimed_bytes_ += before - storage_.size();
    if (reclaimed_counter_ != nullptr) reclaimed_counter_->Inc(before - storage_.size());
  }
  return common::Status::Ok();
}

void Wal::SetNextSeq(std::uint64_t next_seq) {
  if (next_seq > next_seq_) next_seq_ = next_seq;
}

void Wal::AttachTelemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    bytes_counter_ = append_counter_ = compaction_counter_ = reclaimed_counter_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  bytes_counter_ = &metrics.GetCounter("lightwave_journal_bytes_total");
  append_counter_ = &metrics.GetCounter("lightwave_journal_appends_total");
  compaction_counter_ = &metrics.GetCounter("lightwave_journal_compactions_total");
  reclaimed_counter_ = &metrics.GetCounter("lightwave_journal_reclaimed_bytes_total");
}

}  // namespace lightwave::journal
