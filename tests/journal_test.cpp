// Durability-layer tests (CTest label `recovery`): WAL framing and torn-tail
// tolerance at every truncation offset, compaction keeping sequence numbers
// monotone, snapshot round-trip and corruption rejection, and replay's
// exactly-once suffix semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "journal/faulty_storage.h"
#include "journal/file_storage.h"
#include "journal/replay.h"
#include "journal/snapshot.h"
#include "journal/storage.h"
#include "journal/wal.h"
#include "storage_test_util.h"
#include "telemetry/hub.h"

namespace lightwave {
namespace {

std::vector<std::uint8_t> Payload(int i) {
  std::vector<std::uint8_t> bytes;
  for (int j = 0; j <= i % 7; ++j) bytes.push_back(static_cast<std::uint8_t>(i + j));
  return bytes;
}

journal::MemStorage LogWith(int records) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  for (int i = 0; i < records; ++i) {
    auto seq = wal.AppendBatch({Payload(i)});
    EXPECT_TRUE(seq.ok());
    EXPECT_EQ(seq.value(), static_cast<std::uint64_t>(i + 1));
  }
  return storage;
}

// Two scans agree field for field: every record's seq and payload,
// valid_bytes, the tail message and tail_kind.
void ExpectSameScan(const journal::WalScan& got, const journal::WalScan& want,
                    const std::string& context) {
  ASSERT_EQ(got.records.size(), want.records.size()) << context;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].seq, want.records[i].seq) << context << " record " << i;
    EXPECT_EQ(got.records[i].payload, want.records[i].payload) << context << " record " << i;
  }
  EXPECT_EQ(got.valid_bytes, want.valid_bytes) << context;
  ASSERT_EQ(got.tail.ok(), want.tail.ok()) << context;
  if (!want.tail.ok()) {
    EXPECT_EQ(got.tail.error().message, want.tail.error().message) << context;
  }
  EXPECT_EQ(got.tail_kind, want.tail_kind) << context;
}

TEST(Wal, AppendScanRoundTrip) {
  journal::MemStorage storage = LogWith(10);
  const auto scan = journal::Wal::Scan(storage);
  ASSERT_TRUE(scan.tail.ok()) << scan.tail.error().message;
  ASSERT_EQ(scan.records.size(), 10u);
  EXPECT_EQ(scan.valid_bytes, storage.size());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scan.records[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(scan.records[static_cast<std::size_t>(i)].payload, Payload(i));
  }
}

TEST(Wal, AppendBatchFramesBytesIdenticallyToSingleAppends) {
  // Group commit is a pure amortization: N records through one AppendBatch
  // must leave EXACTLY the bytes N one-record batches leave, so Scan,
  // torn-tail repair, and replay cannot tell the two apart.
  journal::MemStorage single = LogWith(10);
  journal::MemStorage batched;
  journal::Wal wal(batched);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 10; ++i) payloads.push_back(Payload(i));
  auto first = wal.AppendBatch(payloads);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  EXPECT_EQ(batched.bytes(), single.bytes());
  EXPECT_EQ(wal.next_seq(), 11u);
  EXPECT_EQ(wal.appended_records(), 10u);
  EXPECT_EQ(wal.batch_appends(), 1u);
  // A second batch continues the dense sequence.
  auto second = wal.AppendBatch({Payload(10), Payload(11)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 11u);
  const auto scan = journal::Wal::Scan(batched);
  ASSERT_TRUE(scan.tail.ok());
  EXPECT_EQ(scan.records.size(), 12u);
}

TEST(Wal, AppendBatchRejectsWholeBatchOnOversizedPayload) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(Payload(0));
  payloads.emplace_back(journal::Wal::kMaxRecordBytes, 0xAB);  // body > limit
  auto appended = wal.AppendBatch(payloads);
  ASSERT_FALSE(appended.ok());
  // Nothing landed, no sequence number burned: the batch is all-or-nothing.
  EXPECT_EQ(storage.size(), 0u);
  EXPECT_EQ(wal.next_seq(), 1u);
  EXPECT_FALSE(wal.AppendBatch({}).ok());
}

TEST(Wal, TornBatchTailRepairsLikeTornAppends) {
  // Tear a batched log mid-way through its last record; the constructor must
  // truncate back to the last whole record, exactly as with one-record
  // batches.
  journal::MemStorage storage;
  {
    journal::Wal wal(storage);
    ASSERT_TRUE(wal.AppendBatch({Payload(0), Payload(1), Payload(2)}).ok());
  }
  storage.bytes().resize(storage.bytes().size() - 3);
  journal::Wal reopened(storage);
  EXPECT_GT(reopened.tail_truncated_bytes(), 0u);
  EXPECT_EQ(reopened.recovery_scan().records.size(), 2u);
  EXPECT_EQ(reopened.next_seq(), 3u);
}

TEST(Wal, EveryTruncationOffsetScansCleanly) {
  // Chop the log at EVERY byte length. The scan must never crash, must keep
  // every record before the cut, and must report a torn tail unless the cut
  // lands exactly on a record boundary.
  const journal::MemStorage full = LogWith(8);
  const auto boundaries = [&] {
    std::vector<std::uint64_t> offs{0};
    const auto scan = journal::Wal::Scan(full);
    std::uint64_t off = 0;
    for (const auto& rec : scan.records) {
      off += 8 + 8 + rec.payload.size();  // header + seq + payload
      offs.push_back(off);
    }
    return offs;
  }();
  for (std::uint64_t cut = 0; cut <= full.size(); ++cut) {
    journal::MemStorage torn;
    torn.bytes().assign(full.bytes().begin(),
                        full.bytes().begin() + static_cast<long>(cut));
    const auto scan = journal::Wal::Scan(torn);
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
    EXPECT_EQ(scan.tail.ok(), at_boundary) << "cut at " << cut;
    EXPECT_LE(scan.valid_bytes, cut);
    // Recovery through the constructor must leave an appendable log.
    journal::Wal wal(torn);
    EXPECT_EQ(torn.size(), wal.recovery_scan().valid_bytes);
    EXPECT_EQ(wal.tail_truncated_bytes(), cut - wal.recovery_scan().valid_bytes);
    auto appended = wal.AppendBatch({{0xAB}});
    ASSERT_TRUE(appended.ok());
    EXPECT_EQ(appended.value(), wal.recovery_scan().records.size() + 1);
    EXPECT_TRUE(journal::Wal::Scan(torn).tail.ok());
  }
}

TEST(Wal, EveryBitFlipIsCaught) {
  // Flip every bit of a small log: the scan must stop at (or before) the
  // damaged record and keep all records in front of it intact.
  const journal::MemStorage full = LogWith(4);
  const auto clean = journal::Wal::Scan(full);
  for (std::size_t byte = 0; byte < full.bytes().size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      journal::MemStorage corrupt;
      corrupt.bytes() = full.bytes();
      corrupt.bytes()[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto scan = journal::Wal::Scan(corrupt);
      EXPECT_FALSE(scan.tail.ok()) << "flip at byte " << byte << " bit " << bit;
      ASSERT_LT(scan.records.size(), clean.records.size());
      for (std::size_t i = 0; i < scan.records.size(); ++i) {
        EXPECT_EQ(scan.records[i].seq, clean.records[i].seq);
        EXPECT_EQ(scan.records[i].payload, clean.records[i].payload);
      }
    }
  }
}

TEST(Wal, ImplausibleLengthStopsScan) {
  journal::MemStorage storage = LogWith(1);
  // A length field far beyond kMaxRecordBytes: the scanner must refuse to
  // allocate or read it.
  std::vector<std::uint8_t> bogus(16, 0xFF);
  storage.Append(bogus.data(), bogus.size());
  const auto scan = journal::Wal::Scan(storage);
  EXPECT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_NE(scan.tail.error().message.find("implausible"), std::string::npos);
}

TEST(Wal, SequenceDiscontinuityStopsScan) {
  // Build records 1..3 and 1..2 in separate logs, then splice log B's
  // records after log A's: the seq jump (3 -> 1) must end the scan.
  journal::MemStorage a = LogWith(3);
  const journal::MemStorage b = LogWith(2);
  a.bytes().insert(a.bytes().end(), b.bytes().begin(), b.bytes().end());
  const auto scan = journal::Wal::Scan(a);
  EXPECT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.records.size(), 3u);
  EXPECT_NE(scan.tail.error().message.find("discontinuity"), std::string::npos);
}

TEST(Wal, OversizedAppendRejected) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  std::vector<std::uint8_t> huge(journal::Wal::kMaxRecordBytes, 1);
  auto appended = wal.AppendBatch({huge});  // + 8 seq bytes pushes it over the limit
  EXPECT_FALSE(appended.ok());
  EXPECT_EQ(storage.size(), 0u);
  EXPECT_TRUE(wal.AppendBatch({std::vector<std::uint8_t>(100, 2)}).ok());
}

TEST(Wal, FullCompactionKeepsSequenceCounterMonotone) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  ASSERT_TRUE(wal.Compact(10).ok());
  EXPECT_EQ(storage.size(), 0u);
  // Exactly-once keying depends on this: post-compaction appends must NOT
  // reuse sequence numbers the snapshot already covers.
  auto appended = wal.AppendBatch({{0x01}});
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended.value(), 11u);
  EXPECT_GT(wal.reclaimed_bytes(), 0u);
}

TEST(Wal, PartialCompactionKeepsSuffix) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  ASSERT_TRUE(wal.Compact(6).ok());
  const auto scan = journal::Wal::Scan(storage);
  ASSERT_TRUE(scan.tail.ok());
  ASSERT_EQ(scan.records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(scan.records[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(7 + i));
    EXPECT_EQ(scan.records[static_cast<std::size_t>(i)].payload, Payload(6 + i));
  }
  EXPECT_EQ(wal.AppendBatch({{0x02}}).value(), 11u);
}

TEST(Wal, SetNextSeqNeverRewinds) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  wal.SetNextSeq(100);
  EXPECT_EQ(wal.next_seq(), 100u);
  wal.SetNextSeq(5);
  EXPECT_EQ(wal.next_seq(), 100u);
  EXPECT_EQ(wal.AppendBatch({{0x03}}).value(), 100u);
}

TEST(Snapshot, RoundTrip) {
  journal::MemStorage storage;
  const std::vector<std::uint8_t> state{1, 2, 3, 4, 5};
  ASSERT_TRUE(journal::SnapshotWriter::Write(storage, 42, state).ok());
  auto read = journal::SnapshotReader::Read(storage);
  ASSERT_TRUE(read.ok()) << read.error().message;
  EXPECT_EQ(read.value().last_included_seq, 42u);
  EXPECT_EQ(read.value().state, state);
  // A rewrite replaces, never appends.
  ASSERT_TRUE(journal::SnapshotWriter::Write(storage, 43, {9}).ok());
  auto reread = journal::SnapshotReader::Read(storage);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().last_included_seq, 43u);
  EXPECT_EQ(reread.value().state, std::vector<std::uint8_t>{9});
}

TEST(Snapshot, EmptyStorageIsNotFound) {
  journal::MemStorage storage;
  auto read = journal::SnapshotReader::Read(storage);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, common::Error::Code::kNotFound);
}

TEST(Snapshot, EveryBitFlipAndTruncationRejected) {
  journal::MemStorage clean;
  ASSERT_TRUE(journal::SnapshotWriter::Write(clean, 7, {10, 20, 30}).ok());
  for (std::size_t byte = 0; byte < clean.bytes().size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      journal::MemStorage corrupt;
      corrupt.bytes() = clean.bytes();
      corrupt.bytes()[byte] ^= static_cast<std::uint8_t>(1u << bit);
      auto read = journal::SnapshotReader::Read(corrupt);
      ASSERT_FALSE(read.ok()) << "flip at byte " << byte << " bit " << bit;
      EXPECT_EQ(read.error().code, common::Error::Code::kInternal);
    }
  }
  for (std::size_t cut = 1; cut < clean.bytes().size(); ++cut) {
    journal::MemStorage truncated;
    truncated.bytes().assign(clean.bytes().begin(),
                             clean.bytes().begin() + static_cast<long>(cut));
    EXPECT_FALSE(journal::SnapshotReader::Read(truncated).ok()) << cut;
  }
}

TEST(Replay, SkipsRecordsTheSnapshotCovers) {
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  {
    journal::Wal wal(wal_storage);
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  }
  ASSERT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 5, {0xAA}).ok());

  journal::Wal wal(wal_storage);
  std::vector<std::uint8_t> snapshot_state;
  std::vector<std::uint64_t> applied;
  auto recovery = journal::Replay(
      snapshot_storage, wal,
      [&](const journal::Snapshot& snap) {
        snapshot_state = snap.state;
        return common::Status::Ok();
      },
      [&](const journal::WalRecord& record) {
        applied.push_back(record.seq);
        return common::Status::Ok();
      });
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery.value().snapshot_loaded);
  EXPECT_EQ(recovery.value().snapshot_seq, 5u);
  EXPECT_EQ(recovery.value().records_skipped, 5u);
  EXPECT_EQ(recovery.value().records_replayed, 3u);
  EXPECT_TRUE(recovery.value().wal_clean);
  EXPECT_EQ(snapshot_state, std::vector<std::uint8_t>{0xAA});
  EXPECT_EQ(applied, (std::vector<std::uint64_t>{6, 7, 8}));
}

TEST(Replay, FastForwardsSeqPastCompactedLog) {
  // Snapshot at seq 20, log fully compacted: the next append must be 21.
  journal::MemStorage wal_storage;
  journal::MemStorage snapshot_storage;
  ASSERT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 20, {1}).ok());
  journal::Wal wal(wal_storage);
  auto recovery = journal::Replay(
      snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
      [](const journal::WalRecord&) { return common::Status::Ok(); });
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(wal.next_seq(), 21u);
  EXPECT_EQ(wal.AppendBatch({{0x04}}).value(), 21u);
}

TEST(Replay, ReportsTornTailAndRecordsMetrics) {
  journal::MemStorage wal_storage = LogWith(5);
  journal::MemStorage snapshot_storage;
  wal_storage.bytes().resize(wal_storage.bytes().size() - 3);  // torn mid-record
  journal::Wal wal(wal_storage);
  telemetry::Hub hub;
  std::uint64_t replayed = 0;
  auto recovery = journal::Replay(
      snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
      [&](const journal::WalRecord&) {
        ++replayed;
        return common::Status::Ok();
      },
      &hub);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery.value().snapshot_loaded);
  EXPECT_FALSE(recovery.value().wal_clean);
  EXPECT_GT(recovery.value().torn_bytes_discarded, 0u);
  EXPECT_EQ(recovery.value().records_replayed, 4u);
  EXPECT_EQ(replayed, 4u);
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_journal_recoveries_total").value(), 1u);
  EXPECT_EQ(hub.metrics().GetHistogram("lightwave_journal_recovery_latency_ms").count(),
            1u);
}

TEST(Replay, CorruptSnapshotIsAHardError) {
  journal::MemStorage wal_storage = LogWith(2);
  journal::MemStorage snapshot_storage;
  ASSERT_TRUE(journal::SnapshotWriter::Write(snapshot_storage, 1, {5}).ok());
  snapshot_storage.bytes()[6] ^= 0x40;
  journal::Wal wal(wal_storage);
  auto recovery = journal::Replay(
      snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
      [](const journal::WalRecord&) { return common::Status::Ok(); });
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, common::Error::Code::kInternal);
}

// ---------------------------------------------------------------------------
// Storage contract (the PR 9 bugfixes): Truncate may not grow, ReadAt may
// not read out of range — enforced, not silently tolerated.

/// Installs a recording handler so a tripped contract does not abort; the
/// guarded implementations must then still stay memory-safe.
class CheckRecorder {
 public:
  CheckRecorder()
      : scoped_([this](const common::CheckFailure& failure) {
          ++failures_;
          last_ = common::FormatCheckFailure(failure);
        }) {}
  int failures() const { return failures_; }
  const std::string& last() const { return last_; }

 private:
  int failures_ = 0;
  std::string last_;
  common::ScopedCheckHandler scoped_;
};

TEST(StorageContract, TruncateGrowTripsCheckAndDoesNotGrow) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  journal::MemStorage mem;
  auto file = journal::FileStorage::Open(tmp.Path("grow.log"));
  ASSERT_TRUE(file.ok());
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  for (journal::Storage* storage :
       std::initializer_list<journal::Storage*>{&mem, file.value().get()}) {
    storage->Append(bytes, sizeof(bytes));
    CheckRecorder recorder;
    storage->Truncate(10);  // growing is not supported
    EXPECT_EQ(recorder.failures(), 1) << recorder.last();
    EXPECT_EQ(storage->size(), 4u);  // and the device did not grow
    storage->Truncate(1);  // shrinking still works
    EXPECT_EQ(storage->size(), 1u);
  }
}

TEST(StorageContract, ReadAtOutOfRangeTripsDcheckAndStaysInBounds) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  journal::MemStorage mem;
  auto file = journal::FileStorage::Open(tmp.Path("oob.log"));
  ASSERT_TRUE(file.ok());
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  for (journal::Storage* storage :
       std::initializer_list<journal::Storage*>{&mem, file.value().get()}) {
    storage->Append(bytes, sizeof(bytes));
    CheckRecorder recorder;
    std::uint8_t out[16] = {0xAA, 0xAA, 0xAA, 0xAA};
    storage->ReadAt(2, 8, out);  // overruns size() == 4
    if (common::kDchecksEnabled) {
      EXPECT_EQ(recorder.failures(), 1) << recorder.last();
    }
    // Whether or not the dcheck fired (NDEBUG), no out-of-range byte may
    // have been copied: the guarded read leaves the buffer untouched.
    EXPECT_EQ(out[0], 0xAA);
    // Offset past the end entirely, and an offset+n overflow candidate.
    storage->ReadAt(100, 1, out);
    EXPECT_EQ(out[0], 0xAA);
  }
}

// ---------------------------------------------------------------------------
// FileStorage: the Storage contract over a real fd.

TEST(FileStorage, AppendReadAndReopenPersistence) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.Path("wal.log");
  {
    auto storage = journal::FileStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    journal::Wal wal(*storage.value());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  }
  // A fresh process: reopen and recover.
  auto reopened = journal::FileStorage::Open(path);
  ASSERT_TRUE(reopened.ok());
  journal::Wal wal(*reopened.value());
  ASSERT_TRUE(wal.recovery_scan().tail.ok());
  ASSERT_EQ(wal.recovery_scan().records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(wal.recovery_scan().records[static_cast<std::size_t>(i)].payload,
              Payload(i));
  }
  EXPECT_EQ(wal.next_seq(), 9u);
}

TEST(FileStorage, SyncPolicyGovernsTheDurableFrontier) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};

  // kGroupCommit: written != durable until the explicit Sync (the Wal's
  // append boundary), which costs exactly one fsync.
  journal::FileStorageOptions group;
  group.policy = journal::SyncPolicy::kGroupCommit;
  auto gc = journal::FileStorage::Open(tmp.Path("group.log"), group);
  ASSERT_TRUE(gc.ok());
  gc.value()->Append(bytes, sizeof(bytes));
  gc.value()->Append(bytes, sizeof(bytes));
  EXPECT_EQ(gc.value()->size(), 16u);
  EXPECT_EQ(gc.value()->durable_size(), 0u);
  EXPECT_EQ(gc.value()->fsync_count(), 0u);
  gc.value()->Sync();
  EXPECT_EQ(gc.value()->durable_size(), 16u);
  EXPECT_EQ(gc.value()->fsync_count(), 1u);

  // kPeriodic with a far-future interval: Sync declines until forced.
  journal::FileStorageOptions periodic;
  periodic.policy = journal::SyncPolicy::kPeriodic;
  periodic.periodic_interval = std::chrono::milliseconds(3600 * 1000);
  auto pd = journal::FileStorage::Open(tmp.Path("periodic.log"), periodic);
  ASSERT_TRUE(pd.ok());
  pd.value()->Append(bytes, sizeof(bytes));
  pd.value()->Sync();
  EXPECT_EQ(pd.value()->durable_size(), 0u) << "interval not elapsed; Sync must decline";
  pd.value()->SyncNow();
  EXPECT_EQ(pd.value()->durable_size(), 8u);
}

TEST(FileStorage, TruncateIsDurableUnderEveryPolicy) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  journal::FileStorageOptions options;
  options.policy = journal::SyncPolicy::kGroupCommit;
  auto storage = journal::FileStorage::Open(tmp.Path("trunc.log"), options);
  ASSERT_TRUE(storage.ok());
  const std::uint8_t bytes[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  storage.value()->Append(bytes, sizeof(bytes));
  storage.value()->Truncate(3);
  EXPECT_EQ(storage.value()->size(), 3u);
  // Torn-tail repair must survive the next crash: the truncation itself is
  // synced even though the append never was.
  EXPECT_EQ(storage.value()->durable_size(), 3u);
}

TEST(FileStorage, ReplaceContentsIsAtomicAndOpenDiscardsStaleTmp) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.Path("replace.log");
  {
    auto storage = journal::FileStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    const std::uint8_t old_bytes[4] = {1, 1, 1, 1};
    storage.value()->Append(old_bytes, sizeof(old_bytes));
    const std::uint8_t new_bytes[6] = {2, 2, 2, 2, 2, 2};
    storage.value()->ReplaceContents(new_bytes, sizeof(new_bytes));
    EXPECT_EQ(storage.value()->size(), 6u);
    EXPECT_EQ(storage.value()->durable_size(), 6u);
    std::uint8_t out[6] = {};
    storage.value()->ReadAt(0, 6, out);
    EXPECT_EQ(out[0], 2);
  }
  // A crashed rewrite leaves a stale tmp beside the log; Open must discard
  // it (the old log wins) instead of ever confusing it for the data.
  {
    std::ofstream stale(journal::ReplaceTmpPath(path), std::ios::binary);
    stale << "garbage from a dead compaction";
  }
  auto reopened = journal::FileStorage::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->size(), 6u);
  EXPECT_FALSE(std::filesystem::exists(journal::ReplaceTmpPath(path)));
}

TEST(FileStorage, EveryTruncationOffsetScansCleanly) {
  // The MemStorage torn-tail sweep, re-run against real files: for every
  // prefix length of a valid log, recovery must yield exactly the records
  // whose frames fit the prefix, with no crash and no misparse.
  journal::MemStorage oracle = LogWith(6);
  const auto full = journal::Wal::Scan(oracle);
  ASSERT_TRUE(full.tail.ok());
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  std::vector<std::uint64_t> boundaries;  // frame-end offsets
  {
    std::uint64_t off = 0;
    for (const auto& record : full.records) {
      off += 16 + record.payload.size();
      boundaries.push_back(off);
    }
  }
  const std::string path = tmp.Path("sweep.log");
  for (std::uint64_t cut = 0; cut <= oracle.size(); ++cut) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(oracle.bytes().data()),
              static_cast<std::streamsize>(cut));
    }
    auto storage = journal::FileStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    journal::Wal wal(*storage.value());
    // The scan over the file frames exactly what a MemStorage scan of the
    // same bytes frames.
    journal::MemStorage same_bytes;
    same_bytes.bytes().assign(oracle.bytes().begin(),
                              oracle.bytes().begin() + static_cast<long>(cut));
    ExpectSameScan(wal.recovery_scan(), journal::Wal::Scan(same_bytes),
                   "cut=" + std::to_string(cut));
    const std::size_t expect =
        static_cast<std::size_t>(std::count_if(boundaries.begin(), boundaries.end(),
                                               [&](std::uint64_t b) { return b <= cut; }));
    ASSERT_EQ(wal.recovery_scan().records.size(), expect) << "cut=" << cut;
    // Repair truncated to the last boundary, durably.
    EXPECT_EQ(storage.value()->size(), expect == 0 ? 0 : boundaries[expect - 1]);
    EXPECT_EQ(storage.value()->durable_size(), storage.value()->size());
  }
}

// ---------------------------------------------------------------------------
// FaultyStorage: crash realism — lost sync windows and torn final appends.

TEST(FaultyStorage, CrashDropsTheUnsyncedTail) {
  journal::MemStorage base = LogWith(3);
  const std::uint64_t durable = base.size();
  journal::FaultyStorage faulty(base, journal::FaultyStorage::SyncMode::kNever);
  journal::Wal wal(faulty);
  ASSERT_TRUE(wal.AppendBatch({Payload(3)}).ok());
  ASSERT_TRUE(wal.AppendBatch({Payload(4)}).ok());
  EXPECT_EQ(faulty.durable_size(), durable) << "kNever must ignore the Wal's syncs";
  faulty.Crash();
  journal::Wal recovered(base);
  ASSERT_TRUE(recovered.recovery_scan().tail.ok());
  EXPECT_EQ(recovered.recovery_scan().records.size(), 3u);
  EXPECT_EQ(recovered.next_seq(), 4u);
}

TEST(FaultyStorage, SyncModesAdvanceTheFrontierAsDocumented) {
  const std::uint8_t bytes[4] = {7, 7, 7, 7};
  journal::MemStorage base_on_sync;
  journal::FaultyStorage on_sync(base_on_sync, journal::FaultyStorage::SyncMode::kOnSync);
  on_sync.Append(bytes, sizeof(bytes));
  EXPECT_EQ(on_sync.durable_size(), 0u);
  on_sync.Sync();
  EXPECT_EQ(on_sync.durable_size(), 4u);

  journal::MemStorage base_never;
  journal::FaultyStorage never(base_never, journal::FaultyStorage::SyncMode::kNever);
  never.Append(bytes, sizeof(bytes));
  never.Sync();
  EXPECT_EQ(never.durable_size(), 0u);
}

TEST(FaultyStorage, TearAtEveryByteOfTheFinalAppend) {
  // The satellite sweep, against BOTH storage kinds: a crash k bytes into
  // the final append must recover all prior records for every k, classify
  // the tail as a truncation (never corruption), and recover everything
  // when k covers the whole frame.
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  for (const bool file_backed : {false, true}) {
    // Probe one run to learn the final frame size.
    std::uint64_t final_frame = 0;
    {
      journal::MemStorage probe;
      journal::FaultyStorage faulty(probe, journal::FaultyStorage::SyncMode::kNever);
      journal::Wal wal(faulty);
      for (int i = 0; i < 5; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
      final_frame = faulty.final_append_bytes();
    }
    ASSERT_GT(final_frame, 0u);
    for (std::uint64_t k = 0; k <= final_frame; ++k) {
      journal::MemStorage mem;
      std::unique_ptr<journal::FileStorage> file;
      journal::Storage* base = &mem;
      if (file_backed) {
        auto opened = journal::FileStorage::Open(
            tmp.Path("tear_" + std::to_string(k) + ".log"));
        ASSERT_TRUE(opened.ok());
        file = std::move(opened.value());
        base = file.get();
      }
      journal::FaultyStorage faulty(*base, journal::FaultyStorage::SyncMode::kNever);
      {
        journal::Wal wal(faulty);
        for (int i = 0; i < 5; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
      }
      faulty.CrashTearingFinalAppend(k);
      journal::Wal recovered(*base);
      const auto& scan = recovered.recovery_scan();
      if (k == final_frame) {
        EXPECT_TRUE(scan.tail.ok()) << "k=" << k;
        EXPECT_EQ(scan.records.size(), 5u);
      } else {
        EXPECT_EQ(scan.records.size(), 4u) << "k=" << k;
        if (k == 0) {
          EXPECT_TRUE(scan.tail.ok()) << "k=0 ends at a boundary";
        } else {
          EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kTruncated)
              << "k=" << k << ": a torn append is a truncation, not corruption";
        }
      }
      EXPECT_EQ(recovered.next_seq(), scan.records.size() + 1);
    }
  }
}

TEST(FaultyStorage, SyncedBytesNeverTearAway) {
  // Under kOnSync the Wal's per-append sync makes each record durable; a
  // tear request clamped to the frontier must not lose any of them.
  journal::MemStorage base;
  journal::FaultyStorage faulty(base, journal::FaultyStorage::SyncMode::kOnSync);
  {
    journal::Wal wal(faulty);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  }
  faulty.CrashTearingFinalAppend(0);  // would drop the final append...
  journal::Wal recovered(base);
  // ...but it was synced, so nothing tears.
  EXPECT_EQ(recovered.recovery_scan().records.size(), 4u);
}

// ---------------------------------------------------------------------------
// Tail-kind classification: clean EOF mid-sync-window vs genuine corruption.

TEST(Wal, TailKindSplitsTruncationFromCorruption) {
  // Truncation: cut mid-record.
  journal::MemStorage torn = LogWith(4);
  torn.bytes().resize(torn.bytes().size() - 3);
  auto scan = journal::Wal::Scan(torn);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kTruncated);

  // Truncation: zero-filled tail (filesystem extended the file with zero
  // pages on crash).
  journal::MemStorage zeros = LogWith(4);
  const std::size_t valid = zeros.bytes().size();
  zeros.bytes().resize(valid + 32, 0);
  scan = journal::Wal::Scan(zeros);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kTruncated);
  EXPECT_EQ(scan.valid_bytes, valid);
  EXPECT_EQ(scan.records.size(), 4u);

  // Corruption: a bit flip inside a complete record (CRC mismatch).
  journal::MemStorage flipped = LogWith(4);
  flipped.bytes()[20] ^= 0x10;
  scan = journal::Wal::Scan(flipped);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kCorrupt);

  // Corruption: implausible length with the full header present.
  journal::MemStorage lying = LogWith(1);
  lying.bytes()[0] = 0xFF;
  lying.bytes()[1] = 0xFF;
  lying.bytes()[2] = 0xFF;
  lying.bytes()[3] = 0xFF;
  scan = journal::Wal::Scan(lying);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kCorrupt);
}

TEST(Wal, ZeroedHeaderInsideDurablePrefixIsCorruption) {
  // A device zeroing header bytes that were already durable (MemStorage:
  // durable_size == size) must raise the corruption alarm — the bytes
  // after the zeroed header are nonzero, so this is not the filesystem
  // zero-extension artifact.
  journal::MemStorage damaged = LogWith(4);
  for (std::size_t i = 0; i < 8; ++i) damaged.bytes()[i] = 0;
  const auto scan = journal::Wal::Scan(damaged);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kCorrupt);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Wal, ZeroedHeaderAboveDurableFrontierIsTruncation) {
  // Above the durable frontier nothing was ever promised: a zeroed header
  // there is the expected crash artifact even when stray nonzero bytes
  // follow it (a torn page mix), so it must NOT count as corruption.
  journal::MemStorage mem;
  {
    journal::Wal wal(mem);
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  }
  journal::FaultyStorage faulty(mem);  // frontier pinned at the current size
  for (int i = 0; i < 8; ++i) mem.bytes().push_back(0);
  mem.bytes().push_back(0xAB);
  mem.bytes().push_back(0xCD);
  const auto scan = journal::Wal::Scan(faulty);
  ASSERT_FALSE(scan.tail.ok());
  EXPECT_EQ(scan.tail_kind, journal::WalTailKind::kTruncated);
  EXPECT_EQ(scan.valid_bytes, faulty.durable_size());
  EXPECT_EQ(scan.records.size(), 2u);
}

// Forwards to a MemStorage and counts the ReadAt calls made through it.
class ReadCountingStorage final : public journal::Storage {
 public:
  explicit ReadCountingStorage(journal::MemStorage& base) : base_(base) {}
  std::uint64_t size() const override { return base_.size(); }
  void Append(const std::uint8_t* data, std::size_t n) override { base_.Append(data, n); }
  void ReadAt(std::uint64_t offset, std::size_t n, std::uint8_t* out) const override {
    ++reads_;
    base_.ReadAt(offset, n, out);
  }
  void Truncate(std::uint64_t new_size) override { base_.Truncate(new_size); }
  int TakeReads() { return std::exchange(reads_, 0); }

 private:
  journal::MemStorage& base_;
  mutable int reads_ = 0;
};

TEST(Wal, ScanReadsTheLogInOneCall) {
  // A recover-workload shard log: 3072 records, read in one call by Scan
  // and again by the constructor (a header-then-body scan made 6144).
  journal::MemStorage log = LogWith(3072);
  ReadCountingStorage counted(log);
  const auto scan = journal::Wal::Scan(counted);
  ASSERT_TRUE(scan.tail.ok()) << scan.tail.error().message;
  EXPECT_EQ(scan.records.size(), 3072u);
  EXPECT_EQ(counted.TakeReads(), 1);
  {
    journal::Wal wal(counted);
    EXPECT_EQ(counted.TakeReads(), 1);
    EXPECT_EQ(wal.next_seq(), 3073u);
  }

  // An empty log is not read at all.
  journal::MemStorage empty;
  ReadCountingStorage counted_empty(empty);
  EXPECT_TRUE(journal::Wal::Scan(counted_empty).tail.ok());
  {
    journal::Wal wal(counted_empty);
    EXPECT_EQ(wal.next_seq(), 1u);
  }
  EXPECT_EQ(counted_empty.TakeReads(), 0);

  // A zeroed fifth header amid nonzero durable bytes: the bytes behind it
  // are checked in the same buffer, and the diagnosis is still corruption.
  journal::MemStorage damaged = LogWith(8);
  const std::uint64_t fifth = [&] {
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < 4; ++i) offset += 16 + Payload(static_cast<int>(i)).size();
    return offset;
  }();
  for (std::uint64_t i = fifth; i < fifth + 8; ++i) damaged.bytes()[i] = 0;
  ReadCountingStorage counted_damaged(damaged);
  const auto damaged_scan = journal::Wal::Scan(counted_damaged);
  ASSERT_FALSE(damaged_scan.tail.ok());
  EXPECT_EQ(damaged_scan.tail_kind, journal::WalTailKind::kCorrupt);
  EXPECT_EQ(damaged_scan.valid_bytes, fifth);
  EXPECT_EQ(damaged_scan.records.size(), 4u);
  EXPECT_EQ(counted_damaged.TakeReads(), 1);
  journal::Wal wal(counted_damaged);
  EXPECT_EQ(counted_damaged.TakeReads(), 1);
  EXPECT_EQ(wal.recovery_scan().tail_kind, journal::WalTailKind::kCorrupt);
  EXPECT_EQ(damaged.size(), fifth);
}

TEST(Replay, SplitsTailCountersByKindAndRecordsMetrics) {
  // Truncated tail -> tail_truncations, not corruptions.
  {
    journal::MemStorage wal_storage = LogWith(5);
    journal::MemStorage snapshot_storage;
    wal_storage.bytes().resize(wal_storage.bytes().size() - 3);
    journal::Wal wal(wal_storage);
    telemetry::Hub hub;
    auto recovery = journal::Replay(
        snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
        [](const journal::WalRecord&) { return common::Status::Ok(); }, &hub);
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery.value().tail_truncations, 1u);
    EXPECT_EQ(recovery.value().tail_corruptions, 0u);
    EXPECT_EQ(hub.metrics().GetCounter("lightwave_journal_tail_truncated_total").value(),
              1u);
    EXPECT_EQ(hub.metrics().GetCounter("lightwave_journal_tail_corrupt_total").value(),
              0u);
  }
  // Corrupt tail (bit flip) -> tail_corruptions.
  {
    journal::MemStorage wal_storage = LogWith(5);
    journal::MemStorage snapshot_storage;
    wal_storage.bytes()[20] ^= 0x10;
    journal::Wal wal(wal_storage);
    telemetry::Hub hub;
    auto recovery = journal::Replay(
        snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
        [](const journal::WalRecord&) { return common::Status::Ok(); }, &hub);
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery.value().tail_truncations, 0u);
    EXPECT_EQ(recovery.value().tail_corruptions, 1u);
    EXPECT_EQ(hub.metrics().GetCounter("lightwave_journal_tail_corrupt_total").value(),
              1u);
  }
  // A clean log counts in neither bucket.
  {
    journal::MemStorage wal_storage = LogWith(5);
    journal::MemStorage snapshot_storage;
    journal::Wal wal(wal_storage);
    auto recovery = journal::Replay(
        snapshot_storage, wal, [](const journal::Snapshot&) { return common::Status::Ok(); },
        [](const journal::WalRecord&) { return common::Status::Ok(); });
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery.value().tail_truncations, 0u);
    EXPECT_EQ(recovery.value().tail_corruptions, 0u);
  }
}

// ---------------------------------------------------------------------------
// Compaction: atomic installs.

TEST(Wal, PartialCompactionSurvivesReopenOnFiles) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.Path("compact.log");
  {
    auto storage = journal::FileStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    journal::Wal wal(*storage.value());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
    ASSERT_TRUE(wal.Compact(4).ok());
    EXPECT_EQ(wal.next_seq(), 9u);
  }
  auto reopened = journal::FileStorage::Open(path);
  ASSERT_TRUE(reopened.ok());
  journal::Wal wal(*reopened.value());
  const auto& scan = wal.recovery_scan();
  ASSERT_TRUE(scan.tail.ok());
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records.front().seq, 5u);
  EXPECT_EQ(scan.records.back().seq, 8u);
  EXPECT_FALSE(std::filesystem::exists(journal::ReplaceTmpPath(path)));
}

TEST(Wal, CrashMidCompactionOldLogWins) {
  // Model the crash window of a partial compaction between "wrote the tmp
  // file" and "renamed it": the tmp exists, the log is untouched. Reopen
  // must recover the FULL uncompacted log and discard the tmp.
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.Path("midcompact.log");
  {
    auto storage = journal::FileStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    journal::Wal wal(*storage.value());
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(wal.AppendBatch({Payload(i)}).ok());
  }
  {
    // The dead compaction's tmp: a plausible-looking but never-renamed file.
    std::ofstream stale(journal::ReplaceTmpPath(path), std::ios::binary);
    stale << "compacted bytes that never got installed";
  }
  auto reopened = journal::FileStorage::Open(path);
  ASSERT_TRUE(reopened.ok());
  journal::Wal wal(*reopened.value());
  ASSERT_TRUE(wal.recovery_scan().tail.ok());
  EXPECT_EQ(wal.recovery_scan().records.size(), 6u) << "the old log wins until the rename";
  EXPECT_FALSE(std::filesystem::exists(journal::ReplaceTmpPath(path)));
}

TEST(Snapshot, WriteIsAtomicOverFiles) {
  testutil::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.Path("snap");
  auto storage = journal::FileStorage::Open(path);
  ASSERT_TRUE(storage.ok());
  const std::vector<std::uint8_t> state_a = {1, 2, 3};
  const std::vector<std::uint8_t> state_b = {4, 5, 6, 7};
  ASSERT_TRUE(journal::SnapshotWriter::Write(*storage.value(), 10, state_a).ok());
  ASSERT_TRUE(journal::SnapshotWriter::Write(*storage.value(), 20, state_b).ok());
  auto snapshot = journal::SnapshotReader::Read(*storage.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().last_included_seq, 20u);
  EXPECT_EQ(snapshot.value().state, state_b);
  EXPECT_EQ(storage.value()->durable_size(), storage.value()->size());
  // Reopen: the rename committed.
  auto reopened = journal::FileStorage::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto again = journal::SnapshotReader::Read(*reopened.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().last_included_seq, 20u);
}

TEST(Crc32c, MatchesKnownVector) {
  // RFC 3720 test vector: CRC32C over 32 zero bytes.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(journal::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // And the classic "123456789" check value.
  const std::string digits = "123456789";
  EXPECT_EQ(journal::Crc32c(reinterpret_cast<const std::uint8_t*>(digits.data()),
                            digits.size()),
            0xE3069283u);
}

}  // namespace
}  // namespace lightwave
