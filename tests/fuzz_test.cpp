// Fuzz and randomized-property tests: the wire codec must never crash or
// mis-decode on corrupted frames; the scheduler's snapshot import must fail
// cleanly on damaged state; the Palomar switch must hold its invariants
// under arbitrary command sequences; the RS decoder must agree with
// brute-force nearest-codeword decoding on a tiny code.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "ctrl/controller.h"
#include "ctrl/messages.h"
#include "ctrl/wire.h"
#include "fec/reed_solomon.h"
#include "journal/snapshot.h"
#include "journal/storage.h"
#include "journal/wal.h"
#include "ocs/palomar.h"
#include "svc/command.h"
#include "tpu/slice.h"
#include "tpu/superpod.h"

namespace lightwave {
namespace {

// --- wire-format fuzzing ------------------------------------------------------

TEST(Fuzz, RandomBytesNeverDecode) {
  common::Rng rng(1);
  int decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.UniformInt(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    // None of these may crash; decoding junk should essentially never
    // succeed (the CRC gate).
    if (ctrl::UnframeMessage(junk).has_value()) ++decoded;
    (void)ctrl::PeekType(junk);
    (void)ctrl::DecodeReconfigureRequest(junk);
    (void)ctrl::DecodeTelemetryReply(junk);
    (void)ctrl::DecodePortSurveyReply(junk);
  }
  EXPECT_EQ(decoded, 0);
}

TEST(Fuzz, SingleBitFlipsAlwaysCaught) {
  // Flip every bit of a real frame one at a time: the CRC (or version/tag
  // checks) must reject every mutation — or, if it decodes, it must not
  // equal a different valid message silently claiming the same transaction.
  ctrl::ReconfigureRequest request;
  request.transaction_id = 99;
  for (int i = 0; i < 16; ++i) request.target[i] = 15 - i;
  const auto frame = ctrl::Encode(request);
  int accepted = 0;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      if (auto decoded = ctrl::DecodeReconfigureRequest(mutated)) ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, TruncationsNeverCrash) {
  ctrl::PortSurveyReply reply;
  reply.nonce = 7;
  for (int i = 0; i < 32; ++i) {
    reply.entries.push_back(ctrl::PortSurveyEntry{i, 127 - i, 1.5, -45.0});
  }
  const auto frame = ctrl::Encode(reply);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<std::uint8_t> prefix(frame.begin(), frame.begin() + static_cast<long>(len));
    EXPECT_FALSE(ctrl::DecodePortSurveyReply(prefix).has_value()) << len;
  }
}

TEST(Fuzz, TruncatedRepliesNeverDecodeOrCrash) {
  // Every proper prefix of a valid ReconfigureReply / TelemetryReply frame
  // must fail to decode cleanly — the controller's retry loop depends on
  // truncated replies looking exactly like loss, never like a wrong decode.
  ctrl::ReconfigureReply reconf;
  reconf.transaction_id = 42;
  reconf.ok = false;
  reconf.error = "mirror chain dead under port 7";
  reconf.established = 2;
  reconf.duration_ms = 11.0;
  const auto reconf_frame = ctrl::Encode(reconf);
  for (std::size_t len = 0; len < reconf_frame.size(); ++len) {
    std::vector<std::uint8_t> prefix(reconf_frame.begin(),
                                     reconf_frame.begin() + static_cast<long>(len));
    EXPECT_FALSE(ctrl::DecodeReconfigureReply(prefix).has_value()) << len;
  }

  ctrl::TelemetryReply telemetry;
  telemetry.nonce = 17;
  telemetry.connects = 12;
  telemetry.power_draw_w = 104.5;
  telemetry.chassis_operational = true;
  const auto telemetry_frame = ctrl::Encode(telemetry);
  for (std::size_t len = 0; len < telemetry_frame.size(); ++len) {
    std::vector<std::uint8_t> prefix(telemetry_frame.begin(),
                                     telemetry_frame.begin() + static_cast<long>(len));
    EXPECT_FALSE(ctrl::DecodeTelemetryReply(prefix).has_value()) << len;
  }
}

TEST(Fuzz, TransactionIdZeroCorpusExecutesOnFreshAgents) {
  // Regression corpus for the idempotency-cache sentinel bug: a fresh agent
  // must execute transaction id 0 (and then answer retries from the cache),
  // for arbitrary valid targets.
  common::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    ocs::PalomarSwitch ocs(9000 + static_cast<std::uint64_t>(trial));
    ctrl::OcsAgent agent(ocs);
    ctrl::ReconfigureRequest request;
    request.transaction_id = 0;
    std::set<int> souths;
    const int conns = 1 + static_cast<int>(rng.UniformInt(16));
    for (int i = 0; i < conns; ++i) {
      const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const int s = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      if (!request.target.contains(n) && !souths.contains(s)) {
        request.target[n] = s;
        souths.insert(s);
      }
    }
    const auto reply = ctrl::DecodeReconfigureReply(agent.Handle(ctrl::Encode(request)));
    ASSERT_TRUE(reply.has_value()) << trial;
    EXPECT_TRUE(reply->ok) << trial << ": " << reply->error;
    EXPECT_EQ(ocs.telemetry().reconfigurations, 1u) << trial;
    const auto retry = ctrl::DecodeReconfigureReply(agent.Handle(ctrl::Encode(request)));
    ASSERT_TRUE(retry.has_value()) << trial;
    EXPECT_EQ(ocs.telemetry().reconfigurations, 1u) << trial;
  }
}

TEST(Fuzz, RandomMessagesRoundTripExactly) {
  common::Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    ctrl::ReconfigureRequest request;
    request.transaction_id = rng.NextU64();
    const int conns = static_cast<int>(rng.UniformInt(128));
    std::set<int> souths;
    for (int i = 0; i < conns; ++i) {
      const int n = static_cast<int>(rng.UniformInt(128));
      const int s = static_cast<int>(rng.UniformInt(128));
      request.target[n] = s;
    }
    const auto decoded = ctrl::DecodeReconfigureRequest(ctrl::Encode(request));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->transaction_id, request.transaction_id);
    EXPECT_EQ(decoded->target, request.target);
  }
}

TEST(Fuzz, MalformedFramesFireTheContractHandler) {
  // Every unframe rejection path is an LW_ENSURE contract: the decode must
  // fail AND the failure handler must fire, so corrupt frames surface in
  // counters instead of vanishing silently. One crafted frame per rejection
  // category, each asserted to report exactly once.
  std::vector<lightwave::common::CheckFailure> failures;
  common::ScopedCheckHandler guard(
      [&failures](const common::CheckFailure& f) { failures.push_back(f); });
  const auto fired_once = [&failures] {
    const std::size_t n = failures.size();
    failures.clear();
    return n == 1;
  };

  const auto good = ctrl::FrameMessage({0xAA, 0xBB, 0xCC});
  ASSERT_TRUE(ctrl::UnframeMessage(good).has_value());
  EXPECT_TRUE(failures.empty()) << "a valid frame must not trip any contract";

  // Header truncation: too short to even hold [version][length].
  EXPECT_FALSE(ctrl::UnframeMessage({0x01, 0x02, 0x03}).has_value());
  EXPECT_TRUE(fired_once());

  // Version below kMinSupportedVersion.
  const auto stale = ctrl::FrameMessage({0xAA}, ctrl::kMinSupportedVersion - 1);
  EXPECT_FALSE(ctrl::UnframeMessage(stale).has_value());
  EXPECT_TRUE(fired_once());

  // Length field promising more payload than the frame carries.
  auto overlong = good;
  overlong[2] = 0xFF;  // length byte 0 (little-endian u32 at offset 2)
  EXPECT_FALSE(ctrl::UnframeMessage(overlong).has_value());
  EXPECT_TRUE(fired_once());

  // Hostile length near UINT32_MAX: must reject via the (size_t-widened)
  // bounds check, not wrap around and read out of bounds.
  auto hostile = good;
  hostile[2] = hostile[3] = hostile[4] = hostile[5] = 0xFF;
  EXPECT_FALSE(ctrl::UnframeMessage(hostile).has_value());
  EXPECT_TRUE(fired_once());

  // Payload corruption caught by the CRC gate.
  auto corrupt = good;
  corrupt[6] ^= 0x01;
  EXPECT_FALSE(ctrl::UnframeMessage(corrupt).has_value());
  EXPECT_TRUE(fired_once());

  // Truncated CRC trailer (fails the bounds check before the CRC compare).
  auto clipped = good;
  clipped.pop_back();
  EXPECT_FALSE(ctrl::UnframeMessage(clipped).has_value());
  EXPECT_TRUE(fired_once());

  // All the rejections above were kEnsure: non-fatal by design.
  EXPECT_EQ(lightwave::common::GetCheckStats().fatal_failures, 0u);
}

TEST(Fuzz, RandomJunkOnlyTripsEnsureContracts) {
  // The randomized sweep from RandomBytesNeverDecode, repeated with a
  // recording handler: junk input may fire LW_ENSURE freely but must never
  // reach a fatal contract (LW_CHECK/LW_UNREACHABLE) inside the codec.
  std::size_t ensure_count = 0;
  common::ScopedCheckHandler guard([&ensure_count](const common::CheckFailure& f) {
    ASSERT_EQ(f.kind, lightwave::common::CheckKind::kEnsure)
        << "junk input reached a fatal contract: "
        << lightwave::common::FormatCheckFailure(f);
    ++ensure_count;
  });
  common::Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> junk(rng.UniformInt(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    EXPECT_FALSE(ctrl::UnframeMessage(junk).has_value());
  }
  // Every trial rejects through exactly one LW_ENSURE gate.
  EXPECT_EQ(ensure_count, 500u);
}

// --- journal record framing fuzzing -------------------------------------------------

journal::MemStorage JournalWith(int records, std::uint64_t seed) {
  journal::MemStorage storage;
  journal::Wal wal(storage);
  common::Rng rng(seed);
  for (int i = 0; i < records; ++i) {
    std::vector<std::uint8_t> payload(rng.UniformInt(48) + 1);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    LW_CHECK(wal.Append(payload).ok());
  }
  return storage;
}

TEST(Fuzz, JournalScanNeverCrashesOnRandomBytes) {
  // Byte soup fed straight to the scanner: every outcome must be a clean
  // diagnosis (zero or more valid records plus a tail error), never UB.
  // Junk essentially never passes the CRC32C gate.
  common::Rng rng(21);
  int accepted_records = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    journal::MemStorage storage;
    std::vector<std::uint8_t> junk(rng.UniformInt(96));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    storage.Append(junk.data(), junk.size());
    const auto scan = journal::Wal::Scan(storage);
    accepted_records += static_cast<int>(scan.records.size());
    EXPECT_LE(scan.valid_bytes, junk.size());
    if (!junk.empty()) {
      EXPECT_FALSE(scan.tail.ok());
    }
    // Opening (and repairing) a WAL over the junk must also be safe, and
    // must leave only the bytes the scan vouched for.
    journal::Wal wal(storage);
    EXPECT_EQ(storage.size(), scan.valid_bytes);
    EXPECT_TRUE(wal.Append({0x5A}).ok());
  }
  EXPECT_EQ(accepted_records, 0);
}

TEST(Fuzz, JournalBitFlipsNeverYieldPhantomRecords) {
  // Flip every bit of a small real log: the scan must never report MORE
  // records than survive up to the flipped byte, and re-scanning must stay
  // in-bounds. (A flip in record k's frame invalidates k and everything
  // after; flips in the payload tail of the file can only shorten the log.)
  const journal::MemStorage pristine = JournalWith(6, 31);
  const auto baseline = journal::Wal::Scan(pristine);
  ASSERT_EQ(baseline.records.size(), 6u);
  ASSERT_TRUE(baseline.tail.ok());
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      journal::MemStorage mutated = pristine;
      mutated.bytes()[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto scan = journal::Wal::Scan(mutated);
      EXPECT_FALSE(scan.tail.ok()) << "flip at byte " << byte << " bit " << bit;
      EXPECT_LT(scan.records.size(), 6u) << "flip at byte " << byte << " bit " << bit;
      EXPECT_LE(scan.valid_bytes, mutated.size());
      for (const auto& record : scan.records) {
        // Surviving records are the untouched prefix, byte-for-byte.
        EXPECT_EQ(record.payload, baseline.records[record.seq - 1].payload);
      }
    }
  }
}

TEST(Fuzz, JournalLyingLengthFieldsAreContained) {
  // Craft frames whose length field lies — shorter than the body, longer
  // than the storage, near UINT32_MAX. The scanner must stop at the frame
  // boundary with a clean error, never read past the storage.
  journal::MemStorage storage = JournalWith(2, 41);
  const std::uint64_t good_size = storage.size();
  for (std::uint32_t lie :
       {0u, 1u, 7u, 0x000000FFu, 0x00FFFFFFu, 0xFFFFFFFFu,
        static_cast<std::uint32_t>(journal::Wal::kMaxRecordBytes + 1)}) {
    journal::MemStorage mutated = storage;
    for (int i = 0; i < 4; ++i) {
      mutated.bytes()[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(lie >> (8 * i));
    }
    const auto scan = journal::Wal::Scan(mutated);
    EXPECT_TRUE(scan.records.empty()) << "lie " << lie;
    EXPECT_FALSE(scan.tail.ok()) << "lie " << lie;
    EXPECT_EQ(scan.valid_bytes, 0u) << "lie " << lie;
    (void)good_size;
  }
}

TEST(Fuzz, SnapshotReaderNeverCrashesOnRandomBytes) {
  common::Rng rng(23);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    journal::MemStorage storage;
    std::vector<std::uint8_t> junk(rng.UniformInt(96));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    storage.Append(junk.data(), junk.size());
    const auto snapshot = journal::SnapshotReader::Read(storage);
    if (snapshot.ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, SliceCommandDecodeNeverCrashesOnRandomBytes) {
  // Commands come out of CRC-verified WAL records, so junk reaching Decode
  // means the journal itself was corrupted — but decode must still fail
  // closed (Result error, no UB) on arbitrary bytes and on every
  // truncation of a real command.
  common::Rng rng(25);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.UniformInt(32));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    (void)svc::SliceCommand::Decode(junk);
  }
  // A command exercising every wire field (multi-tenant id spaces and the
  // 2PC kinds included) must roundtrip exactly and reject every truncation.
  svc::SliceCommand cmd;
  cmd.command_id = 712;
  cmd.tenant_id = 0xFFFFFFFFu;  // the router's control tenant is a legal value
  cmd.kind = svc::CommandKind::kPrepare;
  cmd.job_id = 9;
  cmd.txn_id = (std::uint64_t{1} << 40) + 3;
  cmd.shape = tpu::SliceShape{4, 2, 1};
  const auto encoded = cmd.Encode();
  const auto decoded = svc::SliceCommand::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().command_id, cmd.command_id);
  EXPECT_EQ(decoded.value().tenant_id, cmd.tenant_id);
  EXPECT_EQ(decoded.value().kind, cmd.kind);
  EXPECT_EQ(decoded.value().job_id, cmd.job_id);
  EXPECT_EQ(decoded.value().txn_id, cmd.txn_id);
  EXPECT_EQ(decoded.value().shape.a, cmd.shape.a);
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::vector<std::uint8_t> prefix(encoded.begin(),
                                     encoded.begin() + static_cast<long>(len));
    EXPECT_FALSE(svc::SliceCommand::Decode(prefix).ok()) << len;
  }
  // A kind byte past the 2PC range must fail closed. The kind sits right
  // after the two leading varints: command_id=712 encodes in 2 bytes,
  // tenant_id=0xFFFFFFFF in 5, so the kind is byte 7.
  auto tampered = encoded;
  ASSERT_EQ(tampered[7], static_cast<std::uint8_t>(svc::CommandKind::kPrepare));
  tampered[7] = 200;
  EXPECT_FALSE(svc::SliceCommand::Decode(tampered).ok());
}

TEST(Fuzz, SliceCommandDimensionsAreInts) {
  // A journaled dimension is an int. One past INT_MAX, or 2^32+1 (which a
  // narrowing cast would read as 1), must fail to decode as kInternal in
  // each of a, b and c. Every int round-trips, negatives included: a client
  // may journal a negative dimension, and replay must decode it to reject
  // it again.
  const auto with_dim = [](int dim, std::uint64_t value) {
    ctrl::WireWriter writer;
    writer.PutVarint(1);  // command id
    writer.PutVarint(0);  // tenant
    writer.PutU8(static_cast<std::uint8_t>(svc::CommandKind::kAdmit));
    writer.PutVarint(1);  // job id
    writer.PutVarint(0);  // txn id
    for (int d = 0; d < 3; ++d) writer.PutVarint(d == dim ? value : 1);
    return writer.Take();
  };
  for (int dim = 0; dim < 3; ++dim) {
    ASSERT_TRUE(svc::SliceCommand::Decode(with_dim(dim, 2)).ok()) << dim;
    for (const std::uint64_t value : {std::uint64_t{1} << 31, (std::uint64_t{1} << 32) + 1}) {
      const auto decoded = svc::SliceCommand::Decode(with_dim(dim, value));
      ASSERT_FALSE(decoded.ok()) << dim << " " << value;
      EXPECT_EQ(decoded.error().code, common::Error::Code::kInternal) << dim << " " << value;
    }
    for (const int value : {std::numeric_limits<int>::min(), -1, 0,
                            std::numeric_limits<int>::max()}) {
      svc::SliceCommand cmd;
      cmd.command_id = 3;
      cmd.job_id = 4;
      int* const dims[] = {&cmd.shape.a, &cmd.shape.b, &cmd.shape.c};
      *dims[dim] = value;
      const auto decoded = svc::SliceCommand::Decode(cmd.Encode());
      ASSERT_TRUE(decoded.ok()) << dim << " " << value;
      EXPECT_EQ(decoded.value().shape, cmd.shape) << dim << " " << value;
    }
  }
}

// --- scheduler state import ---------------------------------------------------------

/// One field of a scheduler state in wire order: a varint, or a fixed u64
/// (the slice ids and the id mint).
struct StateField {
  bool varint = true;
  std::uint64_t value = 0;
};

/// Splits ExportState bytes into their fields: four stats and the slice
/// count, then per slice its id, a, b, c, cube count and cube ids, then the
/// next slice id.
std::vector<StateField> SchedulerStateFields(const std::vector<std::uint8_t>& bytes) {
  ctrl::WireReader reader(bytes);
  std::vector<StateField> fields;
  const auto take = [&](bool varint) {
    const std::uint64_t value = varint ? reader.GetVarint() : reader.GetU64();
    LW_CHECK(reader.ok());
    fields.push_back({varint, value});
    return value;
  };
  for (int stat = 0; stat < 4; ++stat) take(true);
  for (std::uint64_t slice = take(true); slice > 0; --slice) {
    take(false);
    for (int dim = 0; dim < 3; ++dim) take(true);
    for (std::uint64_t cube = take(true); cube > 0; --cube) take(true);
  }
  take(false);
  LW_CHECK(reader.AtEnd());
  return fields;
}

std::vector<std::uint8_t> EncodeStateFields(const std::vector<StateField>& fields) {
  ctrl::WireWriter writer;
  for (const StateField& field : fields) {
    if (field.varint) {
      writer.PutVarint(field.value);
    } else {
      writer.PutU64(field.value);
    }
  }
  return writer.Take();
}

TEST(Fuzz, SchedulerImportStateNeverCrashes) {
  // Snapshot bytes reach SliceScheduler::ImportState through
  // FleetService::DeserializeState, and the CRC catches only accidental
  // damage. Every bit flip, truncation and huge varint of a real export
  // must import or fail with a Status, never abort; an accepted state must
  // pass the scheduler's audit, and a failed one must leave the pod empty
  // (no slice, no circuit) and the scheduler's export as it was.
  const auto import_into_fresh_pod = [](const std::vector<std::uint8_t>& bytes) {
    tpu::Superpod pod(9, 8, 2);
    core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
    const auto export_of = [&scheduler] {
      ctrl::WireWriter writer;
      scheduler.ExportState(writer);
      return writer.Take();
    };
    const std::vector<std::uint8_t> untouched = export_of();
    ctrl::WireReader reader(bytes);
    const bool imported = scheduler.ImportState(reader).ok();
    if (imported) {
      EXPECT_TRUE(scheduler.ValidateInvariants().ok());
    } else {
      EXPECT_TRUE(pod.slices().empty());
      int circuits = 0;
      for (int i = 0; i < pod.ocs_count(); ++i) circuits += pod.ocs(i).ConnectionCount();
      EXPECT_EQ(circuits, 0);
      EXPECT_EQ(export_of(), untouched);
    }
    return imported;
  };
  std::vector<std::uint8_t> exported;
  {
    tpu::Superpod pod(9, 8, 2);
    core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
    for (const tpu::SliceShape shape :
         {tpu::SliceShape{1, 1, 2}, tpu::SliceShape{1, 2, 2}, tpu::SliceShape{1, 1, 1}}) {
      ASSERT_TRUE(scheduler.Allocate(shape).ok());
    }
    ctrl::WireWriter writer;
    scheduler.ExportState(writer);
    exported = writer.Take();
  }
  ASSERT_TRUE(import_into_fresh_pod(exported));

  int accepted_flips = 0;
  for (std::size_t byte = 0; byte < exported.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = exported;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      accepted_flips += import_into_fresh_pod(mutated) ? 1 : 0;
    }
  }
  EXPECT_GT(accepted_flips, 0);  // flips in the stats still import
  for (std::size_t len = 0; len < exported.size(); ++len) {
    EXPECT_FALSE(import_into_fresh_pod(
        {exported.begin(), exported.begin() + static_cast<long>(len)}))
        << len;
  }

  // A huge value in any varint past the four stats (the slice count, a
  // dimension, a cube count or a cube id) must reject.
  const std::vector<StateField> fields = SchedulerStateFields(exported);
  ASSERT_EQ(EncodeStateFields(fields), exported);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (!fields[i].varint) continue;
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 31, (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 40,
          std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      auto mutated = fields;
      mutated[i].value = huge;
      EXPECT_EQ(import_into_fresh_pod(EncodeStateFields(mutated)), i < 4)
          << "field " << i << " = " << huge;
    }
  }
}

// --- palomar random-operation stress ----------------------------------------------

TEST(Fuzz, PalomarInvariantsUnderRandomOps) {
  // Validation on: ValidateInvariants audits the port tables at every
  // transaction boundary.
  common::ScopedValidation validation(true);
  common::Rng rng(5);
  ocs::PalomarSwitch ocs(777);
  // Shadow model of expected state.
  std::map<int, int> model;
  const auto south_free = [&model](int s) {
    for (const auto& [mn, ms] : model) {
      if (ms == s) return false;
    }
    return true;
  };
  const auto usable = [&ocs](int n, int s) {
    return ocs.PortUsable(true, n) && ocs.PortUsable(false, s);
  };
  // Ports destroyed by mirror deaths and re-patched onto spares, per side
  // (0 = north): the run must reach both, or it proves nothing about them.
  int destroyed[2] = {0, 0};
  int remapped[2] = {0, 0};

  for (int op = 0; op < 4000; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(8));
    if (kind == 0) {
      const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const int s = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const auto result = ocs.Connect(n, s);
      EXPECT_EQ(result.ok(), !model.contains(n) && south_free(s) && usable(n, s))
          << "op " << op;
      if (result.ok()) model[n] = s;
    } else if (kind == 1) {
      const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const auto result = ocs.Disconnect(n);
      EXPECT_EQ(result.ok(), model.contains(n)) << "op " << op;
      model.erase(n);
    } else if (kind == 2 && op % 97 == 0) {
      // Occasional full reconfiguration to a random partial permutation:
      // valid iff every port is alive, and then it applies in full.
      std::map<int, int> target;
      std::set<int> souths;
      bool valid = true;
      const int size = static_cast<int>(rng.UniformInt(64));
      for (int i = 0; i < size; ++i) {
        const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
        const int s = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
        if (!target.contains(n) && !souths.contains(s)) {
          target[n] = s;
          souths.insert(s);
          valid = valid && usable(n, s);
        }
      }
      const auto result = ocs.Reconfigure(target);
      ASSERT_EQ(result.ok(), valid) << "op " << op;
      if (result.ok()) model = target;
    } else if (kind == 3) {
      // Read-only probes never change state.
      const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const auto conn = ocs.ConnectionOn(n);
      EXPECT_EQ(conn.has_value(), model.contains(n));
      if (conn.has_value()) {
        EXPECT_EQ(conn->south, model.at(n));
      }
    } else if (kind == 4) {
      // Delta connect of a few random pairs, in the order drawn: valid iff
      // every port is free and alive and no south repeats; a rejection
      // changes nothing, and a valid delta always applies (no mirror dies
      // under a usable port).
      std::vector<std::pair<int, int>> delta;
      std::set<int> norths, souths;
      bool valid = true;
      const int size = 1 + static_cast<int>(rng.UniformInt(4));
      for (int i = 0; i < size; ++i) {
        const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
        const int s = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
        if (!norths.insert(n).second) continue;
        valid = valid && !model.contains(n) && south_free(s) && usable(n, s) &&
                souths.insert(s).second;
        delta.emplace_back(n, s);
      }
      const auto result = ocs.ConnectDelta(delta);
      EXPECT_EQ(result.ok(), valid) << "op " << op;
      if (result.ok()) model.insert(delta.begin(), delta.end());
    } else if (kind == 5) {
      // Delta disconnect: live pairs go, anything else is left alone.
      std::map<int, int> drawn;
      for (const auto& [mn, ms] : model) {
        if (rng.Bernoulli(0.1)) drawn[mn] = ms;
      }
      const int n = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      drawn[n] = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const std::vector<std::pair<int, int>> delta(drawn.begin(), drawn.end());
      ASSERT_TRUE(ocs.DisconnectDelta(delta).ok()) << "op " << op;
      for (const auto& [dn, ds] : delta) {
        if (auto it = model.find(dn); it != model.end() && it->second == ds) model.erase(it);
      }
    } else if (kind == 6 && op % 20 == 0) {
      // Repeated mirror deaths under one port: spare mirrors absorb them
      // until the array's pool runs dry, then the port dies and its circuit
      // goes. The model cannot tell which deaths a spare absorbs, so it
      // re-syncs from the switch.
      const bool north_side = rng.Bernoulli(0.5);
      const int port = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      const int repeats = 1 + static_cast<int>(rng.UniformInt(16));
      for (int i = 0; i < repeats; ++i) {
        const bool was_usable = ocs.PortUsable(north_side, port);
        const bool survived = ocs.InjectMirrorFailure(north_side, port);
        EXPECT_EQ(ocs.PortUsable(north_side, port), was_usable && survived) << "op " << op;
        destroyed[north_side ? 0 : 1] += was_usable && !survived ? 1 : 0;
      }
      model = ocs.CurrentMapping();
    } else if (kind == 7 && op % 20 == 0) {
      // Re-patch the first dead port at or after a random one (any port if
      // none is dead) onto a spare collimator position: it comes back alive
      // while the pool lasts.
      const bool north_side = rng.Bernoulli(0.5);
      int port = static_cast<int>(rng.UniformInt(ocs::kPalomarUsablePorts));
      for (int i = 0; i < ocs::kPalomarUsablePorts && ocs.PortUsable(north_side, port); ++i) {
        port = (port + 1) % ocs::kPalomarUsablePorts;
      }
      const bool has_spare = ocs.SparePortsRemaining(north_side) > 0;
      const bool was_usable = ocs.PortUsable(north_side, port);
      EXPECT_EQ(ocs.RemapToSpare(north_side, port).ok(), has_spare) << "op " << op;
      EXPECT_EQ(ocs.PortUsable(north_side, port), was_usable || has_spare) << "op " << op;
      remapped[north_side ? 0 : 1] += has_spare && !was_usable ? 1 : 0;
      model = ocs.CurrentMapping();
    }
    if (op % 500 == 0) {
      // Full-state audit: bijectivity + agreement with the shadow model.
      const auto conns = ocs.Connections();
      EXPECT_EQ(conns.size(), model.size());
      std::set<int> seen_south;
      for (const auto& c : conns) {
        EXPECT_TRUE(seen_south.insert(c.south).second) << "south reused";
        ASSERT_TRUE(model.contains(c.north));
        EXPECT_EQ(model.at(c.north), c.south);
      }
    }
  }
  for (int side : {0, 1}) {
    EXPECT_GT(destroyed[side], 0) << "side " << side;
    EXPECT_GT(remapped[side], 0) << "side " << side;
  }
}

// --- RS brute-force cross-check -----------------------------------------------------

TEST(Fuzz, SmallRsMatchesBruteForceNearestCodeword) {
  // RS(6,2) over GF(1024), t = 2: small enough to enumerate all 1024^2
  // codewords? That is 1M encodes per received word — too many. Instead
  // verify the decoder against the coding-theory promise directly: every
  // pattern of <= t random errors decodes to the original, over many trials
  // and all error weights.
  const fec::ReedSolomon rs(6, 2);
  EXPECT_EQ(rs.t(), 2);
  common::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<fec::Gf1024::Element> data = {
        static_cast<fec::Gf1024::Element>(rng.UniformInt(1024)),
        static_cast<fec::Gf1024::Element>(rng.UniformInt(1024))};
    auto codeword = rs.Encode(data);
    const auto original = codeword;
    const int weight = static_cast<int>(rng.UniformInt(3));  // 0..2 errors
    std::set<int> positions;
    while (static_cast<int>(positions.size()) < weight) {
      positions.insert(static_cast<int>(rng.UniformInt(6)));
    }
    for (int pos : positions) {
      codeword[static_cast<std::size_t>(pos)] ^=
          static_cast<fec::Gf1024::Element>(1 + rng.UniformInt(1023));
    }
    const auto outcome = rs.Decode(codeword);
    ASSERT_TRUE(outcome.ok()) << "trial " << trial << " weight " << weight;
    EXPECT_EQ(outcome.value().codeword, original);
    EXPECT_EQ(outcome.value().corrected_symbols, weight);
  }
}

TEST(Fuzz, RsDecodeNeverCrashesOnRandomWords) {
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(9);
  int successes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<fec::Gf1024::Element> word(static_cast<std::size_t>(rs.n()));
    for (auto& s : word) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
    const auto outcome = rs.Decode(word);
    if (outcome.ok()) {
      // A random word decoding means it happened to be within t of a
      // codeword; astronomically unlikely.
      ++successes;
    }
  }
  EXPECT_EQ(successes, 0);
}

}  // namespace
}  // namespace lightwave
