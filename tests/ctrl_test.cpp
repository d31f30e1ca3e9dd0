// Unit tests for the control plane: wire primitives, frame envelope + CRC,
// message round-trips, agent semantics (idempotent transactions), and the
// fabric controller's transactional apply/rollback, backoff, and
// circuit-breaker behaviour over a lossy bus.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ctrl/controller.h"
#include "ctrl/fault_injector.h"
#include "ctrl/messages.h"
#include "ctrl/wire.h"
#include "ocs/palomar.h"
#include "telemetry/hub.h"

namespace lightwave::ctrl {
namespace {

// --- wire primitives -----------------------------------------------------------

TEST(Wire, FixedWidthRoundTrip) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(3.14159);
  const auto buffer = w.buffer();
  WireReader r(buffer);
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, VarintRoundTrip) {
  WireWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, 0xFFFFFFFFFFFFFFFFull};
  for (auto v : values) w.PutVarint(v);
  const auto buffer = w.buffer();
  WireReader r(buffer);
  for (auto v : values) EXPECT_EQ(r.GetVarint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, VarintCompactness) {
  WireWriter w;
  w.PutVarint(5);
  EXPECT_EQ(w.buffer().size(), 1u);
}

TEST(Wire, StringRoundTrip) {
  WireWriter w;
  w.PutString("hello fabric");
  w.PutString("");
  const auto buffer = w.buffer();
  WireReader r(buffer);
  EXPECT_EQ(r.GetString(), "hello fabric");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedReadsFail) {
  WireWriter w;
  w.PutU16(0x0107);
  const auto buffer = w.buffer();
  WireReader r(buffer);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.GetU32(), 0u);
  EXPECT_FALSE(r.ok());
  // The failure latches: the byte that is left reads as zero too.
  EXPECT_EQ(r.GetU8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, IntRoundTripAndRange) {
  // PutInt and GetInt are exact inverses; a negative int rides the varint
  // as its 64-bit two's-complement image.
  const int ints[] = {std::numeric_limits<int>::min(), -1, 0, 1,
                      std::numeric_limits<int>::max()};
  WireWriter w;
  for (int v : ints) w.PutInt(v);
  const auto buffer = w.buffer();
  WireReader r(buffer);
  for (int v : ints) EXPECT_EQ(r.GetInt(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  // A varint PutInt cannot write fails to read as an int, and the failure
  // latches.
  constexpr std::uint64_t kTwo31 = std::uint64_t{1} << 31;
  const std::uint64_t bad[] = {kTwo31, (std::uint64_t{1} << 32) + 5, std::uint64_t{1} << 63,
                               ~kTwo31};  // 2^64 - 2^31 - 1: one below INT_MIN's image
  for (const std::uint64_t v : bad) {
    WireWriter bad_writer;
    bad_writer.PutVarint(v);
    bad_writer.PutInt(3);
    const auto bad_buffer = bad_writer.buffer();
    WireReader bad_reader(bad_buffer);
    EXPECT_EQ(bad_reader.GetInt(), 0) << v;
    EXPECT_EQ(bad_reader.GetInt(), 0) << v;
    EXPECT_FALSE(bad_reader.ok()) << v;
  }
}

TEST(Wire, BoundedVarintFailsAboveItsMax) {
  WireWriter w;
  w.PutVarint(8);
  w.PutVarint(9);
  const auto buffer = w.buffer();
  WireReader r(buffer);
  EXPECT_EQ(r.GetVarint(8), 8u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.GetVarint(8), 0u);
  EXPECT_FALSE(r.ok());
  // A tenth byte past bit 63 does not wrap: nine 0x80 bytes then 0x02 would
  // read as 0 (2^64 mod 2^64).
  std::vector<std::uint8_t> wrapped(9, 0x80);
  wrapped.push_back(0x02);
  WireReader wrapped_reader(wrapped);
  EXPECT_EQ(wrapped_reader.GetVarint(), 0u);
  EXPECT_FALSE(wrapped_reader.ok());
}

TEST(Wire, Crc32KnownVector) {
  // CRC32 of "123456789" is the classic check value 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
}

// --- framing --------------------------------------------------------------------

TEST(Frame, RoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = FrameMessage(payload);
  const auto opened = UnframeMessage(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->version, kProtocolVersion);
  EXPECT_EQ(opened->payload, payload);
}

TEST(Frame, CorruptionDetected) {
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  auto frame = FrameMessage(payload);
  frame[7] ^= 0x01;  // flip a payload bit
  EXPECT_FALSE(UnframeMessage(frame).has_value());
}

TEST(Frame, TruncationDetected) {
  auto frame = FrameMessage({1, 2, 3});
  frame.pop_back();
  EXPECT_FALSE(UnframeMessage(frame).has_value());
}

TEST(Frame, OldVersionRejected) {
  const auto frame = FrameMessage({1}, /*version=*/1);
  EXPECT_FALSE(UnframeMessage(frame).has_value());
}

TEST(Frame, SupportedOlderVersionAccepted) {
  const auto frame = FrameMessage({1}, kMinSupportedVersion);
  EXPECT_TRUE(UnframeMessage(frame).has_value());
}

// --- messages -------------------------------------------------------------------

TEST(Messages, ReconfigureRequestRoundTrip) {
  ReconfigureRequest msg;
  msg.transaction_id = 77;
  msg.target = {{0, 5}, {1, 6}, {127, 0}};
  const auto decoded = DecodeReconfigureRequest(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, 77u);
  EXPECT_EQ(decoded->target, msg.target);
}

TEST(Messages, ReconfigureReplyRoundTrip) {
  ReconfigureReply msg;
  msg.transaction_id = 9;
  msg.ok = false;
  msg.error = "port dead";
  msg.established = 3;
  msg.removed = 1;
  msg.undisturbed = 40;
  msg.duration_ms = 12.5;
  const auto decoded = DecodeReconfigureReply(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "port dead");
  EXPECT_EQ(decoded->undisturbed, 40u);
  EXPECT_DOUBLE_EQ(decoded->duration_ms, 12.5);
}

TEST(Messages, TelemetryRoundTrip) {
  TelemetryReply msg;
  msg.nonce = 4;
  msg.connects = 100;
  msg.power_draw_w = 104.5;
  msg.chassis_operational = true;
  const auto decoded = DecodeTelemetryReply(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->connects, 100u);
  EXPECT_TRUE(decoded->chassis_operational);
}

TEST(Messages, PortSurveyRoundTrip) {
  PortSurveyReply msg;
  msg.nonce = 8;
  msg.entries = {{.north = 1, .south = 2, .insertion_loss_db = 1.8, .return_loss_db = -45.0}};
  const auto decoded = DecodePortSurveyReply(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entries.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded->entries[0].insertion_loss_db, 1.8);
}

TEST(Messages, PeekTypeAndCrossDecodeRejected) {
  const auto frame = Encode(TelemetryRequest{.nonce = 1});
  EXPECT_EQ(PeekType(frame).value(), MessageType::kTelemetryRequest);
  EXPECT_FALSE(DecodeReconfigureRequest(frame).has_value());
}

// --- agent ----------------------------------------------------------------------

TEST(Agent, ExecutesReconfigure) {
  ocs::PalomarSwitch ocs(50);
  OcsAgent agent(ocs);
  const ReconfigureRequest request{.transaction_id = 1, .target = {{0, 1}, {2, 3}}};
  const auto reply_frame = agent.Handle(Encode(request));
  const auto reply = DecodeReconfigureReply(reply_frame);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->established, 2u);
  EXPECT_EQ(ocs.ConnectionCount(), 2);
}

TEST(Agent, RetriedTransactionIsIdempotent) {
  ocs::PalomarSwitch ocs(51);
  OcsAgent agent(ocs);
  const ReconfigureRequest request{.transaction_id = 5, .target = {{0, 1}}};
  const auto first = DecodeReconfigureReply(agent.Handle(Encode(request)));
  const auto second = DecodeReconfigureReply(agent.Handle(Encode(request)));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->established, first->established);
  // Only one reconfiguration actually ran.
  EXPECT_EQ(ocs.telemetry().reconfigurations, 1u);
}

TEST(Agent, TransactionIdZeroExecutes) {
  // Regression: a zero-initialised cache key used to swallow the first
  // request when its transaction id was 0, answering from the
  // default-constructed last reply (ok=false, empty error) without ever
  // executing the reconfigure.
  ocs::PalomarSwitch ocs(64);
  OcsAgent agent(ocs);
  const ReconfigureRequest request{.transaction_id = 0, .target = {{0, 1}}};
  const auto reply = DecodeReconfigureReply(agent.Handle(Encode(request)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_EQ(reply->established, 1u);
  EXPECT_EQ(ocs.telemetry().reconfigurations, 1u);
  // Retrying txn 0 is idempotent like any other transaction.
  const auto retry = DecodeReconfigureReply(agent.Handle(Encode(request)));
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(retry->ok);
  EXPECT_EQ(ocs.telemetry().reconfigurations, 1u);
}

TEST(Agent, RestartLosesCacheButReplayIsSafe) {
  ocs::PalomarSwitch ocs(65);
  OcsAgent agent(ocs);
  const ReconfigureRequest request{.transaction_id = 5, .target = {{0, 1}}};
  ASSERT_TRUE(DecodeReconfigureReply(agent.Handle(Encode(request)))->ok);
  EXPECT_EQ(ocs.telemetry().reconfigurations, 1u);
  agent.SimulateRestart();
  // The idempotency cache is volatile state; after a restart the retry
  // re-executes — harmlessly, because the switch already matches the target
  // and leaves every connection undisturbed.
  const auto replay = DecodeReconfigureReply(agent.Handle(Encode(request)));
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->ok);
  EXPECT_EQ(replay->undisturbed, 1u);
  EXPECT_EQ(ocs.telemetry().reconfigurations, 2u);
  EXPECT_EQ(ocs.CurrentMapping(), (std::map<int, int>{{0, 1}}));
}

TEST(Agent, ReportsRejectedReconfigure) {
  ocs::PalomarSwitch ocs(52);
  OcsAgent agent(ocs);
  const ReconfigureRequest request{.transaction_id = 2, .target = {{0, 1}, {3, 1}}};
  const auto reply = DecodeReconfigureReply(agent.Handle(Encode(request)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  EXPECT_FALSE(reply->error.empty());
}

TEST(Agent, MirrorDeathHookLeavesOutOfRangePortsAlone) {
  // A decoded target may name any port. The mirror-death hook runs before
  // Reconfigure validates the target, so it must not reach a mirror through
  // a port the switch does not have.
  ocs::PalomarSwitch ocs(56);
  ASSERT_TRUE(ocs.Connect(0, 1).ok());
  const auto circuits = ocs.Connections();
  FaultInjector injector(9, FaultProfile{.mirror_death_prob = 1.0});
  OcsAgent agent(ocs);
  agent.SetFaultInjector(&injector);
  const auto expect_unchanged = [&] {
    EXPECT_EQ(ocs.Connections(), circuits);
    EXPECT_EQ(ocs.SparePortsRemaining(true), ocs::kPalomarSparePorts);
    EXPECT_EQ(ocs.SparePortsRemaining(false), ocs::kPalomarSparePorts);
    for (int port = 0; port < ocs::kPalomarUsablePorts; ++port) {
      EXPECT_TRUE(ocs.PortUsable(true, port) && ocs.PortUsable(false, port)) << port;
    }
  };
  // Only out-of-range ports: no mirror may die.
  const ReconfigureRequest outside{.transaction_id = 1, .target = {{100000, 100001}}};
  auto reply = DecodeReconfigureReply(agent.Handle(Encode(outside)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  expect_unchanged();
  EXPECT_EQ(injector.mirror_deaths(), 0u);
  EXPECT_EQ(injector.ports_destroyed(), 0u);
  // One port in range: a death there, if drawn, is a real one that a
  // mirror spare absorbs; the switch still rejects the target untouched.
  std::uint64_t txn = 2;
  for (const auto& target : {std::map<int, int>{{100000, 5}}, std::map<int, int>{{5, 100000}}}) {
    reply = DecodeReconfigureReply(
        agent.Handle(Encode(ReconfigureRequest{.transaction_id = txn++, .target = target})));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->ok);
    expect_unchanged();
  }
  EXPECT_EQ(injector.ports_destroyed(), 0u);
}

TEST(Agent, DropsMalformedFrame) {
  ocs::PalomarSwitch ocs(53);
  OcsAgent agent(ocs);
  std::vector<std::uint8_t> garbage = {1, 2, 3, 4};
  EXPECT_TRUE(agent.Handle(garbage).empty());
}

// Frames with one port-map entry, laid out as the encoders write them but
// with the ports as raw varints, so a test can name a port no int holds.
std::vector<std::uint8_t> ReconfigureFrame(std::uint64_t north, std::uint64_t south) {
  WireWriter w;
  w.PutU8(static_cast<std::uint8_t>(MessageType::kReconfigureRequest));
  w.PutU64(1);  // transaction id
  w.PutVarint(1);
  w.PutVarint(north);
  w.PutVarint(south);
  return FrameMessage(w.Take());
}

std::vector<std::uint8_t> PortSurveyReplyFrame(std::uint64_t north, std::uint64_t south) {
  WireWriter w;
  w.PutU8(static_cast<std::uint8_t>(MessageType::kPortSurveyReply));
  w.PutU64(4);  // nonce
  w.PutVarint(1);
  w.PutVarint(north);
  w.PutVarint(south);
  w.PutDouble(1.5);
  w.PutDouble(-45.0);
  return FrameMessage(w.Take());
}

TEST(Agent, PortBeyondIntIsMalformed) {
  // A port is an int on the wire. North 2^32+5 must not alias onto port 5:
  // the frame is malformed, gets no reply and programs nothing.
  constexpr std::uint64_t kAliasOf5 = (std::uint64_t{1} << 32) + 5;
  ocs::PalomarSwitch ocs(57);
  OcsAgent agent(ocs);
  EXPECT_TRUE(agent.Handle(ReconfigureFrame(kAliasOf5, 7)).empty());
  EXPECT_EQ(agent.malformed_frames(), 1u);
  EXPECT_EQ(ocs.ConnectionCount(), 0);
  // The same layout with north 5 is a valid request for circuit 5 -> 7.
  const auto reply = DecodeReconfigureReply(agent.Handle(ReconfigureFrame(5, 7)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(ocs.CurrentMapping(), (std::map<int, int>{{5, 7}}));

  EXPECT_FALSE(DecodePortSurveyReply(PortSurveyReplyFrame(kAliasOf5, 7)).has_value());
  const auto survey = DecodePortSurveyReply(PortSurveyReplyFrame(5, 7));
  ASSERT_TRUE(survey.has_value());
  ASSERT_EQ(survey->entries.size(), 1u);
  EXPECT_EQ(survey->entries[0].north, 5);
  EXPECT_EQ(survey->entries[0].south, 7);
}

TEST(Agent, AnswersTelemetryAndSurvey) {
  ocs::PalomarSwitch ocs(54);
  (void)ocs.Connect(0, 1);
  OcsAgent agent(ocs);
  const auto telemetry =
      DecodeTelemetryReply(agent.Handle(Encode(TelemetryRequest{.nonce = 3})));
  ASSERT_TRUE(telemetry.has_value());
  EXPECT_EQ(telemetry->nonce, 3u);
  EXPECT_EQ(telemetry->connects, 1u);
  EXPECT_TRUE(telemetry->chassis_operational);
  EXPECT_GT(telemetry->power_draw_w, 50.0);

  const auto survey =
      DecodePortSurveyReply(agent.Handle(Encode(PortSurveyRequest{.nonce = 4})));
  ASSERT_TRUE(survey.has_value());
  EXPECT_EQ(survey->entries.size(), 1u);
}

// --- bus + controller --------------------------------------------------------------

TEST(Bus, LosslessByDefault) {
  ocs::PalomarSwitch ocs(55);
  OcsAgent agent(ocs);
  MessageBus bus(1);
  const auto reply = bus.RoundTrip(agent, Encode(TelemetryRequest{.nonce = 1}));
  EXPECT_FALSE(reply.empty());
  EXPECT_EQ(bus.frames_dropped(), 0u);
}

TEST(Bus, DropsAtConfiguredRate) {
  ocs::PalomarSwitch ocs(56);
  OcsAgent agent(ocs);
  MessageBus bus(2);
  bus.SetDropProbability(0.5);
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    if (bus.RoundTrip(agent, Encode(TelemetryRequest{.nonce = 1})).empty()) ++lost;
  }
  EXPECT_GT(lost, 100);  // two chances to drop per round trip
  EXPECT_LT(lost, 190);
}

TEST(Bus, CorruptionCaughtByCrc) {
  ocs::PalomarSwitch ocs(57);
  OcsAgent agent(ocs);
  MessageBus bus(3);
  bus.SetCorruptProbability(1.0);
  // Every frame is mangled; the CRC (or type check) rejects it and the
  // round trip yields nothing — but never a wrong decode.
  const auto reply = bus.RoundTrip(agent, Encode(TelemetryRequest{.nonce = 9}));
  EXPECT_TRUE(reply.empty());
  EXPECT_EQ(ocs.telemetry().reconfigurations, 0u);
}

TEST(Controller, AppliesTopologyAcrossAgents) {
  ocs::PalomarSwitch ocs_a(58), ocs_b(59);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(4);
  FabricController controller(bus);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  const std::map<int, std::map<int, int>> targets = {{0, {{0, 1}}}, {1, {{2, 3}, {4, 5}}}};
  const auto result = controller.ApplyTopology(targets);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(ocs_a.ConnectionCount(), 1);
  EXPECT_EQ(ocs_b.ConnectionCount(), 2);
  EXPECT_EQ(result.replies.at(1).established, 2u);
}

TEST(Controller, RetriesThroughLossyBus) {
  ocs::PalomarSwitch ocs(60);
  OcsAgent agent(ocs);
  MessageBus bus(5);
  bus.SetDropProbability(0.4);
  FabricController controller(bus, /*max_retries=*/20);
  controller.Register(0, &agent);
  const auto result = controller.ApplyTopology({{0, {{0, 1}}}});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(ocs.ConnectionCount(), 1);
  // The reconfiguration executed exactly once despite retries.
  EXPECT_EQ(ocs.telemetry().reconfigurations, 1u);
}

TEST(Controller, SurfacesAgentRejection) {
  ocs::PalomarSwitch ocs(61);
  OcsAgent agent(ocs);
  MessageBus bus(6);
  FabricController controller(bus);
  controller.Register(0, &agent);
  const auto result = controller.ApplyTopology({{0, {{0, 1}, {2, 1}}}});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ocs 0"), std::string::npos);
}

TEST(Controller, FailsOnUnregisteredOcs) {
  MessageBus bus(7);
  FabricController controller(bus);
  const auto result = controller.ApplyTopology({{9, {{0, 1}}}});
  EXPECT_FALSE(result.ok);
}

TEST(Controller, RollsBackOnPartialFailure) {
  ocs::PalomarSwitch ocs_a(70), ocs_b(71);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(9);
  FabricController controller(bus);
  telemetry::Hub hub;
  controller.AttachTelemetry(&hub);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  // Seed ocs 0 with a pre-existing mapping — what the rollback must restore.
  ASSERT_TRUE(controller.ApplyTopology({{0, {{5, 6}}}}).ok);
  // ocs 1's target is non-bijective, so its agent rejects after ocs 0 has
  // already been reconfigured.
  const auto result =
      controller.ApplyTopology({{0, {{0, 1}}}, {1, {{0, 1}, {2, 1}}}});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.outcome, FabricTxnOutcome::kRolledBack);
  EXPECT_EQ(result.rolled_back, (std::vector<int>{0, 1}));
  EXPECT_TRUE(result.torn.empty());
  EXPECT_EQ(ocs_a.CurrentMapping(), (std::map<int, int>{{5, 6}}));
  EXPECT_TRUE(ocs_b.CurrentMapping().empty());
  EXPECT_TRUE(ocs_a.ValidateInvariants().ok());
  EXPECT_TRUE(ocs_b.ValidateInvariants().ok());
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_ctrl_rollbacks_total").value(), 1u);
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_ctrl_torn_transactions_total").value(),
            0u);
}

TEST(Controller, ReportsTornStateWhenRollbackPartitioned) {
  ocs::PalomarSwitch ocs_a(72), ocs_b(73);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(10);
  FabricControllerOptions options;
  options.max_retries = 2;
  FabricController controller(bus, options);
  telemetry::Hub hub;
  controller.AttachTelemetry(&hub);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  // Frame budget: snapshot 0 (2 frames), snapshot 1 (2), apply 0 (2),
  // apply 1 rejection (2), rollback of ocs 1 (2) — then the management
  // network partitions away, so the rollback of ocs 0 can never land.
  bus.PartitionAfter(10);
  const auto result =
      controller.ApplyTopology({{0, {{2, 3}}}, {1, {{0, 1}, {4, 1}}}});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.outcome, FabricTxnOutcome::kTorn);
  EXPECT_EQ(result.torn, (std::vector<int>{0}));
  EXPECT_EQ(result.rolled_back, (std::vector<int>{1}));
  EXPECT_GT(result.retries_used, 0);
  // The torn switch is left at the target (the partition ate the restore),
  // but it is *reported*, still bijective, and validator-clean.
  EXPECT_EQ(ocs_a.CurrentMapping(), (std::map<int, int>{{2, 3}}));
  EXPECT_TRUE(ocs_b.CurrentMapping().empty());
  EXPECT_TRUE(ocs_a.ValidateInvariants().ok());
  EXPECT_TRUE(ocs_b.ValidateInvariants().ok());
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_ctrl_torn_transactions_total").value(),
            1u);
}

TEST(Controller, BackoffIsDeterministicGivenSeed) {
  const auto run = [](std::uint64_t backoff_seed) {
    ocs::PalomarSwitch ocs(74);
    OcsAgent agent(ocs);
    MessageBus bus(11);
    bus.SetDropProbability(0.4);
    FabricControllerOptions options;
    options.max_retries = 30;
    options.backoff_seed = backoff_seed;
    FabricController controller(bus, options);
    controller.Register(0, &agent);
    return controller.ApplyTopology({{0, {{0, 1}, {2, 3}}}});
  };
  const auto first = run(1);
  const auto second = run(1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_GT(first.retries_used, 0);
  EXPECT_GT(first.backoff_us, 0.0);
  // Same seeds -> bit-identical retry count and backoff schedule.
  EXPECT_EQ(first.retries_used, second.retries_used);
  EXPECT_DOUBLE_EQ(first.backoff_us, second.backoff_us);
  // A different backoff seed keeps the loss pattern (bus seed unchanged)
  // but draws different jitter.
  const auto reseeded = run(2);
  EXPECT_EQ(reseeded.retries_used, first.retries_used);
  EXPECT_NE(reseeded.backoff_us, first.backoff_us);
}

TEST(Controller, CollectTelemetryReportsUnreachableAgents) {
  // Regression: exhausted agents used to vanish from the sweep with no
  // trace; now they land in `failed` and bump a counter.
  ocs::PalomarSwitch ocs_a(75), ocs_b(76);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(12);
  bus.SetDropProbability(1.0);
  FabricController controller(bus);
  telemetry::Hub hub;
  controller.AttachTelemetry(&hub);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  const auto sweep = controller.CollectTelemetry();
  EXPECT_TRUE(sweep.replies.empty());
  ASSERT_EQ(sweep.failed.size(), 2u);
  EXPECT_FALSE(sweep.failed.at(0).empty());
  EXPECT_FALSE(sweep.failed.at(1).empty());
  EXPECT_EQ(
      hub.metrics().GetCounter("lightwave_ctrl_telemetry_failures_total").value(), 2u);
}

TEST(Controller, BreakerOpensHalfOpensAndCloses) {
  ocs::PalomarSwitch ocs(77);
  OcsAgent agent(ocs);
  MessageBus bus(13);
  bus.SetDropProbability(1.0);
  FabricControllerOptions options;
  options.max_retries = 1;
  options.breaker_threshold = 3;
  options.breaker_cooldown = 2;
  FabricController controller(bus, options);
  telemetry::Hub hub;
  controller.AttachTelemetry(&hub);
  controller.Register(0, &agent);
  const std::map<int, std::map<int, int>> target = {{0, {{0, 1}}}};
  for (int i = 0; i < 3; ++i) {
    const auto result = controller.ApplyTopology(target);
    EXPECT_FALSE(result.ok);
    EXPECT_GT(result.retries_used, 0);
  }
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_ctrl_breaker_trips_total").value(), 1u);
  EXPECT_EQ(hub.metrics().GetGauge("lightwave_ctrl_agent_unhealthy").value(), 1.0);
  // Open: transactions fail fast without burning the retry budget.
  auto fast = controller.ApplyTopology(target);
  EXPECT_FALSE(fast.ok);
  EXPECT_EQ(fast.retries_used, 0);
  EXPECT_NE(fast.error.find("circuit breaker open"), std::string::npos);
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kOpen);
  fast = controller.ApplyTopology(target);
  EXPECT_FALSE(fast.ok);
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kHalfOpen);
  // A failed half-open probe re-opens immediately (no three-strike grace).
  const auto probe_fail = controller.ApplyTopology(target);
  EXPECT_FALSE(probe_fail.ok);
  EXPECT_GT(probe_fail.retries_used, 0);
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kOpen);
  // Heal the bus; after the cooldown the next probe succeeds and closes.
  bus.SetDropProbability(0.0);
  (void)controller.ApplyTopology(target);  // cooldown 2 -> 1, fails fast
  (void)controller.ApplyTopology(target);  // cooldown 1 -> 0, half-open
  const auto recovered = controller.ApplyTopology(target);
  EXPECT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kClosed);
  EXPECT_EQ(hub.metrics().GetGauge("lightwave_ctrl_agent_unhealthy").value(), 0.0);
}

// Controller state bytes in ExportState's layout: the two counters, then one
// (ocs id, breaker state, exhaustions, cooldown) entry per OCS.
struct HealthEntry {
  std::uint64_t ocs_id;
  BreakerState state;
  std::uint64_t exhaustions;
  std::uint64_t cooldown;
};

std::vector<std::uint8_t> ControllerState(const std::vector<HealthEntry>& entries) {
  WireWriter writer;
  writer.PutU64(7);  // next transaction id
  writer.PutU64(9);  // next telemetry nonce
  writer.PutVarint(entries.size());
  for (const HealthEntry& entry : entries) {
    writer.PutVarint(entry.ocs_id);
    writer.PutU8(static_cast<std::uint8_t>(entry.state));
    writer.PutVarint(entry.exhaustions);
    writer.PutVarint(entry.cooldown);
  }
  return writer.Take();
}

TEST(Controller, ImportStateRejectsValuesBeyondInt) {
  // Snapshot bytes are outside input. An OCS id, exhaustion count or
  // cooldown that no int encodes to (above INT_MAX and below INT_MIN's
  // 64-bit image) fails as kInternal before anything is assigned; a
  // narrowing cast would otherwise read OCS 2^32+1 as OCS 1, 2^32+5
  // exhaustions as 5, and a 2^31 cooldown as INT_MIN.
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kTwo31 = std::uint64_t{1} << 31;
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  MessageBus bus(21);
  FabricController controller(bus);
  const auto exported = [&controller] {
    WireWriter writer;
    controller.ExportState(writer);
    return writer.Take();
  };
  // In range, up to INT_MAX in every field: imports and re-exports byte for
  // byte.
  const std::vector<std::uint8_t> valid =
      ControllerState({{2, BreakerState::kOpen, 3, 4},
                       {kIntMax, BreakerState::kHalfOpen, kIntMax, kIntMax}});
  WireReader valid_reader(valid);
  ASSERT_TRUE(controller.ImportState(valid_reader).ok());
  ASSERT_EQ(exported(), valid);
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> malformed = {
      {"ocs 2^31", ControllerState({{kTwo31, BreakerState::kOpen, 0, 1}})},
      {"ocs 2^32+1", ControllerState({{kTwo32 + 1, BreakerState::kOpen, 0, 1}})},
      {"exhaustions 2^32+5", ControllerState({{1, BreakerState::kOpen, kTwo32 + 5, 1}})},
      {"cooldown 2^31", ControllerState({{1, BreakerState::kOpen, 0, kTwo31}})},
      {"cooldown 2^63", ControllerState({{1, BreakerState::kOpen, 0, std::uint64_t{1} << 63}})},
  };
  for (const auto& [name, bytes] : malformed) {
    WireReader reader(bytes);
    const common::Status imported = controller.ImportState(reader);
    ASSERT_FALSE(imported.ok()) << name;
    EXPECT_EQ(imported.error().code, common::Error::Code::kInternal) << name;
    EXPECT_EQ(controller.breaker_state(1), BreakerState::kClosed) << name;
    EXPECT_EQ(controller.breaker_state(2), BreakerState::kOpen) << name;
    EXPECT_EQ(exported(), valid) << name;
  }
}

TEST(Controller, ExportImportRoundTripsEveryReachableState) {
  // With no cooldown, a tripped breaker goes half-open on the next
  // transaction with its cooldown counted down to -1, which ExportState
  // writes as 2^64-1. A fresh controller must import that export and
  // re-export it byte for byte, or a snapshot the service wrote itself
  // could not be recovered.
  ocs::PalomarSwitch ocs_a(78), ocs_b(79);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(14);
  bus.SetDropProbability(1.0);
  FabricControllerOptions options;
  options.max_retries = 1;
  options.breaker_threshold = 1;
  options.breaker_cooldown = 0;
  FabricController controller(bus, options);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  const std::map<int, std::map<int, int>> on_a = {{0, {{0, 1}}}};
  const std::map<int, std::map<int, int>> on_b = {{1, {{0, 1}}}};
  EXPECT_FALSE(controller.ApplyTopology(on_a).ok);
  EXPECT_FALSE(controller.ApplyTopology(on_b).ok);
  EXPECT_EQ(controller.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(controller.breaker_state(1), BreakerState::kOpen);
  EXPECT_FALSE(controller.ApplyTopology(on_a).ok);
  ASSERT_EQ(controller.breaker_state(0), BreakerState::kHalfOpen);
  ASSERT_EQ(controller.breaker_state(1), BreakerState::kOpen);
  WireWriter writer;
  controller.ExportState(writer);
  const std::vector<std::uint8_t> exported = writer.Take();

  MessageBus fresh_bus(15);
  FabricController fresh(fresh_bus, options);
  WireReader reader(exported);
  const common::Status imported = fresh.ImportState(reader);
  ASSERT_TRUE(imported.ok()) << imported.error().message;
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(fresh.breaker_state(0), BreakerState::kHalfOpen);
  EXPECT_EQ(fresh.breaker_state(1), BreakerState::kOpen);
  WireWriter reexport;
  fresh.ExportState(reexport);
  EXPECT_EQ(reexport.buffer(), exported);
}

TEST(Controller, CollectsTelemetryFromAll) {
  ocs::PalomarSwitch ocs_a(62), ocs_b(63);
  (void)ocs_a.Connect(0, 1);
  OcsAgent agent_a(ocs_a), agent_b(ocs_b);
  MessageBus bus(8);
  FabricController controller(bus);
  controller.Register(0, &agent_a);
  controller.Register(1, &agent_b);
  const auto telemetry = controller.CollectTelemetry();
  ASSERT_EQ(telemetry.replies.size(), 2u);
  EXPECT_TRUE(telemetry.failed.empty());
  EXPECT_EQ(telemetry.replies.at(0).connects, 1u);
  EXPECT_EQ(telemetry.replies.at(1).connects, 0u);
}

}  // namespace
}  // namespace lightwave::ctrl
