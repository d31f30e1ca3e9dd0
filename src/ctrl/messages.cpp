#include "ctrl/messages.h"

namespace lightwave::ctrl {
namespace {

std::vector<std::uint8_t> Frame(MessageType type, WireWriter body) {
  WireWriter payload;
  payload.PutU8(static_cast<std::uint8_t>(type));
  const auto& bytes = body.buffer();
  payload.PutBytes(bytes.data(), bytes.size());
  return FrameMessage(payload.Take());
}

/// Opens a frame, checks the type tag, returns a reader past the tag.
std::optional<std::vector<std::uint8_t>> OpenPayload(const std::vector<std::uint8_t>& frame,
                                                     MessageType expected) {
  auto unframed = UnframeMessage(frame);
  if (!unframed) return std::nullopt;
  if (unframed->payload.empty()) return std::nullopt;
  if (unframed->payload[0] != static_cast<std::uint8_t>(expected)) return std::nullopt;
  return std::vector<std::uint8_t>(unframed->payload.begin() + 1, unframed->payload.end());
}

}  // namespace

std::vector<std::uint8_t> Encode(const ReconfigureRequest& msg) {
  WireWriter w;
  w.PutU64(msg.transaction_id);
  w.PutVarint(msg.target.size());
  for (const auto& [n, s] : msg.target) {
    w.PutInt(n);
    w.PutInt(s);
  }
  return Frame(MessageType::kReconfigureRequest, std::move(w));
}

std::vector<std::uint8_t> Encode(const ReconfigureReply& msg) {
  WireWriter w;
  w.PutU64(msg.transaction_id);
  w.PutU8(msg.ok ? 1 : 0);
  w.PutString(msg.error);
  w.PutU32(msg.established);
  w.PutU32(msg.removed);
  w.PutU32(msg.undisturbed);
  w.PutDouble(msg.duration_ms);
  return Frame(MessageType::kReconfigureReply, std::move(w));
}

std::vector<std::uint8_t> Encode(const TelemetryRequest& msg) {
  WireWriter w;
  w.PutU64(msg.nonce);
  return Frame(MessageType::kTelemetryRequest, std::move(w));
}

std::vector<std::uint8_t> Encode(const TelemetryReply& msg) {
  WireWriter w;
  w.PutU64(msg.nonce);
  w.PutU64(msg.connects);
  w.PutU64(msg.disconnects);
  w.PutU64(msg.reconfigurations);
  w.PutU64(msg.rejected_commands);
  w.PutDouble(msg.cumulative_switch_ms);
  w.PutDouble(msg.power_draw_w);
  w.PutU8(msg.chassis_operational ? 1 : 0);
  return Frame(MessageType::kTelemetryReply, std::move(w));
}

std::vector<std::uint8_t> Encode(const PortSurveyRequest& msg) {
  WireWriter w;
  w.PutU64(msg.nonce);
  return Frame(MessageType::kPortSurveyRequest, std::move(w));
}

std::vector<std::uint8_t> Encode(const PortSurveyReply& msg) {
  WireWriter w;
  w.PutU64(msg.nonce);
  w.PutVarint(msg.entries.size());
  for (const auto& e : msg.entries) {
    w.PutInt(e.north);
    w.PutInt(e.south);
    w.PutDouble(e.insertion_loss_db);
    w.PutDouble(e.return_loss_db);
  }
  return Frame(MessageType::kPortSurveyReply, std::move(w));
}

std::optional<MessageType> PeekType(const std::vector<std::uint8_t>& frame) {
  auto unframed = UnframeMessage(frame);
  if (!unframed || unframed->payload.empty()) return std::nullopt;
  const std::uint8_t tag = unframed->payload[0];
  if (tag < 1 || tag > 6) return std::nullopt;
  return static_cast<MessageType>(tag);
}

std::optional<ReconfigureRequest> DecodeReconfigureRequest(
    const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kReconfigureRequest);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  ReconfigureRequest msg;
  msg.transaction_id = r.GetU64();
  for (std::uint64_t i = r.GetVarint(); i > 0 && r.ok(); --i) {
    const int north = r.GetInt();
    msg.target[north] = r.GetInt();
  }
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<ReconfigureReply> DecodeReconfigureReply(
    const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kReconfigureReply);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  ReconfigureReply msg{.transaction_id = r.GetU64(),
                       .ok = r.GetU8() != 0,
                       .error = r.GetString(),
                       .established = r.GetU32(),
                       .removed = r.GetU32(),
                       .undisturbed = r.GetU32(),
                       .duration_ms = r.GetDouble()};
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<TelemetryRequest> DecodeTelemetryRequest(
    const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kTelemetryRequest);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  TelemetryRequest msg{.nonce = r.GetU64()};
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<TelemetryReply> DecodeTelemetryReply(const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kTelemetryReply);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  TelemetryReply msg{.nonce = r.GetU64(),
                     .connects = r.GetU64(),
                     .disconnects = r.GetU64(),
                     .reconfigurations = r.GetU64(),
                     .rejected_commands = r.GetU64(),
                     .cumulative_switch_ms = r.GetDouble(),
                     .power_draw_w = r.GetDouble(),
                     .chassis_operational = r.GetU8() != 0};
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<PortSurveyRequest> DecodePortSurveyRequest(
    const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kPortSurveyRequest);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  PortSurveyRequest msg{.nonce = r.GetU64()};
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<PortSurveyReply> DecodePortSurveyReply(const std::vector<std::uint8_t>& frame) {
  auto payload = OpenPayload(frame, MessageType::kPortSurveyReply);
  if (!payload) return std::nullopt;
  WireReader r(*payload);
  PortSurveyReply msg;
  msg.nonce = r.GetU64();
  for (std::uint64_t i = r.GetVarint(); i > 0 && r.ok(); --i) {
    msg.entries.push_back({.north = r.GetInt(),
                           .south = r.GetInt(),
                           .insertion_loss_db = r.GetDouble(),
                           .return_loss_db = r.GetDouble()});
  }
  if (!r.ok()) return std::nullopt;
  return msg;
}

}  // namespace lightwave::ctrl
