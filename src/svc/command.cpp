#include "svc/command.h"

#include <string>

#include "ctrl/wire.h"

namespace lightwave::svc {

const char* ToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kAdmit: return "admit";
    case CommandKind::kResize: return "resize";
    case CommandKind::kRelease: return "release";
    case CommandKind::kPrepare: return "prepare";
    case CommandKind::kCommitTxn: return "commit-txn";
    case CommandKind::kAbortTxn: return "abort-txn";
  }
  return "unknown";
}

std::vector<std::uint8_t> SliceCommand::Encode() const {
  std::vector<std::uint8_t> out;
  EncodeTo(&out);
  return out;
}

void SliceCommand::EncodeTo(std::vector<std::uint8_t>* out) const {
  ctrl::WireWriter writer;
  writer.Reset(std::move(*out));
  writer.Reserve(64);  // eight varints and a kind byte never exceed this
  writer.PutVarint(command_id);
  writer.PutVarint(tenant_id);
  writer.PutU8(static_cast<std::uint8_t>(kind));
  writer.PutVarint(job_id);
  writer.PutVarint(txn_id);
  writer.PutInt(shape.a);
  writer.PutInt(shape.b);
  writer.PutInt(shape.c);
  *out = writer.Take();
}

common::Result<SliceCommand> SliceCommand::Decode(const std::vector<std::uint8_t>& bytes) {
  ctrl::WireReader reader(bytes);
  SliceCommand cmd{.command_id = reader.GetVarint(),
                   .tenant_id = static_cast<std::uint32_t>(reader.GetVarint(UINT32_MAX)),
                   .kind = static_cast<CommandKind>(reader.GetU8()),
                   .job_id = reader.GetVarint(),
                   .txn_id = reader.GetVarint(),
                   .shape = {reader.GetInt(), reader.GetInt(), reader.GetInt()}};
  if (!reader.ok() || !reader.AtEnd()) {
    return common::Internal("slice command truncated, overlong or out of range");
  }
  if (cmd.kind < CommandKind::kAdmit || cmd.kind > CommandKind::kAbortTxn) {
    return common::Internal("unknown command kind " +
                            std::to_string(static_cast<int>(cmd.kind)));
  }
  return cmd;
}

}  // namespace lightwave::svc
