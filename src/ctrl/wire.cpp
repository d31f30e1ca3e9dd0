#include "ctrl/wire.h"

#include <array>
#include <bit>
#include <climits>

#include "common/check.h"

namespace lightwave::ctrl {

void WireWriter::PutU8(std::uint8_t v) { buffer_.push_back(v); }

void WireWriter::PutU16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::PutVarint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void WireWriter::PutBytes(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

bool WireReader::Take(std::size_t size) {
  ok_ = ok_ && remaining() >= size;
  if (ok_) pos_ += size;
  return ok_;
}

std::uint64_t WireReader::GetFixed(std::size_t size) {
  if (!Take(size)) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < size; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ - size + i]) << (8 * i);
  }
  return v;
}

std::uint64_t WireReader::GetVarint(std::uint64_t max) {
  std::uint64_t v = 0;
  for (int shift = 0; Take(1); shift += 7) {
    const std::uint8_t byte = data_[pos_ - 1];
    // The tenth byte carries bit 63 alone and ends the varint; anything
    // more would wrap (2^64 + 5 read as 5).
    if (shift == 63 && byte > 1) break;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v <= max ? v : Fail();
  }
  return Fail();
}

int WireReader::GetInt() {
  // PutInt writes 0..INT_MAX as themselves and INT_MIN..-1 as their images
  // 2^64 + INT_MIN .. 2^64 - 1; nothing in between.
  constexpr auto kLowestImage = static_cast<std::uint64_t>(std::int64_t{INT_MIN});
  const std::uint64_t v = GetVarint();
  if (v > std::uint64_t{INT_MAX} && v < kLowestImage) return static_cast<int>(Fail());
  return static_cast<int>(static_cast<std::int64_t>(v));
}

double WireReader::GetDouble() { return std::bit_cast<double>(GetU64()); }

std::string WireReader::GetString() {
  const std::uint64_t size = GetVarint();
  if (!Take(size)) return {};
  return std::string(reinterpret_cast<const char*>(data_.data() + pos_ - size), size);
}

std::vector<std::uint8_t> WireReader::GetBytes(std::size_t size) {
  if (!Take(size)) return {};
  return std::vector<std::uint8_t>(data_.begin() + static_cast<long>(pos_ - size),
                                   data_.begin() + static_cast<long>(pos_));
}

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> FrameMessage(const std::vector<std::uint8_t>& payload,
                                       std::uint16_t version) {
  WireWriter w;
  w.PutU16(version);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutBytes(payload.data(), payload.size());
  // The CRC covers the header too: a corrupted version or length field must
  // not slip through (the header is what selects the decode path).
  w.PutU32(Crc32(w.buffer().data(), w.buffer().size()));
  return w.Take();
}

std::optional<UnframedMessage> UnframeMessage(const std::vector<std::uint8_t>& frame) {
  // Each rejection is an LW_ENSURE contract: malformed input is expected at
  // runtime (never fatal), but every violation fires the failure handler so
  // corrupt frames surface in counters instead of vanishing silently.
  WireReader r(frame);
  const std::uint16_t version = r.GetU16();
  const std::uint32_t length = r.GetU32();
  std::vector<std::uint8_t> payload = r.GetBytes(length);
  const std::size_t covered = frame.size() - r.remaining();  // header + payload
  const std::uint32_t stored = r.GetU32();
  if (!LW_ENSURE(r.ok())) return std::nullopt;
  if (!LW_ENSURE(version >= kMinSupportedVersion)) return std::nullopt;
  if (!LW_ENSURE(stored == Crc32(frame.data(), covered))) return std::nullopt;
  return UnframedMessage{.version = version, .payload = std::move(payload)};
}

}  // namespace lightwave::ctrl
