// Binary wire format for the control plane. Little-endian fixed-width
// integers plus LEB128 varints, length-prefixed strings, and a frame
// envelope carrying a protocol version and a CRC32 so corrupt or
// version-skewed frames are rejected before decode. The OCSes share the
// management-plane stack with the EPS fleet (§3.2.2); this module is that
// stack's serialization layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lightwave::ctrl {

inline constexpr std::uint16_t kProtocolVersion = 3;
/// Oldest peer version this implementation still decodes.
inline constexpr std::uint16_t kMinSupportedVersion = 2;

class WireWriter {
 public:
  void PutU8(std::uint8_t v);
  void PutU16(std::uint16_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutVarint(std::uint64_t v);
  /// An int rides a varint: a negative one as its 64-bit two's-complement
  /// image (ten bytes). WireReader::GetInt is the exact inverse.
  void PutInt(int v) { PutVarint(static_cast<std::uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(std::string_view s);
  void PutBytes(const std::uint8_t* data, std::size_t size);

  /// Adopt `buffer` as the output, clearing its contents but keeping its
  /// capacity — hot encode loops round-trip one buffer through Reset/Take
  /// instead of allocating per message.
  void Reset(std::vector<std::uint8_t> buffer) {
    buffer_ = std::move(buffer);
    buffer_.clear();
  }
  void Reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reads what WireWriter wrote. A read returns its value, or zero (an empty
/// string or vector) when the bytes run out or the value is out of range.
/// The first failure latches: every later read returns zero too and ok()
/// stays false. So a decoder reads all its fields, checks ok() once, then
/// acts. Keep each read its own statement or an element of a braced
/// initializer: function arguments and the operands of `a | b` are
/// unsequenced.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& data) : data_(data) {}

  std::uint8_t GetU8() { return static_cast<std::uint8_t>(GetFixed(1)); }
  std::uint16_t GetU16() { return static_cast<std::uint16_t>(GetFixed(2)); }
  std::uint32_t GetU32() { return static_cast<std::uint32_t>(GetFixed(4)); }
  std::uint64_t GetU64() { return GetFixed(8); }
  /// Fails on a value above `max`, so a bounded field never needs a check
  /// of its own.
  std::uint64_t GetVarint(std::uint64_t max = UINT64_MAX);
  /// Inverse of WireWriter::PutInt: fails on any varint PutInt cannot
  /// write, i.e. one that is neither <= INT_MAX nor the image of a negative
  /// int.
  int GetInt();
  double GetDouble();
  std::string GetString();
  /// Inverse of WireWriter::PutBytes.
  std::vector<std::uint8_t> GetBytes(std::size_t size);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  /// Consumes `size` bytes, or latches failure when fewer remain.
  bool Take(std::size_t size);
  /// Little-endian unsigned integer of `size` <= 8 bytes.
  std::uint64_t GetFixed(std::size_t size);
  std::uint64_t Fail() {
    ok_ = false;
    return 0;
  }

  const std::vector<std::uint8_t>& data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC32 (IEEE 802.3 polynomial, table-driven).
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

/// Wraps a payload in [version u16][length u32][payload][crc32 u32].
std::vector<std::uint8_t> FrameMessage(const std::vector<std::uint8_t>& payload,
                                       std::uint16_t version = kProtocolVersion);

struct UnframedMessage {
  std::uint16_t version = 0;
  std::vector<std::uint8_t> payload;
};

/// Validates and strips the envelope; nullopt on truncation, bad CRC, or a
/// version below kMinSupportedVersion.
std::optional<UnframedMessage> UnframeMessage(const std::vector<std::uint8_t>& frame);

}  // namespace lightwave::ctrl
