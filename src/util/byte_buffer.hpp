// Growable byte buffer with big-endian primitive encode/decode helpers.
//
// Used by the middleware binary codec and the TpWIRE segmentation layer.
// All multi-byte integers are big-endian ("network order") on the wire.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/assert.hpp"

namespace tb::util {

/// Write-side view: appends primitives to an owned byte vector.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);

  /// Unsigned LEB128 — compact lengths for the binary codec.
  void put_varint(std::uint64_t v);

  /// Length-prefixed (varint) byte string.
  void put_bytes(std::span<const std::uint8_t> data);
  void put_string(std::string_view s);

  /// Raw append, no length prefix.
  void append(std::span<const std::uint8_t> data);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  void reserve(std::size_t n) { bytes_.reserve(n); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Read-side cursor over a byte span. Throws PreconditionError on underflow,
/// which the middleware codecs translate into decode failures.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::uint64_t get_varint();
  std::vector<std::uint8_t> get_bytes();
  std::string get_string();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> take_raw(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tb::util
