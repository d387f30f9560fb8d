#include "src/util/crc.hpp"

#include <array>

#include "src/util/assert.hpp"

namespace tb::util {

namespace {

// Long-division over GF(2): append four zero bits, then reduce by 0b10011.
constexpr std::uint8_t crc4_bitwise(std::uint64_t bits, int bit_count) {
  std::uint64_t remainder = bits << 4;
  const int total = bit_count + 4;
  for (int i = total - 1; i >= 4; --i) {
    if (remainder & (1ull << i)) {
      remainder ^= (0b10011ull << (i - 4));
    }
  }
  return static_cast<std::uint8_t>(remainder & 0xF);
}

// Leading zeros do not change a zero-init CRC, so one table of 12-bit
// bodies serves every narrower width — the 10- and 11-bit frame bodies
// included.
constexpr int kTableBits = 12;

constexpr std::array<std::uint8_t, 1u << kTableBits> make_crc4_table() {
  std::array<std::uint8_t, 1u << kTableBits> table{};
  for (std::uint64_t body = 0; body < table.size(); ++body) {
    table[body] = crc4_bitwise(body, kTableBits);
  }
  return table;
}

constexpr std::array<std::uint8_t, 1u << kTableBits> kCrc4Table =
    make_crc4_table();

}  // namespace

std::uint8_t crc4_itu(std::uint64_t bits, int bit_count) {
  TB_REQUIRE(bit_count >= 0 && bit_count <= 60);
  // Bits above bit_count never enter the division.
  const std::uint64_t body = bits & ((1ull << bit_count) - 1);
  if (body < kCrc4Table.size()) return kCrc4Table[body];
  return crc4_bitwise(body, bit_count);
}

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  // One table step per byte: the byte-wide remainder of `index` shifted
  // through eight MSB-first division steps.
  static constexpr std::array<std::uint8_t, 256> kTable = [] {
    std::array<std::uint8_t, 256> table{};
    for (unsigned index = 0; index < table.size(); ++index) {
      auto crc = static_cast<std::uint8_t>(index);
      for (int i = 0; i < 8; ++i) {
        crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                           : static_cast<std::uint8_t>(crc << 1);
      }
      table[index] = crc;
    }
    return table;
  }();
  std::uint8_t crc = 0;
  for (std::uint8_t byte : data) crc = kTable[crc ^ byte];
  return crc;
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

}  // namespace tb::util
