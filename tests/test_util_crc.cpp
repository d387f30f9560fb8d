#include "src/util/crc.hpp"

#include <gtest/gtest.h>

namespace tb::util {
namespace {

TEST(Crc4, ZeroMessageHasZeroCrc) {
  EXPECT_EQ(crc4_itu(0, 11), 0);
}

TEST(Crc4, MatchesLongDivisionByHand) {
  // message 0b1 (1 bit): remainder of 1,0000 / 10011 = 10000 ^ 10011 = 0011.
  EXPECT_EQ(crc4_itu(0b1, 1), 0b0011);
}

TEST(Crc4, GeneratorItselfDividesToZero) {
  // The generator polynomial x^4+x+1 = 0b10011 followed by its own CRC must
  // reduce to zero: crc(0b10011) applied to message||crc yields 0.
  const std::uint8_t crc = crc4_itu(0b10011, 5);
  const std::uint64_t with_crc = (0b10011ull << 4) | crc;
  EXPECT_EQ(crc4_itu(with_crc, 9), 0);
}

TEST(Crc4, AppendingCrcAlwaysYieldsZeroRemainder) {
  // Property over all 11-bit TpWIRE frame bodies.
  for (std::uint64_t body = 0; body < (1u << 11); ++body) {
    const std::uint8_t crc = crc4_itu(body, 11);
    EXPECT_EQ(crc4_itu((body << 4) | crc, 15), 0) << "body=" << body;
  }
}

TEST(Crc4, DetectsEverySingleBitError) {
  // x^4+x+1 has >= 2 terms, so any single flipped bit must change the CRC.
  for (std::uint64_t body : {0ull, 0x7FFull, 0x2A5ull, 0x400ull, 0x123ull}) {
    const std::uint8_t crc = crc4_itu(body, 11);
    for (int bit = 0; bit < 11; ++bit) {
      const std::uint64_t corrupted = body ^ (1ull << bit);
      EXPECT_NE(crc4_itu(corrupted, 11), crc)
          << "body=" << body << " bit=" << bit;
    }
  }
}

/// Bit-at-a-time long division, the reference the table must reproduce:
/// only the low `bit_count` bits of `bits` are the message.
std::uint8_t crc4_reference(std::uint64_t bits, int bit_count) {
  std::uint64_t remainder = (bits & ((1ull << bit_count) - 1)) << 4;
  for (int i = bit_count + 3; i >= 4; --i) {
    if (remainder & (1ull << i)) remainder ^= 0b10011ull << (i - 4);
  }
  return static_cast<std::uint8_t>(remainder & 0xF);
}

TEST(Crc4, TableMatchesBitwiseForEvery12BitInputAtFrameWidths) {
  // 10- and 11-bit bodies are the TpWIRE frame widths; inputs above the
  // width carry bits that must not enter the division.
  for (const int width : {10, 11}) {
    for (std::uint64_t bits = 0; bits < (1u << 12); ++bits) {
      ASSERT_EQ(crc4_itu(bits, width), crc4_reference(bits, width))
          << "bits=" << bits << " width=" << width;
    }
  }
}

TEST(Crc4, WideInputsUseTheBitwiseFallback) {
  const std::uint64_t wide = 0x3A5C1F7ull;  // 26 bits, past the table
  EXPECT_EQ(crc4_itu(wide, 26), crc4_reference(wide, 26));
  EXPECT_EQ(crc4_itu(wide, 60), crc4_reference(wide, 60));
}

TEST(Crc8, KnownVector) {
  // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc8(data), 0xF4);
}

TEST(Crc8, EmptyIsZero) {
  EXPECT_EQ(crc8({}), 0);
}

TEST(Crc8, SingleByteChangesCrc) {
  for (int b = 0; b < 256; ++b) {
    const auto byte = static_cast<std::uint8_t>(b);
    const std::uint8_t one[] = {byte};
    const std::uint8_t other[] = {static_cast<std::uint8_t>(byte ^ 1)};
    EXPECT_NE(crc8(one), crc8(other));
  }
}

}  // namespace
}  // namespace tb::util
