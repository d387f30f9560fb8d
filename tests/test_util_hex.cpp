#include "src/util/hex.hpp"

#include <gtest/gtest.h>

namespace tb::util {
namespace {

TEST(Hex, EncodeBasic) {
  const std::uint8_t data[] = {0xDE, 0xAD, 0x00, 0x0F};
  EXPECT_EQ(to_hex(data), "dead000f");
}

TEST(Hex, EncodeEmpty) {
  EXPECT_EQ(to_hex({}), "");
}

TEST(Hex, DecodeBasic) {
  auto bytes = from_hex("dead000f");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, (std::vector<std::uint8_t>{0xDE, 0xAD, 0x00, 0x0F}));
}

TEST(Hex, DecodeUppercase) {
  auto bytes = from_hex("DEAD");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, (std::vector<std::uint8_t>{0xDE, 0xAD}));
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_FALSE(from_hex("abc").has_value());
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("a ").has_value());
}

TEST(Hex, RoundTripAllBytes) {
  std::vector<std::uint8_t> all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<std::uint8_t>(i));
  auto decoded = from_hex(to_hex(all));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, all);
}

}  // namespace
}  // namespace tb::util
