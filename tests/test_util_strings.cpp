#include "src/util/strings.hpp"

#include <gtest/gtest.h>

namespace tb::util {
namespace {

std::string escaped(std::string_view s) {
  std::vector<std::uint8_t> out;
  xml_escape_into(s, out);
  return std::string(out.begin(), out.end());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi\t\n"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(XmlEscape, EscapesSpecials) {
  EXPECT_EQ(escaped("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped(""), "");
}

TEST(XmlEscape, RoundTrips) {
  const std::string original = R"(a <tag attr="v">&'text' </tag>)";
  EXPECT_EQ(xml_unescape(escaped(original)), original);
}

TEST(XmlUnescape, UnknownEntityPassesThrough) {
  EXPECT_EQ(xml_unescape("&unknown;x"), "&unknown;x");
}

TEST(XmlUnescape, LoneAmpersand) {
  EXPECT_EQ(xml_unescape("a & b"), "a & b");
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(FormatSeconds, PicksUnits) {
  EXPECT_EQ(format_seconds(0.0), "0 s");
  EXPECT_EQ(format_seconds(1.5e-9), "1.50 ns");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
  EXPECT_EQ(format_seconds(0.004), "4.00 ms");
  EXPECT_EQ(format_seconds(140.0), "140.00 s");
}

}  // namespace
}  // namespace tb::util
