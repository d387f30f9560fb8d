#include "src/mw/xml.hpp"

#include <gtest/gtest.h>

namespace tb::mw {
namespace {

TEST(Xml, ParsesSimpleElement) {
  auto doc = xml_parse("<root/>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->name, "root");
  EXPECT_TRUE(doc->children.empty());
  EXPECT_TRUE(doc->text.empty());
}

TEST(Xml, ParsesAttributes) {
  auto doc = xml_parse(R"(<msg type="write" id='7'/>)");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->attribute("type"), "write");
  EXPECT_EQ(doc->attribute("id"), "7");
  EXPECT_FALSE(doc->attribute("missing").has_value());
}

TEST(Xml, ParsesNestedChildren) {
  auto doc = xml_parse("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->children.size(), 2u);
  EXPECT_EQ(doc->children[0].name, "b");
  ASSERT_NE(doc->child("b"), nullptr);
  EXPECT_EQ(doc->child("b")->children.size(), 1u);
  EXPECT_EQ(doc->children[1].name, "b");
}

TEST(Xml, ParsesTextContent) {
  auto doc = xml_parse("<v>  42  </v>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->text, "  42  ");
}

TEST(Xml, UnescapesEntities) {
  auto doc = xml_parse("<v>a &lt;b&gt; &amp; &quot;c&quot;</v>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->text, "a <b> & \"c\"");
}

TEST(Xml, UnescapesAttributeValues) {
  auto doc = xml_parse(R"(<v k="a&amp;b"/>)");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->attribute("k"), "a&b");
}

TEST(Xml, SkipsCommentsAndProlog) {
  auto doc = xml_parse(
      "<?xml version=\"1.0\"?><!-- hi --><root><!-- inner --><a/></root>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->children.size(), 1u);
}

TEST(Xml, RejectsMismatchedCloseTag) {
  EXPECT_FALSE(xml_parse("<a></b>").has_value());
}

TEST(Xml, RejectsUnclosedElement) {
  EXPECT_FALSE(xml_parse("<a><b></b>").has_value());
}

TEST(Xml, RejectsTrailingGarbage) {
  EXPECT_FALSE(xml_parse("<a/>junk").has_value());
}

TEST(Xml, RejectsUnquotedAttribute) {
  EXPECT_FALSE(xml_parse("<a k=v/>").has_value());
}

TEST(Xml, RejectsEmptyInput) {
  EXPECT_FALSE(xml_parse("").has_value());
  EXPECT_FALSE(xml_parse("   ").has_value());
}

std::string as_text(const std::vector<std::uint8_t>& bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST(Xml, WriterOutputParsesBack) {
  std::vector<std::uint8_t> out;
  XmlWriter w(out);
  w.open("msg");
  w.attr("type", "x<y");
  w.open("value");
  w.text("a&b");
  w.close();
  w.close();
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_EQ(as_text(out),
            R"(<msg type="x&lt;y"><value>a&amp;b</value></msg>)");

  auto reparsed = xml_parse(as_text(out));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->attribute("type"), "x<y");
  EXPECT_EQ(reparsed->child("value")->text, "a&b");
}

TEST(Xml, WriterSelfClosesEmptyElements) {
  std::vector<std::uint8_t> out;
  XmlWriter w(out);
  w.open("empty");
  w.attr_i64("n", -3);
  w.close();
  w.open("e");
  w.text("");  // empty text is no content
  w.close();
  EXPECT_EQ(as_text(out), R"(<empty n="-3"/><e/>)");
}

TEST(Xml, MixedTextAndChildren) {
  auto doc = xml_parse("<a>pre<b/>post</a>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->text, "prepost");
  EXPECT_EQ(doc->children.size(), 1u);
}

TEST(Xml, DeepNesting) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "<n>";
  text += "x";
  for (int i = 0; i < 50; ++i) text += "</n>";
  auto doc = xml_parse(text);
  ASSERT_TRUE(doc.has_value());
  const XmlNode* cursor = &*doc;
  int depth = 1;
  while (!cursor->children.empty()) {
    cursor = &cursor->children[0];
    ++depth;
  }
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(cursor->text, "x");
}

}  // namespace
}  // namespace tb::mw
