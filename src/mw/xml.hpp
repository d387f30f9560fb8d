// Minimal XML document model, parser and writer.
//
// The paper serializes entries as XML over the socket wrapper; this is the
// supporting substrate: elements, attributes and text content — the subset
// the space protocol emits. No namespaces, DTDs or processing instructions;
// comments are skipped. The parser is strict about well-formedness within
// that subset and reports failures as std::nullopt.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tb::mw {

struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<XmlNode> children;
  std::string text;  ///< concatenated character data directly inside this node

  /// First child with the given element name, or nullptr.
  const XmlNode* child(std::string_view child_name) const;

  /// Attribute value, or nullopt.
  std::optional<std::string> attribute(std::string_view key) const;
};

/// Parses a single-rooted document. nullopt on malformed input.
std::optional<XmlNode> xml_parse(std::string_view text);

/// Append-only serializer writing straight into a caller-owned byte buffer —
/// the only XML encoder, and the codec's zero-allocation encode path:
/// self-closing empty elements, escaped attributes and text, no
/// pretty-printing, no node tree. xml_parse() reads its output back.
///
///   XmlWriter w(out);
///   w.open("msg"); w.attr("id", "7");
///   w.open("ok"); w.text("true"); w.close();
///   w.close();
class XmlWriter {
 public:
  explicit XmlWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  /// Starts <name ...; the tag closes lazily on the first content or close().
  void open(std::string_view name);

  /// Adds an attribute to the currently open tag. Must precede any content.
  void attr(std::string_view key, std::string_view value);
  void attr_i64(std::string_view key, std::int64_t value);
  void attr_u64(std::string_view key, std::uint64_t value);

  /// Appends escaped character data inside the current element.
  void text(std::string_view s);
  void text_i64(std::int64_t v);
  void text_u64(std::uint64_t v);

  /// Ends the current element: "/>" when it had no content, "</name>"
  /// otherwise.
  void close();

  std::size_t depth() const { return stack_.size(); }

 private:
  void append(std::string_view s) {
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void close_open_tag();  ///< emits the deferred '>' once content begins

  struct Frame {
    std::string_view name;  ///< caller-owned; must outlive the close()
    bool has_content = false;
  };

  std::vector<std::uint8_t>* out_;
  std::vector<Frame> stack_;
  bool tag_open_ = false;  ///< inside "<name ..." awaiting '>' or "/>"
};

}  // namespace tb::mw
