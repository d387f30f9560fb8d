#include "src/mw/xml.hpp"

#include <cctype>
#include <charconv>

#include "src/util/assert.hpp"
#include "src/util/strings.hpp"

namespace tb::mw {
namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<XmlNode> parse_document() {
    skip_whitespace_and_misc();
    std::optional<XmlNode> root = parse_element(1);
    if (!root) return std::nullopt;
    skip_whitespace_and_misc();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return root;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_whitespace() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  void skip_whitespace_and_misc() {
    while (true) {
      skip_whitespace();
      if (consume_literal("<!--")) {
        const std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) {
          pos_ = text_.size();
          return;
        }
        pos_ = end + 3;
      } else if (consume_literal("<?")) {
        const std::size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) {
          pos_ = text_.size();
          return;
        }
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
           c == '.' || c == ':';
  }

  std::optional<std::string> parse_name() {
    const std::size_t start = pos_;
    while (!at_end() && is_name_char(peek())) ++pos_;
    if (pos_ == start) return std::nullopt;
    return std::string(text_.substr(start, pos_ - start));
  }

  std::optional<XmlNode> parse_element(int depth) {
    if (depth > kMaxXmlDepth || !consume('<')) return std::nullopt;
    std::optional<std::string> name = parse_name();
    if (!name) return std::nullopt;
    XmlNode node;
    node.name = *name;

    // Attributes.
    while (true) {
      skip_whitespace();
      if (at_end()) return std::nullopt;
      if (consume_literal("/>")) return node;  // self-closing
      if (consume('>')) break;
      std::optional<std::string> key = parse_name();
      if (!key) return std::nullopt;
      skip_whitespace();
      if (!consume('=')) return std::nullopt;
      skip_whitespace();
      const char quote = at_end() ? '\0' : peek();
      if (quote != '"' && quote != '\'') return std::nullopt;
      ++pos_;
      const std::size_t value_start = pos_;
      while (!at_end() && peek() != quote) ++pos_;
      if (at_end()) return std::nullopt;
      node.attributes[*key] =
          util::xml_unescape(text_.substr(value_start, pos_ - value_start));
      ++pos_;  // closing quote
    }

    // Content: text, children, comments, until the matching close tag.
    while (true) {
      if (at_end()) return std::nullopt;  // unclosed element
      if (consume_literal("<!--")) {
        const std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) return std::nullopt;
        pos_ = end + 3;
        continue;
      }
      if (consume_literal("</")) {
        std::optional<std::string> close = parse_name();
        if (!close || *close != node.name) return std::nullopt;
        skip_whitespace();
        if (!consume('>')) return std::nullopt;
        return node;
      }
      if (!at_end() && peek() == '<') {
        std::optional<XmlNode> childNode = parse_element(depth + 1);
        if (!childNode) return std::nullopt;
        node.children.push_back(std::move(*childNode));
        continue;
      }
      // Character data up to the next markup.
      const std::size_t start = pos_;
      while (!at_end() && peek() != '<') ++pos_;
      node.text += util::xml_unescape(text_.substr(start, pos_ - start));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const XmlNode* XmlNode::child(std::string_view child_name) const {
  for (const XmlNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

std::optional<std::string> XmlNode::attribute(std::string_view key) const {
  auto it = attributes.find(std::string(key));
  if (it == attributes.end()) return std::nullopt;
  return it->second;
}

std::optional<XmlNode> xml_parse(std::string_view text) {
  return Parser(text).parse_document();
}

void XmlWriter::open(std::string_view name) {
  close_open_tag();
  if (!stack_.empty()) stack_.back().has_content = true;
  out_->push_back('<');
  append(name);
  stack_.push_back(Frame{.name = name});
  tag_open_ = true;
}

void XmlWriter::attr(std::string_view key, std::string_view value) {
  TB_ASSERT(tag_open_);
  out_->push_back(' ');
  append(key);
  out_->push_back('=');
  out_->push_back('"');
  util::xml_escape_into(value, *out_);
  out_->push_back('"');
}

void XmlWriter::attr_i64(std::string_view key, std::int64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  attr(key, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void XmlWriter::attr_u64(std::string_view key, std::uint64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  attr(key, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void XmlWriter::text(std::string_view s) {
  if (s.empty()) return;
  close_open_tag();
  TB_ASSERT(!stack_.empty());
  stack_.back().has_content = true;
  util::xml_escape_into(s, *out_);
}

void XmlWriter::text_i64(std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  text(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void XmlWriter::text_u64(std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  text(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void XmlWriter::close() {
  TB_ASSERT(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (tag_open_ && !frame.has_content) {
    out_->push_back('/');
    out_->push_back('>');
    tag_open_ = false;
    return;
  }
  close_open_tag();
  out_->push_back('<');
  out_->push_back('/');
  append(frame.name);
  out_->push_back('>');
}

void XmlWriter::close_open_tag() {
  if (tag_open_) {
    out_->push_back('>');
    tag_open_ = false;
  }
}

}  // namespace tb::mw
