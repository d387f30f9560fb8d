#include <charconv>

#include "src/mw/codec.hpp"
#include "src/mw/tuple_xml.hpp"
#include "src/mw/xml.hpp"
#include "src/util/strings.hpp"

namespace tb::mw {
namespace {

const char* msg_type_tag(MsgType type) { return to_string(type); }

std::optional<MsgType> msg_type_from(std::string_view tag) {
  for (int i = 0; i <= static_cast<int>(MsgType::kReplicateResponse); ++i) {
    const auto t = static_cast<MsgType>(i);
    if (tag == to_string(t)) return t;
  }
  // A type tag from a newer protocol revision: surface the kUnknownFrame
  // sentinel (the request id still decodes) so the dispatcher can answer a
  // typed kUnimplemented reply instead of dropping the session.
  return MsgType::kUnknownFrame;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t v = 0;
  auto trimmed = util::trim(s);
  auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  auto trimmed = util::trim(s);
  auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

void XmlCodec::encode_into(const Message& message,
                           std::vector<std::uint8_t>& out) const {
  // Rough upper bound: fixed envelope plus ~3x the tuple payload (hex-coded
  // bytes double, tags and entities add the rest). A cheap hint — steady
  // state reuses the buffer's existing capacity anyway.
  std::size_t hint = out.size() + 96 + message.error.size();
  if (message.tuple) hint += 48 + 3 * message.tuple->byte_size();
  if (message.tmpl) hint += 48 + 24 * message.tmpl->fields.size();
  out.reserve(hint);

  XmlWriter w(out);
  w.open("msg");
  // Attributes in alphabetical order, as XmlNode::serialize() emits them;
  // tests/golden/xml_codec.txt pins the resulting bytes.
  w.attr_i64("at", message.created_at_ns);
  w.attr_u64("id", message.request_id);
  w.attr("type", msg_type_tag(message.type));
  if (message.tuple) tuple_to_xml_into(*message.tuple, w);
  if (message.tmpl) template_to_xml_into(*message.tmpl, w);
  if (message.duration_ns != 0) {
    w.open("duration");
    w.text_i64(message.duration_ns);
    w.close();
  }
  if (message.handle != 0) {
    w.open("handle");
    w.text_u64(message.handle);
    w.close();
  }
  if (message.expires_at_ns != 0) {
    w.open("expires");
    w.text_i64(message.expires_at_ns);
    w.close();
  }
  if (message.txn != 0) {
    w.open("txn");
    w.text_u64(message.txn);
    w.close();
  }
  // Canonical status is omitted when OK (0): pre-status encodings stay
  // byte-identical on every success path.
  if (message.status != 0) {
    w.open("status");
    w.text_u64(message.status);
    w.close();
  }
  // Routing epoch, omitted when 0 (see status above): pre-federation
  // encodings stay byte-identical.
  if (message.epoch != 0) {
    w.open("epoch");
    w.text_u64(message.epoch);
    w.close();
  }
  w.open("ok");
  w.text(message.ok ? "true" : "false");
  w.close();
  if (!message.error.empty()) {
    w.open("error");
    w.text(message.error);
    w.close();
  }
  w.close();
}

std::optional<Message> XmlCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());
  std::optional<XmlNode> root = xml_parse(text);
  if (!root || root->name != "msg") return std::nullopt;

  Message message;
  auto type_attr = root->attribute("type");
  if (!type_attr) return std::nullopt;
  auto type = msg_type_from(*type_attr);
  if (!type) return std::nullopt;
  message.type = *type;

  auto id_attr = root->attribute("id");
  if (!id_attr) return std::nullopt;
  auto id = parse_u64(*id_attr);
  if (!id) return std::nullopt;
  message.request_id = *id;

  if (auto at_attr = root->attribute("at")) {
    auto at = parse_i64(*at_attr);
    if (!at) return std::nullopt;
    message.created_at_ns = *at;
  }

  if (const XmlNode* node = root->child("tuple")) {
    auto tuple = tuple_from_xml(*node);
    if (!tuple) return std::nullopt;
    message.tuple = std::move(tuple);
  }
  if (const XmlNode* node = root->child("template")) {
    auto tmpl = template_from_xml(*node);
    if (!tmpl) return std::nullopt;
    message.tmpl = std::move(tmpl);
  }
  if (const XmlNode* node = root->child("duration")) {
    auto v = parse_i64(node->text);
    if (!v) return std::nullopt;
    message.duration_ns = *v;
  }
  if (const XmlNode* node = root->child("handle")) {
    auto v = parse_u64(node->text);
    if (!v) return std::nullopt;
    message.handle = *v;
  }
  if (const XmlNode* node = root->child("expires")) {
    auto v = parse_i64(node->text);
    if (!v) return std::nullopt;
    message.expires_at_ns = *v;
  }
  if (const XmlNode* node = root->child("txn")) {
    auto v = parse_u64(node->text);
    if (!v) return std::nullopt;
    message.txn = *v;
  }
  if (const XmlNode* node = root->child("status")) {
    auto v = parse_u64(node->text);
    if (!v || *v > 255) return std::nullopt;
    message.status = static_cast<std::uint8_t>(*v);
  }
  if (const XmlNode* node = root->child("epoch")) {
    auto v = parse_u64(node->text);
    if (!v) return std::nullopt;
    message.epoch = *v;
  }
  if (const XmlNode* node = root->child("ok")) {
    message.ok = (util::trim(node->text) == "true");
  }
  if (const XmlNode* node = root->child("error")) message.error = node->text;
  return message;
}

}  // namespace tb::mw
