#include "src/mw/tuple_xml.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "src/util/hex.hpp"
#include "src/util/strings.hpp"

namespace tb::mw {
namespace {

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

std::optional<space::ValueType> value_type_from(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(space::ValueType::kBytes); ++i) {
    const auto t = static_cast<space::ValueType>(i);
    if (s == space::to_string(t)) return t;
  }
  return std::nullopt;
}

}  // namespace

std::optional<space::Value> value_from_xml(const XmlNode& node) {
  if (node.name == "int") {
    auto v = parse_i64(node.text);
    if (!v) return std::nullopt;
    return space::Value(*v);
  }
  if (node.name == "float") {
    char* end = nullptr;
    const double v = std::strtod(node.text.c_str(), &end);
    if (end != node.text.c_str() + node.text.size()) return std::nullopt;
    return space::Value(v);
  }
  if (node.name == "bool") {
    if (node.text == "true") return space::Value(true);
    if (node.text == "false") return space::Value(false);
    return std::nullopt;
  }
  if (node.name == "string") return space::Value(node.text);
  if (node.name == "bytes") {
    auto bytes = util::from_hex(node.text);
    if (!bytes) return std::nullopt;
    return space::Value(std::move(*bytes));
  }
  return std::nullopt;
}

std::optional<space::Tuple> tuple_from_xml(const XmlNode& node) {
  if (node.name != "tuple") return std::nullopt;
  auto name = node.attribute("name");
  if (!name) return std::nullopt;
  space::Tuple tuple;
  tuple.name = *name;
  for (const XmlNode& child : node.children) {
    auto v = value_from_xml(child);
    if (!v) return std::nullopt;
    tuple.fields.push_back(std::move(*v));
  }
  return tuple;
}

std::optional<space::Template> template_from_xml(const XmlNode& node) {
  if (node.name != "template") return std::nullopt;
  space::Template tmpl;
  if (auto name = node.attribute("name")) tmpl.name = *name;
  for (const XmlNode& field : node.children) {
    if (field.name == "exact") {
      if (field.children.size() != 1) return std::nullopt;
      auto v = value_from_xml(field.children[0]);
      if (!v) return std::nullopt;
      tmpl.fields.push_back(space::FieldPattern::exact(std::move(*v)));
    } else if (field.name == "typed") {
      auto t = value_type_from(util::trim(field.text));
      if (!t) return std::nullopt;
      tmpl.fields.push_back(space::FieldPattern::typed(*t));
    } else if (field.name == "any") {
      tmpl.fields.push_back(space::FieldPattern::any());
    } else {
      return std::nullopt;
    }
  }
  return tmpl;
}

void value_to_xml_into(const space::Value& value, XmlWriter& w) {
  switch (value.type()) {
    case space::ValueType::kInt:
      w.open("int");
      w.text_i64(value.as_int());
      break;
    case space::ValueType::kFloat: {
      w.open("float");
      char buf[64];
      const int n = std::snprintf(buf, sizeof buf, "%.17g", value.as_float());
      w.text(std::string_view(buf, static_cast<std::size_t>(n)));
      break;
    }
    case space::ValueType::kBool:
      w.open("bool");
      w.text(value.as_bool() ? "true" : "false");
      break;
    case space::ValueType::kString:
      w.open("string");
      w.text(value.as_string());
      break;
    case space::ValueType::kBytes: {
      w.open("bytes");
      // Hex expansion inline; to_hex's digits never need escaping.
      w.text(util::to_hex(value.as_bytes()));
      break;
    }
  }
  w.close();
}

void tuple_to_xml_into(const space::Tuple& tuple, XmlWriter& w) {
  w.open("tuple");
  w.attr("name", tuple.name);
  for (const space::Value& v : tuple.fields) value_to_xml_into(v, w);
  w.close();
}

void template_to_xml_into(const space::Template& tmpl, XmlWriter& w) {
  w.open("template");
  if (tmpl.name) w.attr("name", *tmpl.name);
  for (const space::FieldPattern& p : tmpl.fields) {
    if (p.is_exact()) {
      w.open("exact");
      value_to_xml_into(p.exact_value(), w);
      w.close();
    } else if (p.is_typed()) {
      w.open("typed");
      w.text(space::to_string(p.typed_type()));
      w.close();
    } else {
      w.open("any");
      w.close();
    }
  }
  w.close();
}

}  // namespace tb::mw
