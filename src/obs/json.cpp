#include "src/obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/assert.hpp"

namespace tb::obs {

bool JsonValue::as_bool() const {
  TB_REQUIRE(type_ == Type::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  TB_REQUIRE(type_ == Type::kNumber);
  return integral_ ? static_cast<double>(int_) : num_;
}

std::int64_t JsonValue::as_int() const {
  TB_REQUIRE(type_ == Type::kNumber);
  return integral_ ? int_ : static_cast<std::int64_t>(num_);
}

const std::string& JsonValue::as_string() const {
  TB_REQUIRE(type_ == Type::kString);
  return str_;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  TB_REQUIRE(type_ == Type::kArray);
  array_.push_back(std::move(v));
  return array_.back();
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const JsonValue& JsonValue::operator[](std::size_t i) const {
  TB_REQUIRE(type_ == Type::kArray);
  return array_.at(i);
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  TB_REQUIRE(type_ == Type::kObject);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return object_.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  TB_REQUIRE_MSG(v != nullptr, "missing JSON member");
  return *v;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double d) {
  // Shortest representation that round-trips a double.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == d) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, d);
      if (std::strtod(shorter, nullptr) == d) {
        out += shorter;
        return;
      }
    }
  }
  out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (integral_) {
        out += std::to_string(int_);
      } else if (std::isfinite(num_)) {
        number_to(out, num_);
      } else {
        out += "null";  // JSON has no NaN/Infinity
      }
      break;
    case Type::kString:
      escape_to(out, str_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_to(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace tb::obs
