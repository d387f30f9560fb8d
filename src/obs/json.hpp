// Minimal JSON document model for the observability layer.
//
// The C++ harnesses write BENCH_*.json reports with it; tools/bench_compare.py
// reads them back in Python, so the value type only builds and writes:
// dump() emits deterministic, stably-ordered JSON (object members keep
// insertion order, integers never pass through a double). Not a
// general-purpose library: no NaN/Infinity, UTF-8 in = UTF-8 out.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tb::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double d) : type_(Type::kNumber), num_(d) {}
  JsonValue(std::int64_t i)
      : type_(Type::kNumber), num_(static_cast<double>(i)), int_(i),
        integral_(true) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::uint64_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
  JsonValue(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue array() { return JsonValue(Type::kArray); }
  static JsonValue object() { return JsonValue(Type::kObject); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  /// True for numbers built from an integer; dump() writes their exact
  /// int64 value.
  bool is_integral() const { return type_ == Type::kNumber && integral_; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  // --- array ---------------------------------------------------------------
  JsonValue& push_back(JsonValue v);
  std::size_t size() const;  ///< element / member count (arrays & objects)
  const JsonValue& operator[](std::size_t i) const;

  // --- object (insertion-ordered) -------------------------------------------
  /// Inserts or overwrites `key`; returns the stored value.
  JsonValue& set(std::string key, JsonValue v);
  /// Member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup that asserts presence.
  const JsonValue& at(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// Serializes; indent 0 = compact single line, indent > 0 = pretty-printed
  /// with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  explicit JsonValue(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool integral_ = false;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace tb::obs
