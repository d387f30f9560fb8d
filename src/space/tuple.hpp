// Tuples and associative templates (Linda / JavaSpaces matching).
//
// A Tuple is a named, ordered list of typed values — the JavaSpaces Entry:
// the name plays the role of the entry's Java class, the values of its
// public fields. A Template matches tuples associatively: the name may be a
// wildcard, and each field slot is either an exact value ("actual"), a
// typed wildcard ("formal" — any value of that type), or fully unconstrained.
// Arity must match exactly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/space/value.hpp"

namespace tb::space {

/// Hash of a tuple's (name, arity) shape — FNV-1a over the name, mixed with
/// the arity. This is the type-index bucket key; the space caches it per
/// stored entry so matching and index maintenance never re-hash the name.
inline std::uint64_t type_key(std::string_view name, std::size_t arity) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h ^ (arity * 0x9E3779B97F4A7C15ull);
}

struct Tuple {
  std::string name;           ///< entry type name ("fft-request", ...)
  std::vector<Value> fields;

  Tuple() = default;
  Tuple(std::string name, std::vector<Value> fields)
      : name(std::move(name)), fields(std::move(fields)) {}

  std::size_t arity() const { return fields.size(); }
  bool operator==(const Tuple&) const = default;
  std::string to_string() const;

  /// Wire-footprint estimate: name + fields.
  std::size_t byte_size() const {
    std::size_t total = name.size();
    for (const Value& v : fields) total += v.byte_size();
    return total;
  }
};

/// One slot of a template.
class FieldPattern {
 public:
  /// Matches only this exact value ("actual" in Linda terms).
  static FieldPattern exact(Value value);

  /// Matches any value of the given type ("formal").
  static FieldPattern typed(ValueType type);

  /// Matches anything.
  static FieldPattern any();

  /// Convenience: a bare Value converts to an exact pattern, so templates
  /// can be written as {1, "on", FieldPattern::any()}.
  FieldPattern(Value value) : FieldPattern(exact(std::move(value))) {}  // NOLINT

  bool matches(const Value& value) const;

  bool is_exact() const { return kind_ == Kind::kExact; }
  bool is_typed() const { return kind_ == Kind::kTyped; }
  bool is_any() const { return kind_ == Kind::kAny; }
  const Value& exact_value() const { return value_; }
  ValueType typed_type() const { return type_; }

  bool operator==(const FieldPattern&) const = default;
  std::string to_string() const;

 private:
  enum class Kind : std::uint8_t { kExact, kTyped, kAny };
  FieldPattern() = default;

  Value value_;                       // valid when kExact
  Kind kind_ = Kind::kAny;
  ValueType type_ = ValueType::kInt;  // valid when kTyped
};
// The Value first, so the two 1 B tags share the word after it; a tag
// before the Value would pad to its own word (32 B).
static_assert(sizeof(FieldPattern) == 24, "FieldPattern outgrew Value + tags");

/// Builds a tuple from loose values without an initializer list:
///   make_tuple("sensor", 42, "on", 1.5)
/// Prefer this inside coroutines — GCC 12 miscompiles initializer lists
/// whose backing array lives across a suspension point.
template <typename... Vs>
Tuple make_tuple(std::string name, Vs&&... values) {
  std::vector<Value> fields;
  fields.reserve(sizeof...(Vs));
  (fields.emplace_back(std::forward<Vs>(values)), ...);
  return Tuple(std::move(name), std::move(fields));
}

struct Template {
  std::optional<std::string> name;  ///< nullopt matches any tuple name
  std::vector<FieldPattern> fields;

  Template() = default;
  Template(std::optional<std::string> name, std::vector<FieldPattern> fields)
      : name(std::move(name)), fields(std::move(fields)) {}

  /// Template that matches any tuple with the given name and arity-free...
  /// — matching still requires equal arity, so `fields` must be sized.
  static Template of_name(std::string name, std::vector<FieldPattern> fields) {
    return Template(std::move(name), std::move(fields));
  }

  /// The exact-value template of `tuple`: its name and every field as an
  /// actual. This is the take discipline of the federation's OpLog and
  /// replication stream (DESIGN.md §16): a take is re-applied as "take the
  /// oldest entry equal to the result". The oldest equal-valued entry is
  /// necessarily the one the original match removed — any older equal-valued
  /// tuple would also have matched the original template.
  static Template exact_of(const Tuple& tuple);

  /// Matches iff the name agrees (when constrained), arity is equal, and
  /// every field pattern accepts the corresponding value.
  bool matches(const Tuple& tuple) const;

  std::size_t arity() const { return fields.size(); }
  bool operator==(const Template&) const = default;
  std::string to_string() const;
};

}  // namespace tb::space
