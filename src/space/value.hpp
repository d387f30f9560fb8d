// Typed field values for tuples (the paper's "ordered set of typed values").
//
// Five types cover the JavaSpaces-entry shapes the factory-automation
// scenarios need: integers (sensor readings, node ids), floats (FFT data),
// booleans (states), strings (service names, schemas) and raw bytes
// (payload blobs).
//
// Layout: a Value is an 8 B payload union plus a 1 B type tag, 16 B in all.
// Ints, floats and bools live inline. A string or a byte vector is boxed:
// the payload is an owning pointer to a heap std::string or
// std::vector<uint8_t>. A std::variant over the five types is 40 B, because
// every slot reserves room for a std::string, so the int and float fields
// that make up most tuples would carry 24 B of padding each — in every
// stored entry, OpLog record, request cell and template. Boxing costs a
// string or bytes field one more heap block instead (48 B for a string,
// 32 B for a byte vector), and keeps as_string()/as_bytes() returning
// references to real standard containers.
//
// Ownership: copying deep-copies the box; a copy-assign between two strings
// (or two byte vectors) assigns into the existing box, so a recycled
// destination keeps its capacity. A move steals the box and leaves the
// source as int 0.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tb::space {

enum class ValueType : std::uint8_t {
  kInt = 0,
  kFloat,
  kBool,
  kString,
  kBytes,
};

const char* to_string(ValueType type);

class Value {
 public:
  Value() : Value(std::int64_t{0}) {}
  Value(std::int64_t v) : type_(ValueType::kInt) { payload_.i = v; }  // NOLINT
  Value(int v) : Value(static_cast<std::int64_t>(v)) {}              // NOLINT
  Value(double v) : type_(ValueType::kFloat) { payload_.f = v; }     // NOLINT
  Value(bool v) : type_(ValueType::kBool) { payload_.b = v; }        // NOLINT
  Value(const char* v) : Value(std::string(v)) {}                    // NOLINT
  Value(std::string v) : type_(ValueType::kString) {  // NOLINT
    payload_.str = new std::string(std::move(v));
  }
  Value(std::vector<std::uint8_t> v) : type_(ValueType::kBytes) {  // NOLINT
    payload_.bytes = new std::vector<std::uint8_t>(std::move(v));
  }

  Value(const Value& other) : payload_(other.payload_), type_(other.type_) {
    if (type_ == ValueType::kString) {
      payload_.str = new std::string(*other.payload_.str);
    } else if (type_ == ValueType::kBytes) {
      payload_.bytes = new std::vector<std::uint8_t>(*other.payload_.bytes);
    }
  }
  Value(Value&& other) noexcept : payload_(other.payload_), type_(other.type_) {
    other.reset();
  }
  Value& operator=(const Value& other) {
    if (this == &other) return *this;
    if (type_ == other.type_ && type_ == ValueType::kString) {
      *payload_.str = *other.payload_.str;  // keeps the box's capacity
    } else if (type_ == other.type_ && type_ == ValueType::kBytes) {
      *payload_.bytes = *other.payload_.bytes;
    } else {
      *this = Value(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    release();
    payload_ = other.payload_;
    type_ = other.type_;
    other.reset();
    return *this;
  }
  ~Value() { release(); }

  ValueType type() const { return type_; }

  /// The as_*() accessors throw std::bad_variant_access on a type mismatch.
  std::int64_t as_int() const { return check(ValueType::kInt).i; }
  double as_float() const { return check(ValueType::kFloat).f; }
  bool as_bool() const { return check(ValueType::kBool).b; }
  const std::string& as_string() const {
    return *check(ValueType::kString).str;
  }
  const std::vector<std::uint8_t>& as_bytes() const {
    return *check(ValueType::kBytes).bytes;
  }

  bool is(ValueType t) const { return type() == t; }

  /// Same type, then same value; floats compare with == (-0.0 == 0.0,
  /// NaN != NaN).
  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case ValueType::kInt: return payload_.i == other.payload_.i;
      case ValueType::kFloat: return payload_.f == other.payload_.f;
      case ValueType::kBool: return payload_.b == other.payload_.b;
      case ValueType::kString: return *payload_.str == *other.payload_.str;
      case ValueType::kBytes: return *payload_.bytes == *other.payload_.bytes;
    }
    return false;
  }

  /// Human-readable rendering (bytes shown as hex, strings quoted).
  std::string to_string() const;

  /// Approximate in-memory / wire footprint in bytes. Inline: the codecs
  /// call this per encode for their reserve hints, and the space caches it
  /// per stored entry.
  std::size_t byte_size() const {
    switch (type()) {
      case ValueType::kInt:
      case ValueType::kFloat:
        return 8;
      case ValueType::kBool:
        return 1;
      case ValueType::kString:
        return as_string().size();
      case ValueType::kBytes:
        return as_bytes().size();
    }
    return 0;
  }

 private:
  union Payload {
    std::int64_t i;
    double f;
    bool b;
    std::string* str;                  ///< owned, kString
    std::vector<std::uint8_t>* bytes;  ///< owned, kBytes
  };

  [[noreturn]] static void throw_bad_access();

  const Payload& check(ValueType t) const {
    if (type_ != t) [[unlikely]] throw_bad_access();
    return payload_;
  }

  /// Leaves this value as int 0 without freeing anything.
  void reset() {
    payload_.i = 0;
    type_ = ValueType::kInt;
  }

  void release() {
    if (type_ == ValueType::kString) {
      delete payload_.str;
    } else if (type_ == ValueType::kBytes) {
      delete payload_.bytes;
    }
  }

  Payload payload_;
  ValueType type_;
};
// Payload word + tag: every int, float and bool field of a stored tuple is
// 16 B, not the 40 B a variant reserving std::string room would take.
static_assert(sizeof(Value) == 16, "Value outgrew payload word + tag");

}  // namespace tb::space
