#include "src/space/tuple.hpp"

#include <sstream>

namespace tb::space {

std::string Tuple::to_string() const {
  std::ostringstream os;
  os << name << '(';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields[i].to_string();
  }
  os << ')';
  return os.str();
}

FieldPattern FieldPattern::exact(Value value) {
  FieldPattern p;
  p.kind_ = Kind::kExact;
  p.value_ = std::move(value);
  return p;
}

FieldPattern FieldPattern::typed(ValueType type) {
  FieldPattern p;
  p.kind_ = Kind::kTyped;
  p.type_ = type;
  return p;
}

FieldPattern FieldPattern::any() { return FieldPattern(); }

bool FieldPattern::matches(const Value& value) const {
  switch (kind_) {
    case Kind::kExact: return value == value_;
    case Kind::kTyped: return value.type() == type_;
    case Kind::kAny: return true;
  }
  return false;
}

std::string FieldPattern::to_string() const {
  switch (kind_) {
    case Kind::kExact: return value_.to_string();
    case Kind::kTyped: return std::string("?") + space::to_string(type_);
    case Kind::kAny: return "*";
  }
  return "?";
}

Template Template::exact_of(const Tuple& tuple) {
  Template tmpl;
  tmpl.name = tuple.name;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& value : tuple.fields) {
    tmpl.fields.push_back(FieldPattern::exact(value));
  }
  return tmpl;
}

bool Template::matches(const Tuple& tuple) const {
  if (name.has_value() && *name != tuple.name) return false;
  if (fields.size() != tuple.fields.size()) return false;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (!fields[i].matches(tuple.fields[i])) return false;
  }
  return true;
}

std::string Template::to_string() const {
  std::ostringstream os;
  os << (name ? *name : std::string("*")) << '(';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields[i].to_string();
  }
  os << ')';
  return os.str();
}

}  // namespace tb::space
