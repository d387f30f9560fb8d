#include "src/space/value.hpp"

#include <sstream>
#include <variant>

#include "src/util/hex.hpp"

namespace tb::space {

const char* to_string(ValueType type) {
  switch (type) {
    case ValueType::kInt: return "int";
    case ValueType::kFloat: return "float";
    case ValueType::kBool: return "bool";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
  }
  return "?";
}

void Value::throw_bad_access() { throw std::bad_variant_access(); }

std::string Value::to_string() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kInt:
      os << as_int();
      break;
    case ValueType::kFloat:
      os << as_float();
      break;
    case ValueType::kBool:
      os << (as_bool() ? "true" : "false");
      break;
    case ValueType::kString:
      os << '"' << as_string() << '"';
      break;
    case ValueType::kBytes:
      os << "0x" << util::to_hex(as_bytes());
      break;
  }
  return os.str();
}

}  // namespace tb::space
