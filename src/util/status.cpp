#include "src/util/status.hpp"

namespace tb::util {

std::string_view status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kAborted:
      return "aborted";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnimplemented:
      return "unimplemented";
  }
  return "unknown";
}

}  // namespace tb::util
