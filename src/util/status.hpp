// Canonical error model for the control plane (DESIGN.md §12).
//
// Every fallible control-plane operation — SpaceClient RPCs, the session
// dispatcher's admission decisions, svc failover policy — reports a
// util::Status instead of an ad-hoc bool/optional, so "the server shed
// load" (RESOURCE_EXHAUSTED, retryable) is distinguishable from "your
// template matched nothing" (OK + empty) and "the deadline passed"
// (DEADLINE_EXCEEDED). The idiom follows the classic util::Status design
// (SNIPPETS.md snippet 1/2): a small value type carrying a canonical code
// plus a human-readable message, with StatusOr<T> for value-or-error.
//
// StatusCode values travel on the wire (one byte in both codecs), so the
// numeric assignments below are frozen: append new codes, never renumber.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/assert.hpp"

namespace tb::util {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kDeadlineExceeded = 3,
  kResourceExhausted = 4,
  kAborted = 5,
  kUnavailable = 6,
  /// The request was well-formed but the receiver's state rejects it — the
  /// federation mis-route signal: "this node does not own that type_key
  /// (any more)". Not retryable verbatim: the caller must refresh its
  /// routing table (the rejecting server stamps its epoch on the reply)
  /// and re-route, not retransmit.
  kFailedPrecondition = 7,
  /// The receiver does not implement the requested frame kind — the
  /// mixed-version degrade signal during rollout. Terminal for this
  /// request; the caller should fall back to an older protocol feature.
  kUnimplemented = 8,
};

/// Stable lowercase name for a code ("ok", "resource_exhausted", ...).
std::string_view status_code_name(StatusCode code);

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for codes a client may retry verbatim with backoff: the failure
  /// was a transient server/transport condition, not a property of the
  /// request itself. RESOURCE_EXHAUSTED (load shed) and UNAVAILABLE
  /// (node down / failing over) qualify; DEADLINE_EXCEEDED does not —
  /// the caller's deadline is gone regardless of who timed out.
  bool retryable() const {
    return code_ == StatusCode::kResourceExhausted ||
           code_ == StatusCode::kUnavailable;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status DeadlineExceeded(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status Aborted(std::string msg) {
  return Status(StatusCode::kAborted, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}

/// Value-or-error. Holds T when status().ok(), nothing otherwise.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    TB_REQUIRE(!status_.ok());  // OK demands a value: use StatusOr(T).
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TB_REQUIRE(ok());
    return *value_;
  }
  T& value() & {
    TB_REQUIRE(ok());
    return *value_;
  }
  T&& value() && {
    TB_REQUIRE(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tb::util
