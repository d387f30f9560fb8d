#include "src/mw/message.hpp"

#include <sstream>

#include "src/util/status.hpp"

namespace tb::mw {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kWriteRequest: return "write-req";
    case MsgType::kWriteResponse: return "write-resp";
    case MsgType::kReadRequest: return "read-req";
    case MsgType::kTakeRequest: return "take-req";
    case MsgType::kMatchResponse: return "match-resp";
    case MsgType::kNotifyRequest: return "notify-req";
    case MsgType::kNotifyResponse: return "notify-resp";
    case MsgType::kEvent: return "event";
    case MsgType::kRenewRequest: return "renew-req";
    case MsgType::kRenewResponse: return "renew-resp";
    case MsgType::kCancelRequest: return "cancel-req";
    case MsgType::kCancelResponse: return "cancel-resp";
    case MsgType::kTxnBeginRequest: return "txn-begin-req";
    case MsgType::kTxnBeginResponse: return "txn-begin-resp";
    case MsgType::kTxnCommitRequest: return "txn-commit-req";
    case MsgType::kTxnAbortRequest: return "txn-abort-req";
    case MsgType::kTxnResolveResponse: return "txn-resolve-resp";
    case MsgType::kError: return "error";
    case MsgType::kPeekRequest: return "peek-req";
    case MsgType::kPeekResponse: return "peek-resp";
    case MsgType::kTakeByIdRequest: return "take-by-id-req";
    case MsgType::kReplicateWriteRequest: return "repl-write-req";
    case MsgType::kReplicateTakeRequest: return "repl-take-req";
    case MsgType::kReplicateResponse: return "repl-resp";
    case MsgType::kUnknownFrame: return "unknown-frame";
  }
  return "?";
}

std::string Message::to_string() const {
  std::ostringstream os;
  os << mw::to_string(type) << "#" << request_id;
  if (tuple) os << ' ' << tuple->to_string();
  if (tmpl) os << ' ' << tmpl->to_string();
  if (status != 0) {
    os << " status="
       << util::status_code_name(static_cast<util::StatusCode>(status));
  }
  if (epoch != 0) os << " epoch=" << epoch;
  if (!error.empty()) os << " error=" << error;
  return os.str();
}

}  // namespace tb::mw
