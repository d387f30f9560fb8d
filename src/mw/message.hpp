// Space-protocol messages exchanged between SpaceClient and NodeCore.
//
// Mirrors the paper's client/server architecture (Figures 3-5): the C++
// client on the board talks to the space server through a message protocol
// ("XML is used to represent data entries"); JavaSpaces-style operations
// each map to a request/response pair, and notify events are pushed
// server -> client.
//
// `created_at_ns` is the sender-side timestamp. A written entry's lease
// counts from this instant rather than from server arrival — the entry's
// lifetime is a property of the tuple, not of the transport. This is what
// makes Table 4's "Out of Time" observable: when bus congestion stretches
// the write+take round trip past the 160 s lease, the entry is already
// expired by the time the take reaches the server.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/space/tuple.hpp"

namespace tb::mw {

enum class MsgType : std::uint8_t {
  kWriteRequest = 0,
  kWriteResponse,
  kReadRequest,
  kTakeRequest,
  kMatchResponse,   ///< answers both read and take
  kNotifyRequest,
  kNotifyResponse,
  kEvent,           ///< server push for a notify registration
  kRenewRequest,
  kRenewResponse,
  kCancelRequest,
  kCancelResponse,
  kTxnBeginRequest,
  kTxnBeginResponse,   ///< handle = transaction id
  kTxnCommitRequest,
  kTxnAbortRequest,
  kTxnResolveResponse, ///< answers commit and abort
  kError,
  // Appended after kError so every pre-batch message keeps its wire value
  // (the binary codec writes the enum value as a raw byte).
  kWriteBatchRequest,  ///< N coalesced writes in one framed message
  kWriteBatchResponse, ///< per-write leases, same order as the request
  // Federation frames (DESIGN.md §16), appended for the same reason.
  kPeekRequest,        ///< oldest live match, non-destructive; wildcard scatter
  kPeekResponse,       ///< ok + tuple + handle = global ticket of the entry
  kTakeByIdRequest,    ///< directed removal; handle = global ticket
  kReplicateWriteRequest, ///< primary→standby: tuple + handle = write ticket
  kReplicateTakeRequest,  ///< primary→standby: exact tmpl + handle = ticket
  kReplicateResponse,     ///< standby ack; ok
  /// Decode-side sentinel for a frame kind this build does not know. Never
  /// encoded: codecs map any higher wire value to it (preserving the
  /// request id) so the server can answer a typed kUnimplemented reply
  /// instead of dropping the session — the mixed-version degrade path.
  kUnknownFrame,
};

const char* to_string(MsgType type);

struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;   ///< request/response correlation
  std::int64_t created_at_ns = 0; ///< sender-side timestamp

  std::optional<space::Tuple> tuple;     ///< write payload / match result / event
  std::optional<space::Template> tmpl;   ///< read/take/notify pattern
  std::int64_t duration_ns = 0;          ///< lease or timeout; INT64_MAX = forever
  std::uint64_t handle = 0;              ///< lease id / notify registration id
  std::int64_t expires_at_ns = 0;        ///< lease expiry (write/renew responses)
  bool ok = false;                       ///< generic success flag
  std::uint64_t txn = 0;                 ///< transaction scope (0 = none)
  std::string error;                     ///< kError / status details

  /// Canonical status code (util::StatusCode as a raw byte; 0 = OK).
  /// Carried on responses so clients can tell a retryable condition
  /// (RESOURCE_EXHAUSTED load shed, UNAVAILABLE) from a terminal one.
  /// Both codecs omit the field when OK, keeping pre-status encodings
  /// byte-identical.
  std::uint8_t status = 0;

  /// Routing-table epoch (DESIGN.md §16). Servers stamp their current
  /// epoch on kFailedPrecondition mis-route rejects so the client knows
  /// how stale its table is; 0 = absent. Both codecs omit the field when
  /// 0, keeping pre-federation encodings byte-identical.
  std::uint64_t epoch = 0;

  // Batch-write payload (kWriteBatchRequest/-Response). Requests carry
  // batch_tuples + batch_durations (parallel arrays); responses carry
  // batch_handles + batch_expires, one lease per written tuple, in request
  // order. Empty on every other message type — the codecs emit nothing for
  // empty vectors, which keeps pre-batch encodings byte-identical.
  std::vector<space::Tuple> batch_tuples;
  std::vector<std::int64_t> batch_durations;
  std::vector<std::uint64_t> batch_handles;
  std::vector<std::int64_t> batch_expires;

  bool operator==(const Message&) const = default;
  std::string to_string() const;
};

}  // namespace tb::mw
