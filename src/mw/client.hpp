// The C++ space client — the board-side API of the paper's architecture
// (Figure 4/5): JavaSpaces-style operations, each a coroutine that sends a
// request through the transport and suspends until the correlated response
// arrives.
//
//   mw::SpaceClient client(sim, transport, codec);
//   auto w = co_await client.write(tuple, Time::sec(160));
//   auto t = co_await client.take(tmpl, Time::sec(20));
//
// Completion resumes through a zero-delay simulator event, so client
// coroutines may immediately issue further operations regardless of which
// transport delivered the response. An optional rpc_timeout bounds every
// call (nullopt result) as a safety net on lossy transports.
//
// Pipelining (DESIGN.md §10): the `*_async` variants return an RpcFuture
// immediately, so one client coroutine can keep several requests in flight
// on the same connection and await them in any order — the session-based
// server answers by request id as operations complete, not in arrival
// order. Every operation is one request and one reply on the wire, sent by
// call_async(); the coroutine operations await the same futures, so each
// request takes that one path.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mw/codec.hpp"
#include "src/mw/transport.hpp"
#include "src/sim/process.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/util/assert.hpp"
#include "src/util/status.hpp"

namespace tb::obs {
class Histogram;
class Registry;
}

namespace tb::mw {

// A wire duration or expiry is a sim::Time's count_ns(): forever
// (kLeaseForever) travels as INT64_MAX, and NodeCore reads INT64_MAX back as
// forever (NodeCore::duration_of).
static_assert(space::kLeaseForever.count_ns() == INT64_MAX);

struct ClientConfig {
  /// Upper bound on any single request/response attempt;
  /// space::kLeaseForever disables the bound (and retransmission).
  sim::Time rpc_timeout = space::kLeaseForever;

  /// Retransmissions after an rpc_timeout expiry. The request is resent
  /// byte-identical (same request id), so the server's duplicate cache
  /// keeps every operation exactly-once even on lossy transports.
  int rpc_retries = 0;

  /// Multiplier applied to the timeout before each retransmission
  /// (1.0 = fixed cadence). Fixed-cadence retries phase-lock with any
  /// periodic transport outage whose period divides rpc_timeout — every
  /// attempt then lands in the same fault window and the call fails with
  /// retries to spare. A backoff > 1 walks successive attempts out of
  /// phase (chaos soaks run with 1.5).
  double rpc_backoff = 1.0;
};

/// Single-consumer awaitable result of an async SpaceClient operation.
/// Returned resolved-or-pending; co_await it from a sim::Task coroutine
/// (awaiting an already-resolved future completes without suspending), or
/// poll done()/get() from plain code. Copies share the same result state.
template <typename T>
class RpcFuture {
 public:
  RpcFuture() : state_(std::make_shared<State>()) {}

  bool done() const { return state_->done; }
  /// The resolved result; valid only when done().
  const T& get() const {
    TB_ASSERT(state_->done);
    return *state_->value;
  }

  bool await_ready() const { return state_->done; }
  void await_suspend(std::coroutine_handle<> handle) {
    state_->waiter = handle;
  }
  T await_resume() { return std::move(*state_->value); }

 private:
  friend class SpaceClient;

  struct State {
    std::optional<T> value;
    std::coroutine_handle<> waiter;
    bool done = false;
  };

  /// Stores the result and resumes the awaiting coroutine, if any. Called
  /// from completion lambdas already running on a zero-delay event, so
  /// resuming inline keeps the decoupling-from-transport guarantee.
  void resolve(T value) const {
    State& state = *state_;
    TB_ASSERT(!state.done);
    state.value = std::move(value);
    state.done = true;
    if (state.waiter) {
      const std::coroutine_handle<> waiter = state.waiter;
      state.waiter = {};
      sim::resume_nested(waiter);
    }
  }

  std::shared_ptr<State> state_;
};

class SpaceClient {
 public:
  using EventCallback = std::function<void(const space::Tuple&)>;

  SpaceClient(sim::Simulator& sim, ClientTransport& transport,
              const Codec& codec, ClientConfig config = {});

  SpaceClient(const SpaceClient&) = delete;
  SpaceClient& operator=(const SpaceClient&) = delete;

  struct WriteResult {
    bool ok = false;       ///< status.ok(); kept for existing call sites
    space::Lease lease;    ///< id 0 when the entry expired in transit
    util::Status status;   ///< typed outcome (DESIGN.md §12)
  };

  /// Typed match outcome: distinguishes a clean miss (OK status, no
  /// tuple) from the caller's deadline passing while parked
  /// (DEADLINE_EXCEEDED), a load-shedding server (RESOURCE_EXHAUSTED,
  /// retryable) and transport failure (UNAVAILABLE).
  struct MatchResult {
    util::Status status;
    std::optional<space::Tuple> tuple;
    bool ok() const { return status.ok() && tuple.has_value(); }
  };

  /// Writes a tuple with the given lease duration (kLeaseForever allowed).
  /// Under a transaction the write stays provisional until commit.
  sim::Task<WriteResult> write(space::Tuple tuple, sim::Time lease_duration,
                               std::uint64_t txn = space::kNoTxn);

  // --- pipelined API ---------------------------------------------------------
  // Fire-and-await-later: the request goes out now, the returned future
  // resolves when its response arrives. Several futures may be in flight on
  // the one connection simultaneously.

  RpcFuture<WriteResult> write_async(space::Tuple tuple,
                                     sim::Time lease_duration,
                                     std::uint64_t txn = space::kNoTxn);

  /// Async blocking take/read with server-side timeout, the same
  /// transactional semantics as take()/read(): the future resolves to a
  /// MatchResult carrying the canonical outcome alongside any tuple.
  RpcFuture<MatchResult> take_match_async(space::Template tmpl,
                                          sim::Time timeout,
                                          std::uint64_t txn = space::kNoTxn);
  RpcFuture<MatchResult> read_match_async(space::Template tmpl,
                                          sim::Time timeout,
                                          std::uint64_t txn = space::kNoTxn);

  /// Blocking take/read with server-side timeout; nullopt = no match (or
  /// rpc timeout). Under a transaction the server answers if-exists
  /// (no parking) and a take holds the entry until the txn resolves.
  sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                              sim::Time timeout,
                                              std::uint64_t txn = space::kNoTxn);
  sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                              sim::Time timeout,
                                              std::uint64_t txn = space::kNoTxn);

  /// Opens a server-side transaction that auto-aborts after `timeout`.
  /// Returns its id, or nullopt on transport failure.
  sim::Task<std::optional<std::uint64_t>> begin_transaction(
      sim::Time timeout = space::kLeaseForever);

  /// Resolves a transaction. False when it no longer exists (timed out,
  /// already resolved) or the call failed.
  sim::Task<bool> commit(std::uint64_t txn);
  sim::Task<bool> abort(std::uint64_t txn);

  /// Registers an event callback; returns the registration id (for cancel),
  /// nullopt on failure.
  sim::Task<std::optional<std::uint64_t>> notify(space::Template tmpl,
                                                 sim::Time lease_duration,
                                                 EventCallback callback);

  /// Renews a tuple lease; returns the new lease or nullopt when gone.
  sim::Task<std::optional<space::Lease>> renew(std::uint64_t lease_id,
                                               sim::Time extension);

  /// Cancels a tuple lease or notify registration.
  sim::Task<bool> cancel(std::uint64_t handle);

  // --- raw frame rpc ---------------------------------------------------------
  // Every operation above is one of these calls. The router and the
  // replication stream also speak frames the typed API does not cover
  // (kPeekRequest, kTakeByIdRequest, kReplicate*; DESIGN.md §16). Both entry
  // points stamp request id + timestamp and run the full rpc machinery
  // (timeout, retransmission, duplicate-safe ids); nullopt = rpc failure.

  /// Callback form — usable outside a coroutine (the NodeCore replication
  /// stream completes acks from plain event context). `on_done` runs on a
  /// zero-delay event with the response, or from the timeout event with
  /// nullopt.
  void call_async(Message request,
                  std::function<void(std::optional<Message>)> on_done);

  /// Future form — every coroutine awaits this; several frames can be in
  /// flight on the one connection at once.
  RpcFuture<std::optional<Message>> rpc_async(Message request);

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t completed = 0;
    std::uint64_t rpc_timeouts = 0;   ///< attempts that expired
    std::uint64_t rpc_failures = 0;   ///< calls whose retry budget ran out
    std::uint64_t retransmissions = 0;
    std::uint64_t retryable_rejects = 0;  ///< typed rejects left to retry
    std::uint64_t events = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t stray_responses = 0;  ///< no pending call (late arrival)
    std::uint64_t messages_encoded = 0;
    std::uint64_t bytes_encoded = 0;   ///< codec output, pre-framing
    std::uint64_t messages_decoded = 0;
    std::uint64_t bytes_decoded = 0;   ///< codec input, post-framing
  };
  const Stats& stats() const { return stats_; }

  /// Observability hook (DESIGN.md §7): mirrors Stats into `<p>.rpc.*`
  /// counters at snapshot time and push-records the request→response
  /// latency of every completed call into the `<p>.rpc_ns` histogram
  /// (retransmitted calls count from the first send). The registry must
  /// outlive the client. Default prefix: "mw.client".
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "mw.client");

 private:
  struct Pending {
    std::function<void(std::optional<Message>)> complete;
    sim::EventHandle timeout_event;
    std::vector<std::uint8_t> encoded;  ///< for retransmission
    int retries_left = 0;
    sim::Time next_timeout;  ///< grows by rpc_backoff per retransmission
    sim::Time started;       ///< first send, for the rpc latency histogram
  };

  void arm_timeout(std::uint64_t request_id);

  void handle_bytes(std::span<const std::uint8_t> bytes);

  static WriteResult write_result_of(const std::optional<Message>& response);
  static MatchResult match_result_of(std::optional<Message> response);
  /// Canonical status of a response: OK for the expected type with a clean
  /// outcome, the wire status when the server sent one, UNAVAILABLE when
  /// the rpc itself failed (timeout budget exhausted).
  static util::Status status_of(const std::optional<Message>& response,
                                MsgType expected);

  /// Sends every match request: `type` is kTakeRequest or kReadRequest.
  RpcFuture<MatchResult> match_async(MsgType type, space::Template tmpl,
                                     sim::Time timeout, std::uint64_t txn);

  sim::Simulator* sim_;
  ClientTransport* transport_;
  const Codec* codec_;
  ClientConfig config_;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint64_t, EventCallback> event_callbacks_;
  Stats stats_;
  obs::Histogram* rpc_latency_ns_ = nullptr;  ///< set by bind_metrics
};

}  // namespace tb::mw
