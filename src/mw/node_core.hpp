// The reusable space-server node core (DESIGN.md §10, §16).
//
// Historically this class was the single space server: the session-based
// dispatcher that exposes a SpaceEngine over a ServerTransport (the paper's
// "SpaceServer" Java class, Figures 3-5). The federation refactor extracted
// it so that N nodes can be instantiated cheaply on one sim kernel, each
// jointly owning a consistent-hash slice of the type_key space:
//
//  * node identity + ownership filter — a node configured with an ownership
//    predicate rejects mis-routed named operations with a typed
//    kFailedPrecondition reply stamped with the node's routing epoch, which
//    the fed::FederatedClient uses to refresh its table and re-route;
//  * global tickets + op records — when a cluster-shared ticket counter is
//    installed, every mutating operation (write apply, take completion)
//    draws a globally ordered ticket and hands a space::OpRecord to the
//    cluster's record sink in the same event, so the union of all nodes'
//    records is checked by the deterministic oracle (space/oplog.hpp)
//    exactly like a single-node run, while the federation runs;
//  * scatter/merge hooks — kPeekRequest answers the node's oldest live
//    match with its global ticket (the per-node minimum of the federated
//    wildcard merge) and kTakeByIdRequest removes the merge winner;
//  * primary→standby replication — with a standby client installed, acked
//    writes and takes are forwarded as kReplicate* frames and the client's
//    ack is withheld until the standby confirms, so promotion loses no
//    acknowledged write. The standby applies each frame to its own engine
//    on arrival, in its sender's (ticket) order, so it holds the primary's
//    live state and promotion only re-routes.
//
// All of this is inert by default: a NodeCore with no ownership predicate,
// no ticket counter and no standby behaves bit-exactly like the historical
// single SpaceServer — same event schedule, same stats, same wire bytes.
//
// Dispatch: each connection is a Session that keeps several requests in
// flight, answered by request id. Every request passes one server-wide
// admission queue (ServerConfig::max_service_slots / admission_queue_limit)
// into the service stage; see message.hpp for why leases count from the
// request's send timestamp.
//
// Replies (DESIGN.md §10): reply_to() starts every answer and failure()
// builds every typed rejection. respond() stamps, encodes, caches and sends
// a request's reply; send_uncached() sends the three replies that must not
// enter the duplicate cache: the id-0 reject, the overload shed and notify
// events. Every completed take, whether a match or a directed take, commits
// through answer_take(): ticket, kTakeExact record and, with a standby, the
// replication frame whose ack releases the reply.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mw/client.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/transport.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/space/oplog.hpp"
#include "src/util/status.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::mw {

struct ServerConfig {
  /// Server-wide service-stage bound: at most this many requests (across
  /// all sessions) may occupy the service stage at once. 0 = unbounded
  /// (no extra events are scheduled). Excess requests wait in one global
  /// FIFO.
  int max_service_slots = 0;

  /// Bound on the global admission FIFO (only meaningful with
  /// max_service_slots > 0). When the queue is full the server sheds
  /// load: the request is answered immediately with a typed
  /// RESOURCE_EXHAUSTED kError — uncached, so a client retry re-enters
  /// admission. 0 = unbounded queue (never sheds).
  int admission_queue_limit = 0;

  /// Federation identity (DESIGN.md §16). Purely informational until an
  /// ownership predicate is installed via set_ownership().
  std::uint32_t node_id = 0;
};

class NodeCore {
 public:
  NodeCore(space::SpaceEngine& space, ServerTransport& transport,
           const Codec& codec, ServerConfig config = {});

  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t events_pushed = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t dead_on_arrival = 0;  ///< writes whose lease had expired in transit
    std::uint64_t duplicates_replayed = 0;  ///< cached response resent
    std::uint64_t duplicates_ignored = 0;   ///< original still in flight
    std::uint64_t rejected_requests = 0;    ///< request_id 0: uncorrelatable
    /// Always 0: no per-session bound is left to wait for. Kept because
    /// the benchmark reports still read it.
    std::uint64_t pipeline_queued = 0;
    std::uint64_t admission_queued = 0;     ///< waited for a global slot
    std::uint64_t overload_rejects = 0;     ///< shed with RESOURCE_EXHAUSTED
    std::uint64_t notify_batch_flushes = 0; ///< batched event deliveries
    std::uint64_t messages_encoded = 0;
    std::uint64_t bytes_encoded = 0;   ///< codec output, pre-framing
    std::uint64_t messages_decoded = 0;
    std::uint64_t bytes_decoded = 0;   ///< codec input, post-framing
    // --- federation (DESIGN.md §16) --------------------------------------
    std::uint64_t named_ops = 0;        ///< writes + name-keyed matches served
    std::uint64_t wildcard_ops = 0;     ///< unnamed-template matches served
    std::uint64_t peeks = 0;            ///< kPeekRequest served
    std::uint64_t takes_by_id = 0;      ///< kTakeByIdRequest served
    std::uint64_t misroute_rejects = 0; ///< kFailedPrecondition replies
    std::uint64_t unknown_frames = 0;   ///< kUnimplemented replies
    std::uint64_t replication_forwards = 0;  ///< records sent to the standby
    std::uint64_t replicated_buffered = 0;   ///< frames accepted as standby
    std::uint64_t dropped_while_dead = 0;    ///< frames ignored after shutdown
  };
  const Stats& stats() const { return stats_; }

  space::SpaceEngine& space() { return *space_; }

  /// Peak service-stage occupancy of any one session (pipelining
  /// diagnostics).
  std::size_t peak_in_service() const { return peak_in_service_; }

  /// Observability hook (DESIGN.md §7): mirrors Stats into `<p>.*` counters
  /// at snapshot time, plus the federation evidence footprint as gauges:
  /// `<p>.oplog_records` (records handed to the sink),
  /// `<p>.ticket_mappings` (live entries mapped to a ticket) and
  /// `<p>.standby_buffered` (replication frames held behind a request-id
  /// gap). The registry must outlive the server.
  /// Default prefix: "mw.server".
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "mw.server");

  // --- federation surface (DESIGN.md §16) -----------------------------------

  std::uint32_t node_id() const { return config_.node_id; }

  /// Installs (or replaces) the ownership filter: named data operations
  /// whose type_key fails `owns` are rejected with kFailedPrecondition
  /// stamped with `epoch`. A null predicate disables enforcement (the
  /// single-server default). Wildcard matches, peeks, directed takes and
  /// replication frames are never filtered.
  void set_ownership(std::function<bool(std::uint64_t)> owns,
                     std::uint64_t epoch);
  std::uint64_t epoch() const { return epoch_; }

  /// Where a ticketed node hands each operation's record.
  using RecordSink = std::function<void(space::OpRecord)>;

  /// Installs the cluster-shared global ticket counter and the record
  /// sink, turning on recording: every write apply and take completion
  /// draws a ticket (++*counter) and hands `sink` its space::OpRecord in
  /// the same event, and the engine-id <-> ticket maps behind
  /// peeks/directed takes are maintained. Must be installed before the
  /// first data operation.
  void set_ticketing(std::shared_ptr<std::uint64_t> counter, RecordSink sink);

  /// Installs the primary→standby replication stream: every acked write
  /// and take is forwarded to `standby` (a SpaceClient connected to the
  /// standby node) and the data-plane ack is withheld until the standby
  /// confirms. Requires a ticket counter (records are keyed by ticket).
  /// nullptr detaches the stream.
  void set_standby(SpaceClient* standby);

  /// Ends the standby role. Every frame that arrived in order is applied
  /// already; this applies the frames still held behind a request-id gap,
  /// which can no longer close, in request-id order. Returns how many it
  /// applied: 0 when the stream arrived whole. Applied frames are NOT
  /// re-logged: the failed primary logged them.
  std::size_t promote();

  /// Replication frames held behind a request-id gap.
  std::size_t standby_buffer_size() const { return repl_held_.size(); }

  /// Kill switch for failover drills: the node stops decoding, serving and
  /// responding — in-flight completions are swallowed, so clients observe
  /// rpc timeouts (UNAVAILABLE), exactly like a crashed host.
  void shutdown() { dead_ = true; }
  bool dead() const { return dead_; }

  /// Live (ticket, tuple) pairs in global-ticket order — this node's slice
  /// of the federated merged-final-state check. Entries with no ticket
  /// mapping (written outside the federated path) are skipped.
  std::vector<std::pair<std::uint64_t, space::Tuple>> ticketed_snapshot()
      const;

 private:
  using SessionId = ServerTransport::SessionId;

  /// Per-connection dispatcher state: the duplicate-suppression response
  /// cache, the set of requests currently anywhere between arrival and
  /// response, and how many of them are in the service stage.
  struct Session {
    /// Duplicate-request suppression: clients on lossy transports
    /// retransmit byte-identical requests (same id); replaying the cached
    /// response keeps non-idempotent operations (write, take) exactly-once.
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> responses;
    std::deque<std::uint64_t> response_order;  ///< FIFO eviction
    std::set<std::uint64_t> in_flight;
    int in_service = 0;  ///< requests inside the service stage

    /// Notify deliveries accumulated this turn; a zero-delay flush event
    /// drains them back-to-back (batched async fan-out, DESIGN.md §12).
    std::vector<Message> pending_events;
    sim::EventHandle flush_event;
  };

  void handle_bytes(SessionId session, std::span<const std::uint8_t> bytes);
  /// Server-wide admission (DESIGN.md §12): free global slot -> service;
  /// full slots -> global FIFO; full FIFO -> typed RESOURCE_EXHAUSTED shed.
  void admit(SessionId session, Message request);
  void reject_overload(SessionId session, const Message& request);
  void start_service(SessionId session, Message request);
  /// Releases a service slot and admits the next queued request, if any.
  void finish_service(SessionId session);
  void drain_admission_queue();
  /// Queues a notify kEvent for the session and arms its flush event.
  void push_event(SessionId session, Message event);
  void flush_events(SessionId session);
  void process(SessionId session, Message request);

  /// An empty (not ok) reply of `type` to request `id`.
  static Message reply_to(std::uint64_t id, MsgType type);
  /// A typed rejection of `request`: a `type` reply, not ok, with `code`
  /// and `text`.
  static Message failure(const Message& request, MsgType type,
                         util::StatusCode code, std::string text = {});
  /// Stamps, encodes and sends a request's reply, caching the bytes for
  /// duplicate replay.
  void respond(SessionId session, Message response);
  /// Stamps, encodes and sends a message the duplicate cache must not pin.
  void send_uncached(SessionId session, Message message);

  void handle_write(SessionId session, Message& request);
  void handle_match(SessionId session, Message& request, bool take);
  void handle_notify(SessionId session, const Message& request);
  void handle_renew(SessionId session, const Message& request);
  void handle_cancel(SessionId session, const Message& request);
  void handle_txn(SessionId session, const Message& request);
  // Federation frames.
  void handle_peek(SessionId session, const Message& request);
  void handle_take_by_id(SessionId session, const Message& request);
  void handle_replicate(SessionId session, Message& request);
  /// Applies one replication frame to the engine: a write is stored and
  /// mapped to its ticket; a take removes the oldest live entry its
  /// template (space::Template::exact_of the removed tuple) matches,
  /// which, frames applying in ticket order, is the one the primary took.
  void apply_replicated(Message& frame);

  /// True when the ownership filter is active and vetoes this request's
  /// type_key (named data ops only).
  bool misrouted(const Message& request) const;

  /// ++*ticket_counter_; requires ticketing().
  std::uint64_t draw_ticket();
  bool ticketing() const { return ticket_counter_ != nullptr; }
  /// Records a write apply to the sink and the id<->ticket maps. The
  /// record takes `tuple` over: a caller that still needs it passes a copy.
  void record_write(std::uint64_t entry_id, space::Tuple tuple,
                    std::uint64_t ticket);
  /// Records a take completion as kTakeExact: the removed tuple only.
  void record_take(const space::Tuple& taken, std::uint64_t ticket);
  /// Maps a stored entry to its ticket (skipped when the write never
  /// reached the store).
  void map_ticket(std::uint64_t entry_id, std::uint64_t ticket);
  /// The engine's removal listener: drops the entry's ticket mapping.
  void forget_entry(std::uint64_t entry_id);
  /// Forwards one record on the replication stream and sends `response`
  /// to `session` once the standby confirms. Callers forward only when a
  /// standby is attached.
  void replicate(Message frame, SessionId session, Message response);
  /// Answers a take that removed `taken` — the one commit path for match
  /// and directed takes: with ticketing it draws the take's ticket and
  /// records kTakeExact; with a standby it forwards the exact-template
  /// frame and withholds the answer until the standby confirms.
  void answer_take(SessionId session, Message response, space::Tuple taken);

  /// The one reader of a wire duration (DESIGN.md §10): INT64_MAX, or any
  /// duration that would end past Time::max(), is kLeaseForever.
  sim::Time duration_of(std::int64_t ns) const;

  space::SpaceEngine* space_;
  ServerTransport* transport_;
  const Codec* codec_;
  ServerConfig config_;

  static constexpr std::size_t kResponseCacheSize = 64;
  std::unordered_map<SessionId, Session> sessions_;
  std::vector<std::uint8_t> encode_buf_;  ///< reused by send_uncached()

  /// Requests waiting for a service slot (max_service_slots), FIFO across
  /// sessions.
  std::deque<std::pair<SessionId, Message>> admission_queue_;
  int total_in_service_ = 0;

  // --- federation state (DESIGN.md §16) --------------------------------------
  std::function<bool(std::uint64_t)> owns_;  ///< null = no enforcement
  std::uint64_t epoch_ = 0;
  std::shared_ptr<std::uint64_t> ticket_counter_;
  RecordSink record_sink_;
  std::size_t records_logged_ = 0;
  /// Engine entry id <-> global ticket, for stored entries only: the
  /// engine's removal listener drops a mapping on every removal path (the
  /// maps are advisory routing state, never consulted for matching).
  std::unordered_map<std::uint64_t, std::uint64_t> ticket_of_id_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_of_ticket_;
  std::uint64_t last_removed_ = 0;  ///< newest id the listener reported
  SpaceClient* standby_ = nullptr;
  /// Standby role. The primary sends frames in ticket order, with request
  /// ids 1, 2, 3, ... on one session: the first to send a replication
  /// frame. repl_next_id_ is the id applied next; a frame past it waits in
  /// repl_held_ until the gap closes.
  std::optional<SessionId> repl_session_;
  std::uint64_t repl_next_id_ = 1;
  std::map<std::uint64_t, Message> repl_held_;
  bool dead_ = false;

  Stats stats_;
  std::size_t peak_in_service_ = 0;
};

}  // namespace tb::mw
