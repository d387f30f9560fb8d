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
//  * global tickets + per-node OpLog — when a cluster-shared ticket counter
//    is installed, every mutating operation (write apply, take completion)
//    draws a globally ordered ticket and is recorded as a space::OpRecord,
//    so the union of all nodes' logs replays through the deterministic
//    oracle (space/oplog.hpp) exactly like a single-node run;
//  * scatter/merge hooks — kPeekRequest answers the node's oldest live
//    match with its global ticket (the per-node minimum of the federated
//    wildcard merge) and kTakeByIdRequest removes the merge winner;
//  * primary→standby replication — with a standby client installed, acked
//    writes and takes are forwarded as kReplicate* frames and the client's
//    ack is withheld until the standby confirms, so promotion (replaying
//    the buffered records in ticket order) loses no acknowledged write.
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
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/mw/client.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/transport.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/space/oplog.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::mw {

struct ServerConfig {
  /// Per-request processing latency (RMI dispatch + socket wrapper).
  sim::Time service_delay = sim::Time::ms(2);

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
    std::uint64_t replicated_buffered = 0;   ///< records buffered as standby
    std::uint64_t dropped_while_dead = 0;    ///< frames ignored after shutdown
  };
  const Stats& stats() const { return stats_; }

  space::SpaceEngine& space() { return *space_; }

  /// Peak service-stage occupancy of any one session (pipelining
  /// diagnostics).
  std::size_t peak_in_service() const { return peak_in_service_; }

  /// Observability hook (DESIGN.md §7): mirrors Stats into `<p>.*` counters
  /// at snapshot time, plus the federation evidence footprint as gauges:
  /// `<p>.oplog_records`, `<p>.ticket_mappings` (live entries mapped to a
  /// ticket) and `<p>.standby_buffered` (replication records awaiting
  /// promote()). The registry must outlive the server. Default prefix:
  /// "mw.server".
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

  /// Installs the cluster-shared global ticket counter, turning on
  /// per-node OpLog recording: every write apply and take completion draws
  /// a ticket (++*counter) and appends a space::OpRecord, and the
  /// engine-id <-> ticket maps behind peeks/directed takes are maintained.
  /// Must be installed before the first data operation.
  void set_ticket_counter(std::shared_ptr<std::uint64_t> counter);

  /// This node's operation log (empty unless a ticket counter is set).
  /// Mutable so a cluster can splice the records out for the oracle.
  space::OpLog& oplog() { return oplog_; }

  /// Installs the primary→standby replication stream: every acked write
  /// and take is forwarded to `standby` (a SpaceClient connected to the
  /// standby node) and the data-plane ack is withheld until the standby
  /// confirms. Requires a ticket counter (records are keyed by ticket).
  /// nullptr detaches the stream.
  void set_standby(SpaceClient* standby);

  /// Replays the replication records buffered while this node served as a
  /// standby sink into the engine, in ticket order, rebuilding the
  /// engine-id <-> ticket maps so post-promotion peeks and snapshots
  /// report original tickets. Returns the number of records applied.
  /// Replayed records are NOT re-logged: they already live in the failed
  /// primary's OpLog.
  std::size_t promote();

  /// Buffered replication records awaiting promote().
  std::size_t standby_buffer_size() const { return repl_buffer_.size(); }

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

  /// One primary→standby stream record, buffered on the standby until
  /// promote(). A write carries the tuple + lease duration; a take carries
  /// the frame's template, space::Template::exact_of the removed tuple (the
  /// same discipline the OpLog replay uses: the oldest equal-valued entry
  /// IS the taken one).
  struct ReplRecord {
    std::uint64_t ticket = 0;
    std::int64_t duration_ns = 0;  ///< write lease; INT64_MAX = forever
    std::variant<space::Tuple, space::Template> payload;  ///< write | take
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
  void respond(SessionId session, Message response);

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

  /// The mis-routed-key reject: kError + kFailedPrecondition + epoch.
  void reject_misroute(SessionId session, const Message& request);
  /// True when the ownership filter is active and vetoes this request's
  /// type_key (named data ops only).
  bool misrouted(const Message& request) const;

  /// ++*ticket_counter_; requires ticketing().
  std::uint64_t draw_ticket();
  bool ticketing() const { return ticket_counter_ != nullptr; }
  /// Records a write apply into the OpLog and the id<->ticket maps. The
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
  /// Forwards one record on the replication stream; `on_acked` runs when
  /// the standby confirms (immediately when no standby is attached).
  void replicate(Message frame, std::function<void()> on_acked);

  /// Lease/timeout duration left after transit; nullopt = dead on arrival.
  std::optional<sim::Time> remaining_lease(std::int64_t duration_ns,
                                           std::int64_t created_at_ns) const;

  static sim::Time duration_of(std::int64_t ns);

  space::SpaceEngine* space_;
  ServerTransport* transport_;
  const Codec* codec_;
  ServerConfig config_;
  /// notify registration -> owning session (for event push & cancel).
  std::unordered_map<std::uint64_t, SessionId> notify_sessions_;

  static constexpr std::size_t kResponseCacheSize = 64;
  std::unordered_map<SessionId, Session> sessions_;
  std::vector<std::uint8_t> encode_buf_;  ///< reused for event pushes

  /// Requests waiting for a service slot (max_service_slots), FIFO across
  /// sessions.
  std::deque<std::pair<SessionId, Message>> admission_queue_;
  int total_in_service_ = 0;

  // --- federation state (DESIGN.md §16) --------------------------------------
  std::function<bool(std::uint64_t)> owns_;  ///< null = no enforcement
  std::uint64_t epoch_ = 0;
  std::shared_ptr<std::uint64_t> ticket_counter_;
  space::OpLog oplog_;
  /// Engine entry id <-> global ticket, for stored entries only: the
  /// engine's removal listener drops a mapping on every removal path (the
  /// maps are advisory routing state, never consulted for matching).
  std::unordered_map<std::uint64_t, std::uint64_t> ticket_of_id_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_of_ticket_;
  std::uint64_t last_removed_ = 0;  ///< newest id the listener reported
  SpaceClient* standby_ = nullptr;
  /// Standby role: the buffered stream. A deque grows by blocks and never
  /// copies what it holds.
  std::deque<ReplRecord> repl_buffer_;
  bool dead_ = false;

  Stats stats_;
  std::size_t peak_in_service_ = 0;
};

}  // namespace tb::mw
