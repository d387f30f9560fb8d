#include "src/mw/node_core.hpp"

#include <algorithm>
#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"
#include "src/util/status.hpp"

namespace tb::mw {

NodeCore::NodeCore(space::SpaceEngine& space, ServerTransport& transport,
                   const Codec& codec, ServerConfig config)
    : space_(&space), transport_(&transport), codec_(&codec), config_(config) {
  transport_->on_message().connect(
      [this](SessionId session, std::span<const std::uint8_t> bytes) {
        handle_bytes(session, bytes);
      });
}

sim::Time NodeCore::duration_of(std::int64_t ns) const {
  // A duration that would end past Time::max() never ends: saturating here
  // keeps `now + duration` from overflowing anywhere downstream. INT64_MAX
  // itself is kLeaseForever.
  const std::int64_t now = space_->simulator().now().count_ns();
  return ns >= INT64_MAX - now ? space::kLeaseForever : sim::Time::ns(ns);
}

Message NodeCore::reply_to(std::uint64_t id, MsgType type) {
  Message reply;
  reply.type = type;
  reply.request_id = id;
  return reply;
}

Message NodeCore::failure(const Message& request, MsgType type,
                          util::StatusCode code, std::string text) {
  Message reply = reply_to(request.request_id, type);
  reply.status = static_cast<std::uint8_t>(code);
  reply.error = std::move(text);
  return reply;
}

void NodeCore::set_ownership(std::function<bool(std::uint64_t)> owns,
                             std::uint64_t epoch) {
  owns_ = std::move(owns);
  epoch_ = epoch;
}

void NodeCore::set_ticketing(std::shared_ptr<std::uint64_t> counter,
                             RecordSink sink) {
  TB_REQUIRE(counter != nullptr && sink != nullptr);
  ticket_counter_ = std::move(counter);
  record_sink_ = std::move(sink);
  space_->set_removal_listener(
      [this](std::uint64_t entry_id) { forget_entry(entry_id); });
}

void NodeCore::set_standby(SpaceClient* standby) {
  // Each replication frame carries its global ticket, which the standby
  // maps its copy of the entry to; a stream needs a ticket source.
  TB_ASSERT(standby == nullptr || ticket_counter_ != nullptr);
  standby_ = standby;
}

std::uint64_t NodeCore::draw_ticket() {
  TB_ASSERT(ticket_counter_);
  return ++*ticket_counter_;
}

void NodeCore::record_write(std::uint64_t entry_id, space::Tuple tuple,
                            std::uint64_t ticket) {
  space::OpRecord record;
  record.ticket = ticket;
  record.kind = space::OpRecord::Kind::kWrite;
  record.tuple = std::move(tuple);
  ++records_logged_;
  record_sink_(std::move(record));
  map_ticket(entry_id, ticket);
}

void NodeCore::map_ticket(std::uint64_t entry_id, std::uint64_t ticket) {
  // A write that a parked take consumed was never stored: the engine
  // reported its removal inside write(), before the id reached us.
  if (entry_id == last_removed_) return;
  ticket_of_id_[entry_id] = ticket;
  id_of_ticket_[ticket] = entry_id;
}

void NodeCore::forget_entry(std::uint64_t entry_id) {
  last_removed_ = entry_id;
  const auto it = ticket_of_id_.find(entry_id);
  if (it == ticket_of_id_.end()) return;
  id_of_ticket_.erase(it->second);
  ticket_of_id_.erase(it);
}

void NodeCore::record_take(const space::Tuple& taken, std::uint64_t ticket) {
  space::OpRecord record;
  record.ticket = ticket;
  record.kind = space::OpRecord::Kind::kTakeExact;
  record.tuple = taken;
  ++records_logged_;
  record_sink_(std::move(record));
}

void NodeCore::replicate(Message frame, SessionId session, Message response) {
  TB_ASSERT(standby_);
  ++stats_.replication_forwards;
  // The data-plane ack is withheld until the standby confirms; a stream
  // failure (standby down, rpc timeout) still acks the client — the
  // documented at-least-once replica edge. A frame the standby never got
  // is a request-id gap there, and promotion applies what it held back.
  standby_->call_async(
      std::move(frame),
      [this, session, response = std::move(response)](
          const std::optional<Message>&) mutable {
        respond(session, std::move(response));
      });
}

void NodeCore::answer_take(SessionId session, Message response,
                           space::Tuple taken) {
  response.ok = true;
  response.tuple = std::move(taken);
  if (ticketing()) {
    // The removal is the linearization point, so the take draws its ticket
    // here, not at request arrival (a parked take completes long after).
    const std::uint64_t ticket = draw_ticket();
    record_take(*response.tuple, ticket);
    if (standby_) {
      Message frame;
      frame.type = MsgType::kReplicateTakeRequest;
      frame.tmpl = space::Template::exact_of(*response.tuple);
      frame.handle = ticket;
      replicate(std::move(frame), session, std::move(response));
      return;
    }
  }
  respond(session, std::move(response));
}

std::size_t NodeCore::promote() {
  const std::size_t held = repl_held_.size();
  for (auto& [id, frame] : repl_held_) apply_replicated(frame);
  repl_held_.clear();
  return held;
}

std::vector<std::pair<std::uint64_t, space::Tuple>> NodeCore::ticketed_snapshot()
    const {
  std::vector<std::pair<std::uint64_t, space::Tuple>> out;
  for (auto& [id, tuple] : space_->snapshot_with_ids()) {
    const auto it = ticket_of_id_.find(id);
    if (it == ticket_of_id_.end()) continue;
    out.emplace_back(it->second, std::move(tuple));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void NodeCore::handle_bytes(SessionId session,
                            std::span<const std::uint8_t> bytes) {
  if (dead_) {
    // Crashed-host semantics: nothing decodes, nothing answers. Clients
    // observe rpc timeouts, exactly as if the process were gone.
    ++stats_.dropped_while_dead;
    return;
  }
  std::optional<Message> request = codec_->decode(bytes);
  if (!request) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.messages_decoded;
  stats_.bytes_decoded += bytes.size();

  if (request->request_id == 0) {
    // Uncorrelatable: the reply could never be matched to a caller, and the
    // duplicate cache would pin id 0 forever. Reject without entering the
    // pipeline (and without caching the rejection).
    ++stats_.rejected_requests;
    send_uncached(session, failure(*request, MsgType::kError,
                                   util::StatusCode::kInvalidArgument,
                                   "missing request id"));
    return;
  }

  Session& state = sessions_[session];
  if (auto cached = state.responses.find(request->request_id);
      cached != state.responses.end()) {
    // Retransmitted request whose response we already produced: replay it
    // without re-executing the operation.
    ++stats_.duplicates_replayed;
    transport_->send(session, cached->second);
    return;
  }
  if (state.in_flight.contains(request->request_id)) {
    ++stats_.duplicates_ignored;  // original still parked (blocked take)
    return;
  }
  state.in_flight.insert(request->request_id);

  ++stats_.requests;
  admit(session, std::move(*request));
}

void NodeCore::admit(SessionId session, Message request) {
  if (config_.max_service_slots > 0 &&
      total_in_service_ >= config_.max_service_slots) {
    if (config_.admission_queue_limit > 0 &&
        admission_queue_.size() >=
            static_cast<std::size_t>(config_.admission_queue_limit)) {
      reject_overload(session, request);
      return;
    }
    ++stats_.admission_queued;
    admission_queue_.emplace_back(session, std::move(request));
    return;
  }
  start_service(session, std::move(request));
}

void NodeCore::reject_overload(SessionId session, const Message& request) {
  // Load shed: answer immediately with a typed, retryable status. Like the
  // id-0 path, the rejection is NOT cached and the id leaves in_flight, so
  // a client retry (same id) re-enters admission instead of replaying the
  // reject from the duplicate cache.
  ++stats_.overload_rejects;
  sessions_[session].in_flight.erase(request.request_id);
  send_uncached(session, failure(request, MsgType::kError,
                                 util::StatusCode::kResourceExhausted,
                                 "server at max_service_slots"));
}

void NodeCore::start_service(SessionId session, Message request) {
  Session& state = sessions_[session];
  ++state.in_service;
  ++total_in_service_;
  peak_in_service_ =
      std::max(peak_in_service_, static_cast<std::size_t>(state.in_service));
  // The RMI/socket-wrapper hop inside the server host: a fixed 2 ms of
  // per-request processing. The slot is held for the hop only: once the
  // operation reaches the space (answered or parked), the next queued
  // request may enter — which is what lets a later read overtake a parked
  // take on the same session.
  space_->simulator().schedule_in(
      sim::Time::ms(2),
      [this, session, req = std::move(request)]() mutable {
        process(session, std::move(req));
        finish_service(session);
      });
}

void NodeCore::finish_service(SessionId session) {
  Session& state = sessions_[session];
  --state.in_service;
  --total_in_service_;
  drain_admission_queue();
}

void NodeCore::drain_admission_queue() {
  while (!admission_queue_.empty() &&
         (config_.max_service_slots == 0 ||
          total_in_service_ < config_.max_service_slots)) {
    auto [waiting_session, next] = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    start_service(waiting_session, std::move(next));
  }
}

void NodeCore::respond(SessionId session, Message response) {
  if (dead_) return;  // completions racing a shutdown are swallowed
  response.created_at_ns = space_->simulator().now().count_ns();
  ++stats_.responses;

  Session& state = sessions_[session];
  state.in_flight.erase(response.request_id);
  // Encode directly into the duplicate cache's slot: the bytes must persist
  // for replay anyway, so the cache entry doubles as the wire buffer (the
  // transport copies what it needs during send).
  auto [cached, inserted] = state.responses.try_emplace(response.request_id);
  if (inserted) {
    codec_->encode_into(response, cached->second);
    state.response_order.push_back(response.request_id);
    if (state.response_order.size() > kResponseCacheSize) {
      state.responses.erase(state.response_order.front());
      state.response_order.pop_front();
    }
  }
  ++stats_.messages_encoded;
  stats_.bytes_encoded += cached->second.size();
  transport_->send(session, cached->second);
}

void NodeCore::send_uncached(SessionId session, Message message) {
  message.created_at_ns = space_->simulator().now().count_ns();
  encode_buf_.clear();
  codec_->encode_into(message, encode_buf_);
  ++stats_.messages_encoded;
  stats_.bytes_encoded += encode_buf_.size();
  transport_->send(session, encode_buf_);
}

bool NodeCore::misrouted(const Message& request) const {
  if (!owns_) return false;
  switch (request.type) {
    case MsgType::kWriteRequest:
      if (!request.tuple) return false;  // the invalid-argument path answers
      return !owns_(
          space::type_key(request.tuple->name, request.tuple->fields.size()));
    case MsgType::kReadRequest:
    case MsgType::kTakeRequest:
      // Wildcard (unnamed) templates are never filtered: they arrive via
      // the scatter path and legitimately touch every node.
      if (!request.tmpl || !request.tmpl->name) return false;
      return !owns_(space::type_key(*request.tmpl->name,
                                    request.tmpl->fields.size()));
    default:
      return false;  // peeks, directed takes, replication, control frames
  }
}

void NodeCore::process(SessionId session, Message request) {
  if (misrouted(request)) {
    ++stats_.misroute_rejects;
    Message err = failure(request, MsgType::kError,
                          util::StatusCode::kFailedPrecondition,
                          "type_key not owned by this node");
    // The node's current routing epoch rides along so the client can tell
    // a stale table (its epoch < ours: refresh and re-route) from a race
    // it should retry against a fresher table it already holds.
    err.epoch = epoch_;
    respond(session, std::move(err));
    return;
  }
  switch (request.type) {
    case MsgType::kWriteRequest:
      handle_write(session, request);
      return;
    case MsgType::kReadRequest:
      handle_match(session, request, /*take=*/false);
      return;
    case MsgType::kTakeRequest:
      handle_match(session, request, /*take=*/true);
      return;
    case MsgType::kNotifyRequest:
      handle_notify(session, request);
      return;
    case MsgType::kRenewRequest:
      handle_renew(session, request);
      return;
    case MsgType::kCancelRequest:
      handle_cancel(session, request);
      return;
    case MsgType::kTxnBeginRequest:
    case MsgType::kTxnCommitRequest:
    case MsgType::kTxnAbortRequest:
      handle_txn(session, request);
      return;
    case MsgType::kPeekRequest:
      handle_peek(session, request);
      return;
    case MsgType::kTakeByIdRequest:
      handle_take_by_id(session, request);
      return;
    case MsgType::kReplicateWriteRequest:
    case MsgType::kReplicateTakeRequest:
      handle_replicate(session, request);
      return;
    case MsgType::kUnknownFrame: {
      // A frame kind from a newer protocol revision (the codec decoded only
      // its header). Answer typed instead of dropping the session, so a
      // mixed-version peer degrades per-operation rather than per-link.
      ++stats_.unknown_frames;
      respond(session, failure(request, MsgType::kError,
                               util::StatusCode::kUnimplemented,
                               "frame kind not implemented by this node"));
      return;
    }
    default:
      respond(session, failure(request, MsgType::kError,
                               util::StatusCode::kInvalidArgument,
                               "unexpected message type"));
      return;
  }
}

void NodeCore::handle_write(SessionId session, Message& request) {
  if (!request.tuple) {
    respond(session, failure(request, MsgType::kWriteResponse,
                             util::StatusCode::kInvalidArgument,
                             "write without tuple"));
    return;
  }
  ++stats_.named_ops;
  Message response = reply_to(request.request_id, MsgType::kWriteResponse);
  response.ok = true;

  // The lease counts from the send timestamp (message.hpp), which no
  // sender can place before time 0 or after the request's arrival.
  const sim::Time now = space_->simulator().now();
  const sim::Time sent = sim::Time::ns(
      std::clamp<std::int64_t>(request.created_at_ns, 0, now.count_ns()));
  sim::Time lease = duration_of(request.duration_ns);
  if (lease != space::kLeaseForever) {
    if (lease <= now - sent) {
      // Expired in transit: acknowledge, but never store ("the entry
      // lifetime is out-of-date" — paper §5).
      ++stats_.dead_on_arrival;
      response.expires_at_ns = (sent + lease).count_ns();
      respond(session, std::move(response));
      return;
    }
    lease -= now - sent;
  }

  if (request.txn != space::kNoTxn &&
      !space_->transaction_open(request.txn)) {
    respond(session, failure(request, MsgType::kWriteResponse,
                             util::StatusCode::kNotFound,
                             "unknown transaction"));
    return;
  }
  // With ticketing active, the payload is copied before the store consumes
  // it. The op record takes the copy; only a standby's replication frame
  // needs a second one.
  space::Tuple recorded;
  const bool ticketed = ticketing() && request.txn == space::kNoTxn;
  if (ticketed) recorded = *request.tuple;
  // The decoded tuple's buffers move through into the store untouched.
  const space::Lease stored =
      space_->write(std::move(*request.tuple), lease, request.txn);
  response.handle = stored.id;
  response.expires_at_ns = stored.expires_at.count_ns();
  if (ticketed) {
    const std::uint64_t ticket = draw_ticket();
    if (standby_) {
      record_write(stored.id, recorded, ticket);
      Message frame;
      frame.type = MsgType::kReplicateWriteRequest;
      frame.tuple = std::move(recorded);
      frame.handle = ticket;
      frame.duration_ns = lease.count_ns();
      replicate(std::move(frame), session, std::move(response));
      return;
    }
    record_write(stored.id, std::move(recorded), ticket);
  }
  respond(session, std::move(response));
}

void NodeCore::handle_match(SessionId session, Message& request, bool take) {
  if (!request.tmpl) {
    respond(session, failure(request, MsgType::kError,
                             util::StatusCode::kInvalidArgument,
                             "match without template"));
    return;
  }
  if (request.tmpl->name) {
    ++stats_.named_ops;
  } else {
    ++stats_.wildcard_ops;
  }
  if (request.txn != space::kNoTxn) {
    // Transactional matches are if-exists only (blocking under a
    // transaction would let a parked operation outlive its transaction),
    // and a take under one holds its entry until the transaction resolves.
    if (!space_->transaction_open(request.txn)) {
      respond(session, failure(request, MsgType::kMatchResponse,
                               util::StatusCode::kNotFound));
      return;
    }
    Message response = reply_to(request.request_id, MsgType::kMatchResponse);
    response.tuple = take ? space_->take_if_exists(*request.tmpl, request.txn)
                          : space_->read_if_exists(*request.tmpl, request.txn);
    response.ok = response.tuple.has_value();
    respond(session, std::move(response));
    return;
  }
  const sim::Time timeout = duration_of(request.duration_ns);
  // An empty blocking result means the caller's deadline passed while
  // parked — typed DEADLINE_EXCEEDED. An empty if-exists probe (zero
  // timeout) is a clean miss: OK with no tuple.
  const bool blocking = timeout > sim::Time::zero();
  auto completion = [this, session, id = request.request_id, blocking,
                     take](std::optional<space::Tuple> result) {
    Message response = reply_to(id, MsgType::kMatchResponse);
    if (result && take) {
      answer_take(session, std::move(response), std::move(*result));
      return;
    }
    response.ok = result.has_value();
    if (result) {
      response.tuple = std::move(result);
    } else if (blocking) {
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kDeadlineExceeded);
    }
    respond(session, std::move(response));
  };
  if (take) {
    space_->take_async(std::move(*request.tmpl), timeout,
                       std::move(completion));
  } else {
    space_->read_async(std::move(*request.tmpl), timeout,
                       std::move(completion));
  }
}

void NodeCore::handle_peek(SessionId session, const Message& request) {
  if (!request.tmpl) {
    respond(session, failure(request, MsgType::kError,
                             util::StatusCode::kInvalidArgument,
                             "peek without template"));
    return;
  }
  ++stats_.peeks;
  Message response = reply_to(request.request_id, MsgType::kPeekResponse);
  if (auto found = space_->peek_oldest(*request.tmpl)) {
    response.ok = true;
    response.tuple = std::move(found->second);
    // handle carries the entry's global ticket — the per-node minimum the
    // router's k-way merge compares. 0 = entry predates ticketing (written
    // outside the federated path); the router skips such candidates.
    const auto it = ticket_of_id_.find(found->first);
    response.handle = it != ticket_of_id_.end() ? it->second : 0;
  }
  respond(session, std::move(response));
}

void NodeCore::handle_take_by_id(SessionId session, const Message& request) {
  ++stats_.takes_by_id;
  Message response = reply_to(request.request_id, MsgType::kMatchResponse);
  // A ticket that was never ours, or whose entry is gone, is a clean miss:
  // the router re-scatters. So is a mapped entry the engine no longer
  // serves: one a transaction holds, or one whose lease ran out and whose
  // reclamation, which drops the mapping, is due. A win drops the mapping
  // through the removal listener.
  std::optional<space::Tuple> taken;
  if (const auto it = id_of_ticket_.find(request.handle);
      it != id_of_ticket_.end()) {
    taken = space_->take_by_id(it->second);
  }
  if (!taken) {
    respond(session, std::move(response));
    return;
  }
  answer_take(session, std::move(response), std::move(*taken));
}

void NodeCore::handle_replicate(SessionId session, Message& request) {
  const bool write = request.type == MsgType::kReplicateWriteRequest;
  const std::uint64_t id = request.request_id;
  const std::uint64_t ticket = request.handle;
  Message response = reply_to(id, MsgType::kReplicateResponse);
  if (write ? !request.tuple || request.duration_ns <= 0 : !request.tmpl) {
    response = failure(request, MsgType::kReplicateResponse,
                       util::StatusCode::kInvalidArgument,
                       write ? "replicate-write without tuple or lease"
                             : "replicate-take without template");
  } else if (repl_session_ && session != *repl_session_) {
    // Only the primary's stream is in ticket order; a frame from any
    // other sender has no place in it.
    response = failure(request, MsgType::kReplicateResponse,
                       util::StatusCode::kFailedPrecondition,
                       "replication from a second session");
  } else {
    repl_session_ = session;
    response.ok = true;
    // A frame below the next id, or one already held, is a retransmit that
    // outlived its cached reply: it is answered and applied only once.
    if (id >= repl_next_id_ && !repl_held_.contains(id)) {
      ++stats_.replicated_buffered;
      if (id != repl_next_id_) {
        repl_held_.emplace(id, std::move(request));
      } else {
        apply_replicated(request);
        ++repl_next_id_;
        // The gap this frame closed may free the frames held behind it.
        for (auto it = repl_held_.begin();
             it != repl_held_.end() && it->first == repl_next_id_;
             it = repl_held_.erase(it), ++repl_next_id_) {
          apply_replicated(it->second);
        }
      }
    }
  }
  response.handle = ticket;
  respond(session, std::move(response));
}

void NodeCore::apply_replicated(Message& frame) {
  if (frame.type == MsgType::kReplicateWriteRequest) {
    const space::Lease lease =
        space_->write(std::move(*frame.tuple), duration_of(frame.duration_ns));
    map_ticket(lease.id, frame.handle);
    return;
  }
  // Peek first to learn the victim's engine id, then remove by id; the
  // removal listener sheds its ticket mapping.
  if (auto found = space_->peek_oldest(*frame.tmpl)) {
    space_->take_by_id(found->first);
  }
}

void NodeCore::handle_txn(SessionId session, const Message& request) {
  // process() routes only the three txn kinds here.
  if (request.type == MsgType::kTxnBeginRequest) {
    const sim::Time timeout = duration_of(request.duration_ns);
    if (timeout <= sim::Time::zero()) {
      respond(session, failure(request, MsgType::kTxnBeginResponse,
                               util::StatusCode::kInvalidArgument,
                               "txn-begin without a positive timeout"));
      return;
    }
    Message response =
        reply_to(request.request_id, MsgType::kTxnBeginResponse);
    response.ok = true;
    response.handle = space_->begin_transaction(timeout);
    respond(session, std::move(response));
    return;
  }
  const bool resolved = request.type == MsgType::kTxnCommitRequest
                            ? space_->commit(request.handle)
                            : space_->abort(request.handle);
  if (!resolved) {
    respond(session, failure(request, MsgType::kTxnResolveResponse,
                             util::StatusCode::kNotFound));
    return;
  }
  Message response = reply_to(request.request_id, MsgType::kTxnResolveResponse);
  response.ok = true;
  respond(session, std::move(response));
}

void NodeCore::handle_notify(SessionId session, const Message& request) {
  if (!request.tmpl) {
    respond(session, failure(request, MsgType::kError,
                             util::StatusCode::kInvalidArgument,
                             "notify without template"));
    return;
  }
  const sim::Time lease = duration_of(request.duration_ns);
  if (lease <= sim::Time::zero()) {
    respond(session, failure(request, MsgType::kError,
                             util::StatusCode::kInvalidArgument,
                             "notify without a positive lease"));
    return;
  }
  // The callback outlives this frame; capture what it needs by value.
  // Registration id becomes known only after notify() returns, so route
  // through a slot the callback reads.
  auto reg_slot = std::make_shared<std::uint64_t>(0);
  const std::uint64_t registration = space_->notify(
      *request.tmpl, lease,
      [this, session, reg_slot](const space::Tuple& tuple) {
        Message event;
        event.type = MsgType::kEvent;
        event.handle = *reg_slot;
        event.tuple = tuple;
        push_event(session, std::move(event));
      });
  *reg_slot = registration;

  Message response = reply_to(request.request_id, MsgType::kNotifyResponse);
  response.ok = true;
  response.handle = registration;
  respond(session, std::move(response));
}

void NodeCore::push_event(SessionId session, Message event) {
  // Batched async fan-out (DESIGN.md §12): one write burst can match many
  // registrations on the same session; instead of encoding and sending
  // inside each space callback, deliveries accumulate and a zero-delay
  // event drains them back-to-back. Same sim-time delivery, one
  // scheduler hop per burst instead of per event; the wire format is
  // unchanged (individual kEvent messages).
  Session& state = sessions_[session];
  state.pending_events.push_back(std::move(event));
  if (state.flush_event.valid() &&
      space_->simulator().is_pending(state.flush_event)) {
    return;
  }
  state.flush_event = space_->simulator().schedule_in(
      sim::Time::zero(), [this, session] { flush_events(session); });
}

void NodeCore::flush_events(SessionId session) {
  if (dead_) return;
  Session& state = sessions_[session];
  ++stats_.notify_batch_flushes;
  // Callbacks during the sends (a notify matching a tuple written by a
  // reacting service) land in the next flush; swap keeps iteration stable.
  std::vector<Message> batch;
  batch.swap(state.pending_events);
  for (Message& event : batch) {
    ++stats_.events_pushed;
    send_uncached(session, std::move(event));
  }
}

void NodeCore::bind_metrics(obs::Registry& registry,
                            const std::string& prefix) {
  registry.mirror(prefix, stats_,
                  {{".requests", &Stats::requests},
                   {".responses", &Stats::responses},
                   {".events_pushed", &Stats::events_pushed},
                   {".decode_errors", &Stats::decode_errors},
                   {".dead_on_arrival", &Stats::dead_on_arrival},
                   {".duplicates_replayed", &Stats::duplicates_replayed},
                   {".duplicates_ignored", &Stats::duplicates_ignored},
                   {".rejected_requests", &Stats::rejected_requests},
                   {".admission_queued", &Stats::admission_queued},
                   {".overload_rejects", &Stats::overload_rejects},
                   {".notify_batch_flushes", &Stats::notify_batch_flushes},
                   {".misroute_rejects", &Stats::misroute_rejects},
                   {".unknown_frames", &Stats::unknown_frames},
                   {".codec.messages_encoded", &Stats::messages_encoded},
                   {".codec.bytes_encoded", &Stats::bytes_encoded},
                   {".codec.messages_decoded", &Stats::messages_decoded},
                   {".codec.bytes_decoded", &Stats::bytes_decoded}});
  obs::Gauge& oplog_records = registry.gauge(prefix + ".oplog_records");
  obs::Gauge& mappings = registry.gauge(prefix + ".ticket_mappings");
  obs::Gauge& standby_buffered = registry.gauge(prefix + ".standby_buffered");
  registry.add_collector([this, &oplog_records, &mappings, &standby_buffered] {
    oplog_records.set(static_cast<double>(records_logged_));
    mappings.set(static_cast<double>(ticket_of_id_.size()));
    standby_buffered.set(static_cast<double>(repl_held_.size()));
  });
}

void NodeCore::handle_renew(SessionId session, const Message& request) {
  const sim::Time extension = duration_of(request.duration_ns);
  if (extension <= sim::Time::zero()) {
    respond(session, failure(request, MsgType::kRenewResponse,
                             util::StatusCode::kInvalidArgument,
                             "renew without a positive extension"));
    return;
  }
  const std::optional<space::Lease> lease =
      space_->renew(request.handle, extension);
  if (!lease) {
    // Already expired, taken, or never existed: renewal has nothing to
    // extend.
    respond(session, failure(request, MsgType::kRenewResponse,
                             util::StatusCode::kNotFound));
    return;
  }
  Message response = reply_to(request.request_id, MsgType::kRenewResponse);
  response.ok = true;
  response.handle = lease->id;
  response.expires_at_ns = lease->expires_at.count_ns();
  respond(session, std::move(response));
}

void NodeCore::handle_cancel(SessionId session, const Message& request) {
  // Space ids are globally unique, so try tuples first, then notify
  // registrations.
  if (!space_->cancel(request.handle) &&
      !space_->cancel_notify(request.handle)) {
    respond(session, failure(request, MsgType::kCancelResponse,
                             util::StatusCode::kNotFound));
    return;
  }
  Message response = reply_to(request.request_id, MsgType::kCancelResponse);
  response.ok = true;
  respond(session, std::move(response));
}

}  // namespace tb::mw
