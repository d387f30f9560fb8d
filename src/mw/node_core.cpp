#include "src/mw/node_core.hpp"

#include <algorithm>
#include <climits>

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

sim::Time NodeCore::duration_of(std::int64_t ns) {
  if (ns == INT64_MAX) return space::kLeaseForever;
  return sim::Time::ns(ns);
}

std::optional<sim::Time> NodeCore::remaining_lease(
    std::int64_t duration_ns, std::int64_t created_at_ns) const {
  sim::Time lease_duration = duration_of(duration_ns);
  if (lease_duration != space::kLeaseForever) {
    // The lease counts from the send timestamp (message.hpp).
    const sim::Time in_transit =
        space_->simulator().now() - sim::Time::ns(created_at_ns);
    lease_duration -= in_transit;
    if (lease_duration <= sim::Time::zero()) return std::nullopt;
  }
  return lease_duration;
}

void NodeCore::set_ownership(std::function<bool(std::uint64_t)> owns,
                             std::uint64_t epoch) {
  owns_ = std::move(owns);
  epoch_ = epoch;
}

void NodeCore::set_ticket_counter(std::shared_ptr<std::uint64_t> counter) {
  ticket_counter_ = std::move(counter);
  space_->set_removal_listener(
      [this](std::uint64_t entry_id) { forget_entry(entry_id); });
}

void NodeCore::set_standby(SpaceClient* standby) {
  // Replication records are keyed by global ticket; a stream without a
  // ticket source could never be replayed in order.
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
  oplog_.append(std::move(record));
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
  oplog_.append(std::move(record));
}

void NodeCore::replicate(Message frame, std::function<void()> on_acked) {
  if (!standby_) {
    on_acked();
    return;
  }
  ++stats_.replication_forwards;
  // The data-plane ack is withheld until the standby confirms; a stream
  // failure (standby down, rpc timeout) still acks the client — the
  // documented at-least-once replica edge, resolved by promotion replay.
  standby_->call_async(std::move(frame),
                       [done = std::move(on_acked)](
                           const std::optional<Message>&) { done(); });
}

std::size_t NodeCore::promote() {
  std::sort(repl_buffer_.begin(), repl_buffer_.end(),
            [](const ReplRecord& a, const ReplRecord& b) {
              return a.ticket < b.ticket;
            });
  std::size_t applied = 0;
  for (ReplRecord& record : repl_buffer_) {
    if (space::Tuple* tuple = std::get_if<space::Tuple>(&record.payload)) {
      const space::Lease lease =
          space_->write(std::move(*tuple), duration_of(record.duration_ns));
      map_ticket(lease.id, record.ticket);
      ++applied;
      continue;
    }
    // Peek first to learn the victim's engine id, then remove by id; the
    // removal listener sheds its ticket mapping.
    if (auto found =
            space_->peek_oldest(std::get<space::Template>(record.payload))) {
      space_->take_by_id(found->first);
      ++applied;
    }
  }
  repl_buffer_.clear();
  return applied;
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
    Message err;
    err.type = MsgType::kError;
    err.created_at_ns = space_->simulator().now().count_ns();
    err.error = "missing request id";
    err.status = static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
    encode_buf_.clear();
    codec_->encode_into(err, encode_buf_);
    ++stats_.messages_encoded;
    stats_.bytes_encoded += encode_buf_.size();
    transport_->send(session, encode_buf_);
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
  Message err;
  err.type = MsgType::kError;
  err.request_id = request.request_id;
  err.created_at_ns = space_->simulator().now().count_ns();
  err.error = "server at max_service_slots";
  err.status =
      static_cast<std::uint8_t>(util::StatusCode::kResourceExhausted);
  encode_buf_.clear();
  codec_->encode_into(err, encode_buf_);
  ++stats_.messages_encoded;
  stats_.bytes_encoded += encode_buf_.size();
  transport_->send(session, encode_buf_);
}

void NodeCore::start_service(SessionId session, Message request) {
  Session& state = sessions_[session];
  ++state.in_service;
  ++total_in_service_;
  peak_in_service_ =
      std::max(peak_in_service_, static_cast<std::size_t>(state.in_service));
  // The RMI/socket-wrapper hop inside the server host. The slot is held for
  // the hop only: once the operation reaches the space (answered or parked),
  // the next queued request may enter — which is what lets a later read
  // overtake a parked take on the same session.
  space_->simulator().schedule_in(
      config_.service_delay,
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

void NodeCore::reject_misroute(SessionId session, const Message& request) {
  ++stats_.misroute_rejects;
  Message err;
  err.type = MsgType::kError;
  err.request_id = request.request_id;
  err.error = "type_key not owned by this node";
  err.status =
      static_cast<std::uint8_t>(util::StatusCode::kFailedPrecondition);
  // The node's current routing epoch rides along so the client can tell a
  // stale table (its epoch < ours: refresh and re-route) from a race it
  // should retry against a fresher table it already holds.
  err.epoch = epoch_;
  respond(session, err);
}

void NodeCore::process(SessionId session, Message request) {
  if (misrouted(request)) {
    reject_misroute(session, request);
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
      Message err;
      err.type = MsgType::kError;
      err.request_id = request.request_id;
      err.error = "frame kind not implemented by this node";
      err.status =
          static_cast<std::uint8_t>(util::StatusCode::kUnimplemented);
      respond(session, err);
      return;
    }
    default: {
      Message err;
      err.type = MsgType::kError;
      err.request_id = request.request_id;
      err.error = "unexpected message type";
      err.status =
          static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
      respond(session, err);
      return;
    }
  }
}

void NodeCore::handle_write(SessionId session, Message& request) {
  Message response;
  response.type = MsgType::kWriteResponse;
  response.request_id = request.request_id;
  if (!request.tuple) {
    response.ok = false;
    response.error = "write without tuple";
    response.status =
        static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
    respond(session, response);
    return;
  }
  ++stats_.named_ops;

  const std::optional<sim::Time> lease_duration =
      remaining_lease(request.duration_ns, request.created_at_ns);
  if (!lease_duration) {
    // Expired in transit: acknowledge, but never store ("the entry
    // lifetime is out-of-date" — paper §5).
    ++stats_.dead_on_arrival;
    response.ok = true;
    response.handle = 0;
    response.expires_at_ns = request.created_at_ns + request.duration_ns;
    respond(session, response);
    return;
  }

  if (request.txn != space::kNoTxn &&
      !space_->transaction_open(request.txn)) {
    response.ok = false;
    response.error = "unknown transaction";
    response.status = static_cast<std::uint8_t>(util::StatusCode::kNotFound);
    respond(session, response);
    return;
  }
  // With ticketing active, the payload is copied before the store consumes
  // it. The OpLog record takes the copy; only a standby's replication frame
  // needs a second one.
  space::Tuple recorded;
  const bool ticketed = ticketing() && request.txn == space::kNoTxn;
  if (ticketed) recorded = *request.tuple;
  // The decoded tuple's buffers move through into the store untouched.
  const space::Lease lease =
      space_->write(std::move(*request.tuple), *lease_duration, request.txn);
  response.ok = true;
  response.handle = lease.id;
  response.expires_at_ns = lease.expires_at == sim::Time::max()
                               ? INT64_MAX
                               : lease.expires_at.count_ns();
  if (ticketed) {
    const std::uint64_t ticket = draw_ticket();
    if (!standby_) {
      record_write(lease.id, std::move(recorded), ticket);
    } else {
      record_write(lease.id, recorded, ticket);
      Message frame;
      frame.type = MsgType::kReplicateWriteRequest;
      frame.tuple = std::move(recorded);
      frame.handle = ticket;
      frame.duration_ns = *lease_duration == space::kLeaseForever
                              ? INT64_MAX
                              : lease_duration->count_ns();
      replicate(std::move(frame),
                [this, session, resp = std::move(response)]() mutable {
                  respond(session, std::move(resp));
                });
      return;
    }
  }
  respond(session, response);
}

void NodeCore::handle_match(SessionId session, Message& request, bool take) {
  if (!request.tmpl) {
    Message response;
    response.type = MsgType::kError;
    response.request_id = request.request_id;
    response.error = "match without template";
    response.status =
        static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
    respond(session, response);
    return;
  }
  if (request.tmpl->name) {
    ++stats_.named_ops;
  } else {
    ++stats_.wildcard_ops;
  }
  const sim::Time timeout = duration_of(request.duration_ns);
  // An empty blocking result means the caller's deadline passed while
  // parked — typed DEADLINE_EXCEEDED. An empty if-exists probe (zero
  // timeout) is a clean miss: OK with no tuple.
  const bool blocking = timeout > sim::Time::zero();
  auto completion = [this, session, id = request.request_id, blocking,
                     take](std::optional<space::Tuple> result) {
    Message response;
    response.type = MsgType::kMatchResponse;
    response.request_id = id;
    response.ok = result.has_value();
    if (result && take && ticketing()) {
      // The completion is the linearization point: the removal became
      // visible just now, so it draws a fresh global ticket here, not at
      // request arrival (a parked take completes long after it arrives).
      const std::uint64_t ticket = draw_ticket();
      record_take(*result, ticket);
      if (standby_) {
        Message frame;
        frame.type = MsgType::kReplicateTakeRequest;
        frame.tmpl = space::Template::exact_of(*result);
        frame.handle = ticket;
        response.tuple = std::move(result);
        replicate(std::move(frame),
                  [this, session, resp = std::move(response)]() mutable {
                    respond(session, std::move(resp));
                  });
        return;
      }
    }
    if (result) {
      response.tuple = std::move(result);
    } else if (blocking) {
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kDeadlineExceeded);
    }
    respond(session, response);
  };
  if (request.txn != space::kNoTxn) {
    // Transactional matches are if-exists only (blocking under a
    // transaction would let a parked operation outlive its transaction).
    if (!space_->transaction_open(request.txn)) {
      Message response;
      response.type = MsgType::kMatchResponse;
      response.request_id = request.request_id;
      response.ok = false;
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kNotFound);
      respond(session, response);
      return;
    }
    Message response;
    response.type = MsgType::kMatchResponse;
    response.request_id = request.request_id;
    std::optional<space::Tuple> result =
        take ? space_->take_if_exists(*request.tmpl, request.txn)
             : space_->read_if_exists(*request.tmpl, request.txn);
    response.ok = result.has_value();
    if (result) response.tuple = std::move(result);
    respond(session, response);
    return;
  }
  if (take) {
    space_->take_async(std::move(*request.tmpl), timeout,
                       std::move(completion));
  } else {
    space_->read_async(std::move(*request.tmpl), timeout,
                       std::move(completion));
  }
}

void NodeCore::handle_peek(SessionId session, const Message& request) {
  Message response;
  response.type = MsgType::kPeekResponse;
  response.request_id = request.request_id;
  if (!request.tmpl) {
    response.type = MsgType::kError;
    response.error = "peek without template";
    response.status =
        static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
    respond(session, response);
    return;
  }
  ++stats_.peeks;
  if (auto found = space_->peek_oldest(*request.tmpl)) {
    response.ok = true;
    response.tuple = std::move(found->second);
    // handle carries the entry's global ticket — the per-node minimum the
    // router's k-way merge compares. 0 = entry predates ticketing (written
    // outside the federated path); the router skips such candidates.
    const auto it = ticket_of_id_.find(found->first);
    response.handle = it != ticket_of_id_.end() ? it->second : 0;
  } else {
    response.ok = false;
  }
  respond(session, response);
}

void NodeCore::handle_take_by_id(SessionId session, const Message& request) {
  ++stats_.takes_by_id;
  Message response;
  response.type = MsgType::kMatchResponse;
  response.request_id = request.request_id;
  const std::uint64_t ticket = request.handle;
  const auto it = id_of_ticket_.find(ticket);
  if (it == id_of_ticket_.end()) {
    // Never ours, or already removed: a clean miss — the router
    // re-scatters.
    response.ok = false;
    respond(session, response);
    return;
  }
  // A win drops the mapping through the removal listener. A miss means the
  // entry's lease ran out and its reclamation, which drops it, is due.
  std::optional<space::Tuple> tuple = space_->take_by_id(it->second);
  if (!tuple) {
    response.ok = false;
    respond(session, response);
    return;
  }
  if (ticketing()) {
    const std::uint64_t take_ticket = draw_ticket();
    record_take(*tuple, take_ticket);
    if (standby_) {
      Message frame;
      frame.type = MsgType::kReplicateTakeRequest;
      frame.tmpl = space::Template::exact_of(*tuple);
      frame.handle = take_ticket;
      response.ok = true;
      response.tuple = std::move(tuple);
      replicate(std::move(frame),
                [this, session, resp = std::move(response)]() mutable {
                  respond(session, std::move(resp));
                });
      return;
    }
  }
  response.ok = true;
  response.tuple = std::move(tuple);
  respond(session, response);
}

void NodeCore::handle_replicate(SessionId session, Message& request) {
  Message response;
  response.type = MsgType::kReplicateResponse;
  response.request_id = request.request_id;
  response.handle = request.handle;
  ReplRecord record;
  record.ticket = request.handle;
  if (request.type == MsgType::kReplicateWriteRequest) {
    if (!request.tuple) {
      response.ok = false;
      response.error = "replicate-write without tuple";
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
      respond(session, response);
      return;
    }
    record.payload = std::move(*request.tuple);
    record.duration_ns = request.duration_ns;
  } else {
    if (!request.tmpl) {
      response.ok = false;
      response.error = "replicate-take without template";
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
      respond(session, response);
      return;
    }
    record.payload = std::move(*request.tmpl);
  }
  // Standby discipline: buffer, never apply. Applying eagerly would race
  // the primary's in-flight completions; promote() replays the buffer in
  // ticket order once the primary is declared dead.
  ++stats_.replicated_buffered;
  repl_buffer_.push_back(std::move(record));
  response.ok = true;
  respond(session, response);
}

void NodeCore::handle_txn(SessionId session, const Message& request) {
  Message response;
  response.request_id = request.request_id;
  switch (request.type) {
    case MsgType::kTxnBeginRequest:
      response.type = MsgType::kTxnBeginResponse;
      response.ok = true;
      response.handle =
          space_->begin_transaction(duration_of(request.duration_ns));
      break;
    case MsgType::kTxnCommitRequest:
      response.type = MsgType::kTxnResolveResponse;
      response.ok = space_->commit(request.handle);
      if (!response.ok) {
        response.status =
            static_cast<std::uint8_t>(util::StatusCode::kNotFound);
      }
      break;
    case MsgType::kTxnAbortRequest:
      response.type = MsgType::kTxnResolveResponse;
      response.ok = space_->abort(request.handle);
      if (!response.ok) {
        response.status =
            static_cast<std::uint8_t>(util::StatusCode::kNotFound);
      }
      break;
    default:
      response.type = MsgType::kError;
      response.error = "bad txn request";
      response.status =
          static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
      break;
  }
  respond(session, response);
}

void NodeCore::handle_notify(SessionId session, const Message& request) {
  Message response;
  response.request_id = request.request_id;
  if (!request.tmpl) {
    response.type = MsgType::kError;
    response.error = "notify without template";
    response.status =
        static_cast<std::uint8_t>(util::StatusCode::kInvalidArgument);
    respond(session, response);
    return;
  }
  // The callback outlives this frame; capture what it needs by value.
  // Registration id becomes known only after notify() returns, so route
  // through a slot the callback reads.
  auto reg_slot = std::make_shared<std::uint64_t>(0);
  const std::uint64_t registration = space_->notify(
      *request.tmpl, duration_of(request.duration_ns),
      [this, session, reg_slot](const space::Tuple& tuple) {
        Message event;
        event.type = MsgType::kEvent;
        event.handle = *reg_slot;
        event.tuple = tuple;
        push_event(session, std::move(event));
      });
  *reg_slot = registration;
  notify_sessions_[registration] = session;

  response.type = MsgType::kNotifyResponse;
  response.ok = true;
  response.handle = registration;
  respond(session, response);
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
  const std::int64_t now_ns = space_->simulator().now().count_ns();
  for (Message& event : batch) {
    event.created_at_ns = now_ns;
    ++stats_.events_pushed;
    encode_buf_.clear();
    codec_->encode_into(event, encode_buf_);
    ++stats_.messages_encoded;
    stats_.bytes_encoded += encode_buf_.size();
    transport_->send(session, encode_buf_);
  }
}

void NodeCore::bind_metrics(obs::Registry& registry,
                            const std::string& prefix) {
  obs::Counter& requests = registry.counter(prefix + ".requests");
  obs::Counter& responses = registry.counter(prefix + ".responses");
  obs::Counter& events = registry.counter(prefix + ".events_pushed");
  obs::Counter& decode_errors = registry.counter(prefix + ".decode_errors");
  obs::Counter& doa = registry.counter(prefix + ".dead_on_arrival");
  obs::Counter& replayed = registry.counter(prefix + ".duplicates_replayed");
  obs::Counter& ignored = registry.counter(prefix + ".duplicates_ignored");
  obs::Counter& rejected = registry.counter(prefix + ".rejected_requests");
  obs::Counter& adm_queued = registry.counter(prefix + ".admission_queued");
  obs::Counter& overload = registry.counter(prefix + ".overload_rejects");
  obs::Counter& flushes =
      registry.counter(prefix + ".notify_batch_flushes");
  obs::Counter& misroutes = registry.counter(prefix + ".misroute_rejects");
  obs::Counter& unknown = registry.counter(prefix + ".unknown_frames");
  obs::Counter& enc_msgs = registry.counter(prefix + ".codec.messages_encoded");
  obs::Counter& enc_bytes = registry.counter(prefix + ".codec.bytes_encoded");
  obs::Counter& dec_msgs = registry.counter(prefix + ".codec.messages_decoded");
  obs::Counter& dec_bytes = registry.counter(prefix + ".codec.bytes_decoded");
  obs::Gauge& oplog_records = registry.gauge(prefix + ".oplog_records");
  obs::Gauge& mappings = registry.gauge(prefix + ".ticket_mappings");
  obs::Gauge& standby_buffered = registry.gauge(prefix + ".standby_buffered");
  registry.add_collector([this, &requests, &responses, &events, &decode_errors,
                          &doa, &replayed, &ignored, &rejected, &adm_queued,
                          &overload, &flushes, &misroutes, &unknown,
                          &enc_msgs, &enc_bytes, &dec_msgs, &dec_bytes,
                          &oplog_records, &mappings, &standby_buffered] {
    requests.set(stats_.requests);
    responses.set(stats_.responses);
    events.set(stats_.events_pushed);
    decode_errors.set(stats_.decode_errors);
    doa.set(stats_.dead_on_arrival);
    replayed.set(stats_.duplicates_replayed);
    ignored.set(stats_.duplicates_ignored);
    rejected.set(stats_.rejected_requests);
    adm_queued.set(stats_.admission_queued);
    overload.set(stats_.overload_rejects);
    flushes.set(stats_.notify_batch_flushes);
    misroutes.set(stats_.misroute_rejects);
    unknown.set(stats_.unknown_frames);
    enc_msgs.set(stats_.messages_encoded);
    enc_bytes.set(stats_.bytes_encoded);
    dec_msgs.set(stats_.messages_decoded);
    dec_bytes.set(stats_.bytes_decoded);
    oplog_records.set(static_cast<double>(oplog_.size()));
    mappings.set(static_cast<double>(ticket_of_id_.size()));
    standby_buffered.set(static_cast<double>(repl_buffer_.size()));
  });
}

void NodeCore::handle_renew(SessionId session, const Message& request) {
  Message response;
  response.type = MsgType::kRenewResponse;
  response.request_id = request.request_id;
  const std::optional<space::Lease> lease =
      space_->renew(request.handle, duration_of(request.duration_ns));
  response.ok = lease.has_value();
  if (lease) {
    response.handle = lease->id;
    response.expires_at_ns = lease->expires_at == sim::Time::max()
                                 ? INT64_MAX
                                 : lease->expires_at.count_ns();
  } else {
    // Already expired, taken, or never existed: renewal has nothing to
    // extend.
    response.status = static_cast<std::uint8_t>(util::StatusCode::kNotFound);
  }
  respond(session, response);
}

void NodeCore::handle_cancel(SessionId session, const Message& request) {
  Message response;
  response.type = MsgType::kCancelResponse;
  response.request_id = request.request_id;
  // Space ids are globally unique, so try tuples first, then notify
  // registrations.
  if (space_->cancel(request.handle)) {
    response.ok = true;
  } else if (space_->cancel_notify(request.handle)) {
    notify_sessions_.erase(request.handle);
    response.ok = true;
  } else {
    response.ok = false;
    response.status = static_cast<std::uint8_t>(util::StatusCode::kNotFound);
  }
  respond(session, response);
}

}  // namespace tb::mw
