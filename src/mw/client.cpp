#include "src/mw/client.hpp"

#include <climits>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace tb::mw {

SpaceClient::SpaceClient(sim::Simulator& sim, ClientTransport& transport,
                         const Codec& codec, ClientConfig config)
    : sim_(&sim), transport_(&transport), codec_(&codec), config_(config) {
  transport_->on_message().connect(
      [this](std::span<const std::uint8_t> bytes) { handle_bytes(bytes); });
}

std::int64_t SpaceClient::duration_ns_of(sim::Time t) {
  return t == space::kLeaseForever ? INT64_MAX : t.count_ns();
}

void SpaceClient::handle_bytes(std::span<const std::uint8_t> bytes) {
  std::optional<Message> message = codec_->decode(bytes);
  if (!message) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.messages_decoded;
  stats_.bytes_decoded += bytes.size();
  if (message->type == MsgType::kEvent) {
    ++stats_.events;
    auto it = event_callbacks_.find(message->handle);
    if (it != event_callbacks_.end() && message->tuple) {
      it->second(*message->tuple);
    }
    return;
  }
  auto it = pending_.find(message->request_id);
  if (it == pending_.end()) {
    ++stats_.stray_responses;
    return;
  }
  if (message->type == MsgType::kError && message->status != 0 &&
      util::Status(static_cast<util::StatusCode>(message->status), "")
          .retryable() &&
      it->second.retries_left > 0 &&
      config_.rpc_timeout != space::kLeaseForever) {
    // Typed retryable reject (RESOURCE_EXHAUSTED load shed, UNAVAILABLE):
    // leave the call pending and let the armed timeout retransmit with
    // backoff — the same budget and cadence as a lost response, which
    // de-phases the retry from the overload window instead of hammering
    // the server the instant it says "no".
    ++stats_.retryable_rejects;
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  sim_->cancel(pending.timeout_event);
  ++stats_.completed;
  if (rpc_latency_ns_) {
    rpc_latency_ns_->record(
        static_cast<std::uint64_t>((sim_->now() - pending.started).count_ns()));
  }
  // Decouple from the transport's delivery stack (it may be deep inside a
  // bus-relay coroutine).
  sim_->schedule_in(sim::Time::zero(),
                    [complete = std::move(pending.complete),
                     m = std::move(*message)]() mutable {
                      complete(std::move(m));
                    });
}

void SpaceClient::arm_timeout(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  TB_ASSERT(it != pending_.end());
  it->second.timeout_event =
      sim_->schedule_in(it->second.next_timeout, [this, request_id] {
        auto pos = pending_.find(request_id);
        TB_ASSERT(pos != pending_.end());
        ++stats_.rpc_timeouts;
        if (pos->second.retries_left > 0) {
          --pos->second.retries_left;
          ++stats_.retransmissions;
          pos->second.next_timeout =
              pos->second.next_timeout.scaled(config_.rpc_backoff);
          transport_->send(pos->second.encoded);  // same bytes, same id
          arm_timeout(request_id);
          return;
        }
        ++stats_.rpc_failures;
        auto complete = std::move(pos->second.complete);
        pending_.erase(pos);
        complete(std::nullopt);
      });
}

void SpaceClient::call(Message request,
                       std::function<void(std::optional<Message>)> on_done) {
  request.request_id = next_request_id_++;
  request.created_at_ns = sim_->now().count_ns();
  ++stats_.calls;

  Pending pending;
  pending.complete = std::move(on_done);
  codec_->encode_into(request, pending.encoded);
  pending.retries_left = config_.rpc_retries;
  pending.next_timeout = config_.rpc_timeout;
  pending.started = sim_->now();
  ++stats_.messages_encoded;
  stats_.bytes_encoded += pending.encoded.size();
  const std::uint64_t id = request.request_id;
  // The bytes persist in the pending map for retransmission; the transport
  // reads them through a span during send, so no wire copy is made here.
  auto [pos, inserted] = pending_.emplace(id, std::move(pending));
  TB_ASSERT(inserted);
  if (config_.rpc_timeout != space::kLeaseForever) arm_timeout(id);
  transport_->send(pos->second.encoded);
}

void SpaceClient::bind_metrics(obs::Registry& registry,
                               const std::string& prefix) {
  rpc_latency_ns_ = &registry.histogram(prefix + ".rpc_ns");
  obs::Counter& calls = registry.counter(prefix + ".rpc.calls");
  obs::Counter& completed = registry.counter(prefix + ".rpc.completed");
  obs::Counter& timeouts = registry.counter(prefix + ".rpc.timeouts");
  obs::Counter& failures = registry.counter(prefix + ".rpc.failures");
  obs::Counter& retransmissions =
      registry.counter(prefix + ".rpc.retransmissions");
  obs::Counter& rejects =
      registry.counter(prefix + ".rpc.retryable_rejects");
  obs::Counter& events = registry.counter(prefix + ".events");
  obs::Counter& decode_errors = registry.counter(prefix + ".decode_errors");
  obs::Counter& strays = registry.counter(prefix + ".stray_responses");
  obs::Counter& enc_msgs = registry.counter(prefix + ".codec.messages_encoded");
  obs::Counter& enc_bytes = registry.counter(prefix + ".codec.bytes_encoded");
  obs::Counter& dec_msgs = registry.counter(prefix + ".codec.messages_decoded");
  obs::Counter& dec_bytes = registry.counter(prefix + ".codec.bytes_decoded");
  registry.add_collector([this, &calls, &completed, &timeouts, &failures,
                          &retransmissions, &rejects, &events, &decode_errors,
                          &strays, &enc_msgs, &enc_bytes, &dec_msgs,
                          &dec_bytes] {
    calls.set(stats_.calls);
    completed.set(stats_.completed);
    timeouts.set(stats_.rpc_timeouts);
    failures.set(stats_.rpc_failures);
    retransmissions.set(stats_.retransmissions);
    rejects.set(stats_.retryable_rejects);
    events.set(stats_.events);
    decode_errors.set(stats_.decode_errors);
    strays.set(stats_.stray_responses);
    enc_msgs.set(stats_.messages_encoded);
    enc_bytes.set(stats_.bytes_encoded);
    dec_msgs.set(stats_.messages_decoded);
    dec_bytes.set(stats_.bytes_decoded);
  });
}

// Outside the unnamed namespace: SpaceClient befriends mw::RpcAwaiter so it
// can reach the private call().
struct RpcAwaiter {
  SpaceClient& client;
  Message request;
  std::optional<Message> response;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    client.call(std::move(request), [this, h](std::optional<Message> r) {
      response = std::move(r);
      sim::resume_nested(h);
    });
  }
  std::optional<Message> await_resume() { return std::move(response); }
};

auto SpaceClient::rpc(Message request) {
  return RpcAwaiter{*this, std::move(request), std::nullopt};
}

util::Status SpaceClient::status_of(const std::optional<Message>& response,
                                    MsgType expected) {
  if (!response) {
    // The rpc machinery gave up: timeout with the retry budget spent, or
    // no timeout configured and the transport went dark.
    return util::Unavailable("rpc failed");
  }
  if (response->status != 0) {
    return util::Status(static_cast<util::StatusCode>(response->status),
                        response->error);
  }
  if (response->type != expected) {
    return util::Aborted(response->error.empty() ? "unexpected response type"
                                                 : response->error);
  }
  return util::OkStatus();
}

SpaceClient::WriteResult SpaceClient::write_result_of(
    const std::optional<Message>& response) {
  WriteResult result;
  result.status = status_of(response, MsgType::kWriteResponse);
  if (result.status.ok() && response->ok) {
    result.ok = true;
    result.lease.id = response->handle;
    result.lease.expires_at = response->expires_at_ns == INT64_MAX
                                  ? sim::Time::max()
                                  : sim::Time::ns(response->expires_at_ns);
  }
  return result;
}

SpaceClient::MatchResult SpaceClient::match_result_of(
    std::optional<Message> response) {
  MatchResult result;
  result.status = status_of(response, MsgType::kMatchResponse);
  // DEADLINE_EXCEEDED still answers the match: the deadline passing IS
  // the (empty) outcome of a blocking op, not a malfunction.
  if (result.status.ok() && response->ok) {
    result.tuple = std::move(response->tuple);
  }
  return result;
}

RpcFuture<SpaceClient::WriteResult> SpaceClient::write_async(
    space::Tuple tuple, sim::Time lease_duration, std::uint64_t txn) {
  RpcFuture<WriteResult> future;
  Message request;
  request.type = MsgType::kWriteRequest;
  request.tuple = std::move(tuple);
  request.duration_ns = duration_ns_of(lease_duration);
  request.txn = txn;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(write_result_of(response));
  });
  return future;
}

RpcFuture<SpaceClient::MatchResult> SpaceClient::match_async(
    MsgType type, space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  RpcFuture<MatchResult> future;
  Message request;
  request.type = type;
  request.tmpl = std::move(tmpl);
  request.duration_ns = duration_ns_of(timeout);
  request.txn = txn;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(match_result_of(std::move(response)));
  });
  return future;
}

RpcFuture<SpaceClient::MatchResult> SpaceClient::take_match_async(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  return match_async(MsgType::kTakeRequest, std::move(tmpl), timeout, txn);
}

RpcFuture<SpaceClient::MatchResult> SpaceClient::read_match_async(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  return match_async(MsgType::kReadRequest, std::move(tmpl), timeout, txn);
}

RpcFuture<std::optional<Message>> SpaceClient::rpc_async(Message request) {
  RpcFuture<std::optional<Message>> future;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(std::move(response));
  });
  return future;
}

sim::Task<SpaceClient::WriteResult> SpaceClient::write(
    space::Tuple tuple, sim::Time lease_duration, std::uint64_t txn) {
  co_return co_await write_async(std::move(tuple), lease_duration, txn);
}

sim::Task<std::optional<space::Tuple>> SpaceClient::take(space::Template tmpl,
                                                         sim::Time timeout,
                                                         std::uint64_t txn) {
  // No co_await inside a larger expression (GCC 12 miscompiles some).
  MatchResult result = co_await take_match_async(std::move(tmpl), timeout, txn);
  co_return std::move(result.tuple);
}

sim::Task<std::optional<space::Tuple>> SpaceClient::read(space::Template tmpl,
                                                         sim::Time timeout,
                                                         std::uint64_t txn) {
  MatchResult result = co_await read_match_async(std::move(tmpl), timeout, txn);
  co_return std::move(result.tuple);
}

sim::Task<std::optional<std::uint64_t>> SpaceClient::notify(
    space::Template tmpl, sim::Time lease_duration, EventCallback callback) {
  TB_REQUIRE(callback != nullptr);
  Message request;
  request.type = MsgType::kNotifyRequest;
  request.tmpl = std::move(tmpl);
  request.duration_ns = duration_ns_of(lease_duration);
  std::optional<Message> response = co_await rpc(std::move(request));
  if (!response || response->type != MsgType::kNotifyResponse || !response->ok) {
    co_return std::nullopt;
  }
  event_callbacks_[response->handle] = std::move(callback);
  co_return response->handle;
}

sim::Task<std::optional<space::Lease>> SpaceClient::renew(
    std::uint64_t lease_id, sim::Time extension) {
  Message request;
  request.type = MsgType::kRenewRequest;
  request.handle = lease_id;
  request.duration_ns = duration_ns_of(extension);
  std::optional<Message> response = co_await rpc(std::move(request));
  if (!response || response->type != MsgType::kRenewResponse || !response->ok) {
    co_return std::nullopt;
  }
  space::Lease lease;
  lease.id = response->handle;
  lease.expires_at = response->expires_at_ns == INT64_MAX
                         ? sim::Time::max()
                         : sim::Time::ns(response->expires_at_ns);
  co_return lease;
}

sim::Task<std::optional<std::uint64_t>> SpaceClient::begin_transaction(
    sim::Time timeout) {
  Message request;
  request.type = MsgType::kTxnBeginRequest;
  request.duration_ns = duration_ns_of(timeout);
  std::optional<Message> response = co_await rpc(std::move(request));
  if (!response || response->type != MsgType::kTxnBeginResponse ||
      !response->ok) {
    co_return std::nullopt;
  }
  co_return response->handle;
}

sim::Task<bool> SpaceClient::commit(std::uint64_t txn) {
  Message request;
  request.type = MsgType::kTxnCommitRequest;
  request.handle = txn;
  std::optional<Message> response = co_await rpc(std::move(request));
  co_return response && response->type == MsgType::kTxnResolveResponse &&
      response->ok;
}

sim::Task<bool> SpaceClient::abort(std::uint64_t txn) {
  Message request;
  request.type = MsgType::kTxnAbortRequest;
  request.handle = txn;
  std::optional<Message> response = co_await rpc(std::move(request));
  co_return response && response->type == MsgType::kTxnResolveResponse &&
      response->ok;
}

sim::Task<bool> SpaceClient::cancel(std::uint64_t handle) {
  Message request;
  request.type = MsgType::kCancelRequest;
  request.handle = handle;
  std::optional<Message> response = co_await rpc(std::move(request));
  const bool ok =
      response && response->type == MsgType::kCancelResponse && response->ok;
  if (ok) event_callbacks_.erase(handle);
  co_return ok;
}

}  // namespace tb::mw
