#include "src/mw/client.hpp"

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace tb::mw {

SpaceClient::SpaceClient(sim::Simulator& sim, ClientTransport& transport,
                         const Codec& codec, ClientConfig config)
    : sim_(&sim), transport_(&transport), codec_(&codec), config_(config) {
  transport_->on_message().connect(
      [this](std::span<const std::uint8_t> bytes) { handle_bytes(bytes); });
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

void SpaceClient::call_async(
    Message request, std::function<void(std::optional<Message>)> on_done) {
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
  registry.mirror(prefix, stats_,
                  {{".rpc.calls", &Stats::calls},
                   {".rpc.completed", &Stats::completed},
                   {".rpc.timeouts", &Stats::rpc_timeouts},
                   {".rpc.failures", &Stats::rpc_failures},
                   {".rpc.retransmissions", &Stats::retransmissions},
                   {".rpc.retryable_rejects", &Stats::retryable_rejects},
                   {".events", &Stats::events},
                   {".decode_errors", &Stats::decode_errors},
                   {".stray_responses", &Stats::stray_responses},
                   {".codec.messages_encoded", &Stats::messages_encoded},
                   {".codec.bytes_encoded", &Stats::bytes_encoded},
                   {".codec.messages_decoded", &Stats::messages_decoded},
                   {".codec.bytes_decoded", &Stats::bytes_decoded}});
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
    result.lease.expires_at = sim::Time::ns(response->expires_at_ns);
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
  request.duration_ns = lease_duration.count_ns();
  request.txn = txn;
  call_async(std::move(request), [future](std::optional<Message> response) {
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
  request.duration_ns = timeout.count_ns();
  request.txn = txn;
  call_async(std::move(request), [future](std::optional<Message> response) {
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
  call_async(std::move(request), [future](std::optional<Message> response) {
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
  request.duration_ns = lease_duration.count_ns();
  std::optional<Message> response = co_await rpc_async(std::move(request));
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
  request.duration_ns = extension.count_ns();
  std::optional<Message> response = co_await rpc_async(std::move(request));
  if (!response || response->type != MsgType::kRenewResponse || !response->ok) {
    co_return std::nullopt;
  }
  space::Lease lease;
  lease.id = response->handle;
  lease.expires_at = sim::Time::ns(response->expires_at_ns);
  co_return lease;
}

sim::Task<std::optional<std::uint64_t>> SpaceClient::begin_transaction(
    sim::Time timeout) {
  Message request;
  request.type = MsgType::kTxnBeginRequest;
  request.duration_ns = timeout.count_ns();
  std::optional<Message> response = co_await rpc_async(std::move(request));
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
  std::optional<Message> response = co_await rpc_async(std::move(request));
  co_return response && response->type == MsgType::kTxnResolveResponse &&
      response->ok;
}

sim::Task<bool> SpaceClient::abort(std::uint64_t txn) {
  Message request;
  request.type = MsgType::kTxnAbortRequest;
  request.handle = txn;
  std::optional<Message> response = co_await rpc_async(std::move(request));
  co_return response && response->type == MsgType::kTxnResolveResponse &&
      response->ok;
}

sim::Task<bool> SpaceClient::cancel(std::uint64_t handle) {
  Message request;
  request.type = MsgType::kCancelRequest;
  request.handle = handle;
  std::optional<Message> response = co_await rpc_async(std::move(request));
  const bool ok =
      response && response->type == MsgType::kCancelResponse && response->ok;
  if (ok) event_callbacks_.erase(handle);
  co_return ok;
}

}  // namespace tb::mw
