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
  obs::Counter& coalesced = registry.counter(prefix + ".coalesced_writes");
  obs::Counter& batches = registry.counter(prefix + ".write_batches");
  obs::Counter& enc_msgs = registry.counter(prefix + ".codec.messages_encoded");
  obs::Counter& enc_bytes = registry.counter(prefix + ".codec.bytes_encoded");
  obs::Counter& dec_msgs = registry.counter(prefix + ".codec.messages_decoded");
  obs::Counter& dec_bytes = registry.counter(prefix + ".codec.bytes_decoded");
  registry.add_collector([this, &calls, &completed, &timeouts, &failures,
                          &retransmissions, &rejects, &events, &decode_errors,
                          &strays, &coalesced, &batches, &enc_msgs, &enc_bytes,
                          &dec_msgs, &dec_bytes] {
    calls.set(stats_.calls);
    completed.set(stats_.completed);
    timeouts.set(stats_.rpc_timeouts);
    failures.set(stats_.rpc_failures);
    retransmissions.set(stats_.retransmissions);
    rejects.set(stats_.retryable_rejects);
    events.set(stats_.events);
    decode_errors.set(stats_.decode_errors);
    strays.set(stats_.stray_responses);
    coalesced.set(stats_.coalesced_writes);
    batches.set(stats_.write_batches);
    enc_msgs.set(stats_.messages_encoded);
    enc_bytes.set(stats_.bytes_encoded);
    dec_msgs.set(stats_.messages_decoded);
    dec_bytes.set(stats_.bytes_decoded);
  });
}

namespace {

struct RpcAwaiter {
  SpaceClient& client;
  Message request;
  void (SpaceClient::*do_call)(Message,
                               std::function<void(std::optional<Message>)>);
  std::optional<Message> response;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    (client.*do_call)(std::move(request),
                      [this, h](std::optional<Message> r) {
                        response = std::move(r);
                        sim::resume_nested(h);
                      });
  }
  std::optional<Message> await_resume() { return std::move(response); }
};

}  // namespace

auto SpaceClient::rpc(Message request) {
  return RpcAwaiter{*this, std::move(request), &SpaceClient::call, std::nullopt};
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
  if (response) result.epoch = response->epoch;
  if (result.status.ok() && response->ok) {
    result.ok = true;
    result.lease.id = response->handle;
    result.lease.expires_at = response->expires_at_ns == INT64_MAX
                                  ? sim::Time::max()
                                  : sim::Time::ns(response->expires_at_ns);
  }
  return result;
}

std::optional<space::Tuple> SpaceClient::match_result_of(
    std::optional<Message> response) {
  if (!response || response->type != MsgType::kMatchResponse || !response->ok) {
    return std::nullopt;
  }
  return std::move(response->tuple);
}

SpaceClient::MatchResult SpaceClient::typed_match_result_of(
    std::optional<Message> response) {
  MatchResult result;
  result.status = status_of(response, MsgType::kMatchResponse);
  if (response) result.epoch = response->epoch;
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
  if (config_.write_coalesce_max > 1 && txn == space::kNoTxn) {
    ++stats_.coalesced_writes;
    write_buffer_.push_back(BufferedWrite{
        std::move(tuple), duration_ns_of(lease_duration), future});
    if (static_cast<int>(write_buffer_.size()) >= config_.write_coalesce_max) {
      flush_writes();  // full batch: no point waiting out the turn
    } else if (!flush_scheduled_) {
      // Flush at the end of the current event turn, so writes issued
      // back-to-back share one wire message without delaying anything by
      // simulated time.
      flush_scheduled_ = true;
      sim_->schedule_in(sim::Time::zero(), [this] {
        flush_scheduled_ = false;
        flush_writes();
      });
    }
    return future;
  }
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

void SpaceClient::flush_writes() {
  if (write_buffer_.empty()) return;
  std::vector<BufferedWrite> batch = std::move(write_buffer_);
  write_buffer_.clear();
  ++stats_.write_batches;

  if (batch.size() == 1) {
    // Degrade: a solitary buffered write goes out in the pre-batch wire
    // format, byte-identical to an uncoalesced client's.
    Message request;
    request.type = MsgType::kWriteRequest;
    request.tuple = std::move(batch.front().tuple);
    request.duration_ns = batch.front().duration_ns;
    call(std::move(request),
         [future = batch.front().future](std::optional<Message> response) {
           future.resolve(write_result_of(response));
         });
    return;
  }

  Message request;
  request.type = MsgType::kWriteBatchRequest;
  request.batch_tuples.reserve(batch.size());
  request.batch_durations.reserve(batch.size());
  std::vector<RpcFuture<WriteResult>> futures;
  futures.reserve(batch.size());
  for (BufferedWrite& buffered : batch) {
    request.batch_tuples.push_back(std::move(buffered.tuple));
    request.batch_durations.push_back(buffered.duration_ns);
    futures.push_back(std::move(buffered.future));
  }
  // One call() covers the whole batch: a single request id, one timeout/
  // retransmission budget, and the server's duplicate cache keeps the batch
  // exactly-once like any other request. Failure fails every member.
  call(std::move(request),
       [futures = std::move(futures)](std::optional<Message> response) {
         const bool ok = response &&
                         response->type == MsgType::kWriteBatchResponse &&
                         response->ok &&
                         response->batch_handles.size() == futures.size() &&
                         response->batch_expires.size() == futures.size();
         util::Status failure;
         if (!ok) {
           failure = status_of(response, MsgType::kWriteBatchResponse);
           if (failure.ok()) failure = util::Aborted("malformed batch response");
         }
         for (std::size_t i = 0; i < futures.size(); ++i) {
           WriteResult result;
           result.status = failure;
           if (ok) {
             result.ok = true;
             result.lease.id = response->batch_handles[i];
             result.lease.expires_at =
                 response->batch_expires[i] == INT64_MAX
                     ? sim::Time::max()
                     : sim::Time::ns(response->batch_expires[i]);
           }
           futures[i].resolve(std::move(result));
         }
       });
}

RpcFuture<std::optional<space::Tuple>> SpaceClient::take_async(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  RpcFuture<std::optional<space::Tuple>> future;
  Message request;
  request.type = MsgType::kTakeRequest;
  request.tmpl = std::move(tmpl);
  request.duration_ns = duration_ns_of(timeout);
  request.txn = txn;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(match_result_of(std::move(response)));
  });
  return future;
}

RpcFuture<std::optional<space::Tuple>> SpaceClient::read_async(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  RpcFuture<std::optional<space::Tuple>> future;
  Message request;
  request.type = MsgType::kReadRequest;
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
  RpcFuture<MatchResult> future;
  Message request;
  request.type = MsgType::kTakeRequest;
  request.tmpl = std::move(tmpl);
  request.duration_ns = duration_ns_of(timeout);
  request.txn = txn;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(typed_match_result_of(std::move(response)));
  });
  return future;
}

RpcFuture<SpaceClient::MatchResult> SpaceClient::read_match_async(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  RpcFuture<MatchResult> future;
  Message request;
  request.type = MsgType::kReadRequest;
  request.tmpl = std::move(tmpl);
  request.duration_ns = duration_ns_of(timeout);
  request.txn = txn;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(typed_match_result_of(std::move(response)));
  });
  return future;
}

RpcFuture<std::optional<Message>> SpaceClient::rpc_async(Message request) {
  RpcFuture<std::optional<Message>> future;
  call(std::move(request), [future](std::optional<Message> response) {
    future.resolve(std::move(response));
  });
  return future;
}

sim::Task<SpaceClient::MatchResult> SpaceClient::take_match(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  co_return co_await take_match_async(std::move(tmpl), timeout, txn);
}

sim::Task<SpaceClient::MatchResult> SpaceClient::read_match(
    space::Template tmpl, sim::Time timeout, std::uint64_t txn) {
  co_return co_await read_match_async(std::move(tmpl), timeout, txn);
}

sim::Task<SpaceClient::WriteResult> SpaceClient::write(
    space::Tuple tuple, sim::Time lease_duration, std::uint64_t txn) {
  co_return co_await write_async(std::move(tuple), lease_duration, txn);
}

sim::Task<std::optional<space::Tuple>> SpaceClient::take(space::Template tmpl,
                                                         sim::Time timeout,
                                                         std::uint64_t txn) {
  co_return co_await take_async(std::move(tmpl), timeout, txn);
}

sim::Task<std::optional<space::Tuple>> SpaceClient::read(space::Template tmpl,
                                                         sim::Time timeout,
                                                         std::uint64_t txn) {
  co_return co_await read_async(std::move(tmpl), timeout, txn);
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
