// Pipelined request dispatch (DESIGN.md §10): multiple outstanding requests
// per connection, out-of-order replies matched by request id, the
// pipeline_depth service-stage bound, request-id validation, and write
// coalescing into kWriteBatchRequest.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "co_gtest.hpp"
#include "src/mw/client.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/sim/process.hpp"

namespace tb::mw {
namespace {

using namespace tb::sim::literals;

space::Template any_named(const std::string& name, std::size_t arity) {
  std::vector<space::FieldPattern> fields(arity, space::FieldPattern::any());
  return space::Template(name, std::move(fields));
}

class PipelineTest : public ::testing::Test {
 protected:
  explicit PipelineTest(ServerConfig server_config = {},
                        ClientConfig client_config = {})
      : space_(sim_),
        hub_(sim_, /*one_way_delay=*/5_ms),
        server_(space_, hub_, codec_, server_config),
        client_transport_(hub_.create_client()),
        client_(sim_, client_transport_, codec_, client_config) {}

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  XmlCodec codec_;
  LoopbackHub hub_;
  NodeCore server_;
  LoopbackClient& client_transport_;
  SpaceClient client_;
};

TEST_F(PipelineTest, LaterReadAnswersWhileBlockingTakeIsParked) {
  space_.write(space::make_tuple("ready", space::Value(7)));

  // The take has no match and parks inside the space; the read issued after
  // it must answer first — replies are matched by id, not arrival order.
  auto take = client_.take_async(any_named("blocked", 1), 10_s);
  auto read = client_.read_async(any_named("ready", 1), 1_s);

  bool checked = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto got = co_await read;
    CO_ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->fields[0], space::Value(7));
    EXPECT_FALSE(take.done());  // still parked server-side
    checked = true;
  });
  sim_.run_until(400_ms);
  ASSERT_TRUE(checked);
  EXPECT_FALSE(take.done());

  // A second client's write releases the parked take.
  SpaceClient writer(sim_, hub_.create_client(), codec_);
  sim::spawn([&]() -> sim::Task<void> {
    (void)co_await writer.write(space::make_tuple("blocked", space::Value(1)),
                                space::kLeaseForever);
  });
  sim_.run();
  ASSERT_TRUE(take.done());
  ASSERT_TRUE(take.get().has_value());
  EXPECT_EQ(take.get()->fields[0], space::Value(1));
}

TEST_F(PipelineTest, RequestIdZeroIsRejectedNotCached) {
  // Id 0 is uncorrelatable (the duplicate cache and reply matching key on
  // it), so the server answers kError without admitting the request.
  Message bogus;
  bogus.type = MsgType::kReadRequest;
  bogus.request_id = 0;
  bogus.tmpl = any_named("x", 1);
  const auto bytes = codec_.encode(bogus);
  client_transport_.send(std::span<const std::uint8_t>(bytes));
  sim_.run();

  EXPECT_EQ(server_.stats().rejected_requests, 1u);
  EXPECT_EQ(server_.stats().requests, 0u);  // never admitted
  EXPECT_EQ(space_.stats().reads, 0u);
  // The kError reply carries id 0 too; no pending call matches it.
  EXPECT_EQ(client_.stats().stray_responses, 1u);
}

class DepthOneTest : public PipelineTest {
 protected:
  DepthOneTest() : PipelineTest(ServerConfig{.pipeline_depth = 1}) {}
};

TEST_F(DepthOneTest, DepthBoundSerializesServiceStage) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));

  auto first = client_.read_async(any_named("a", 1), 1_s);
  auto second = client_.read_async(any_named("b", 1), 1_s);
  std::vector<sim::Time> completions;
  sim::spawn([&]() -> sim::Task<void> {
    (void)co_await first;
    completions.push_back(sim_.now());
    (void)co_await second;
    completions.push_back(sim_.now());
  });
  sim_.run();

  // Both requests arrive together (same send turn, same delay); with one
  // service slot the second waits out the first's 2 ms service stage.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 12_ms);
  EXPECT_EQ(completions[1], 14_ms);
  EXPECT_EQ(server_.stats().pipeline_queued, 1u);
  EXPECT_EQ(server_.peak_in_service(), 1u);
}

TEST_F(DepthOneTest, ParkedTakeDoesNotHoldItsServiceSlot) {
  // A blocking take with no match parks inside the space engine; the
  // service slot must free immediately so the next request can answer.
  auto take = client_.take_async(any_named("nothing", 1), 10_s);
  auto read = client_.read_async(any_named("nothing", 1), sim::Time::zero());
  bool read_done = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto got = co_await read;
    EXPECT_FALSE(got.has_value());
    read_done = true;
  });
  sim_.run_until(100_ms);
  ASSERT_TRUE(read_done);
  EXPECT_FALSE(take.done());
  EXPECT_EQ(space_.blocked_operations(), 1u);
}

TEST_F(PipelineTest, UnboundedDepthServesConcurrently) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));
  auto first = client_.read_async(any_named("a", 1), 1_s);
  auto second = client_.read_async(any_named("b", 1), 1_s);
  std::vector<sim::Time> completions;
  sim::spawn([&]() -> sim::Task<void> {
    (void)co_await first;
    completions.push_back(sim_.now());
    (void)co_await second;
    completions.push_back(sim_.now());
  });
  sim_.run();
  // Legacy behavior: both service stages overlap, both answer at 12 ms.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 12_ms);
  EXPECT_EQ(completions[1], 12_ms);
  EXPECT_EQ(server_.stats().pipeline_queued, 0u);
  EXPECT_EQ(server_.peak_in_service(), 2u);
}

class CoalescingTest : public PipelineTest {
 protected:
  CoalescingTest()
      : PipelineTest(ServerConfig{}, ClientConfig{.write_coalesce_max = 8}) {}
};

TEST_F(CoalescingTest, SameTurnWritesShareOneBatchMessage) {
  auto w1 = client_.write_async(space::make_tuple("a", space::Value(1)),
                                space::kLeaseForever);
  auto w2 = client_.write_async(space::make_tuple("b", space::Value(2)),
                                space::kLeaseForever);
  auto w3 = client_.write_async(space::make_tuple("c", space::Value(3)), 1_s);
  sim_.run_until(100_ms);  // well past the round trip, before c's lease ends

  ASSERT_TRUE(w1.done());
  ASSERT_TRUE(w2.done());
  ASSERT_TRUE(w3.done());
  EXPECT_TRUE(w1.get().ok);
  EXPECT_TRUE(w2.get().ok);
  EXPECT_TRUE(w3.get().ok);
  // Three writes, one wire message, three distinct leases.
  EXPECT_EQ(client_.stats().coalesced_writes, 3u);
  EXPECT_EQ(client_.stats().write_batches, 1u);
  EXPECT_EQ(client_transport_.stats().messages_sent, 1u);
  EXPECT_EQ(server_.stats().requests, 1u);
  EXPECT_EQ(server_.stats().batched_writes, 3u);
  EXPECT_NE(w1.get().lease.id, w2.get().lease.id);
  EXPECT_NE(w2.get().lease.id, w3.get().lease.id);
  EXPECT_EQ(space_.size(), 3u);
  // The finite lease survived the batch: entry c expires, a and b stay.
  sim_.run_until(2_s);
  EXPECT_EQ(space_.size(), 2u);
}

TEST_F(CoalescingTest, SolitaryWriteDegradesToPlainRequest) {
  auto w = client_.write_async(space::make_tuple("solo", space::Value(1)),
                               space::kLeaseForever);
  sim_.run();
  ASSERT_TRUE(w.done());
  EXPECT_TRUE(w.get().ok);
  // A batch of one goes out as an ordinary kWriteRequest: the server sees
  // no batch at all.
  EXPECT_EQ(client_.stats().write_batches, 1u);
  EXPECT_EQ(server_.stats().batched_writes, 0u);
  EXPECT_EQ(server_.stats().requests, 1u);
  EXPECT_EQ(space_.size(), 1u);
}

TEST_F(CoalescingTest, FullBufferFlushesEarly) {
  std::vector<RpcFuture<SpaceClient::WriteResult>> futures;
  for (int i = 0; i < 9; ++i) {  // capacity 8: first flush is early
    futures.push_back(client_.write_async(
        space::make_tuple("t", space::Value(i)), space::kLeaseForever));
  }
  sim_.run();
  for (auto& f : futures) {
    ASSERT_TRUE(f.done());
    EXPECT_TRUE(f.get().ok);
  }
  EXPECT_EQ(client_.stats().write_batches, 2u);  // 8 + 1
  EXPECT_EQ(server_.stats().batched_writes, 8u);
  EXPECT_EQ(space_.size(), 9u);
}

TEST(BatchCodec, RoundTripsBothCodecs) {
  Message request;
  request.type = MsgType::kWriteBatchRequest;
  request.request_id = 99;
  request.created_at_ns = 1234;
  request.batch_tuples.push_back(space::make_tuple("a", space::Value(1)));
  request.batch_tuples.push_back(
      space::make_tuple("b", space::Value(2.5), space::Value("x")));
  request.batch_durations = {INT64_MAX, 5'000'000};

  Message response;
  response.type = MsgType::kWriteBatchResponse;
  response.request_id = 99;
  response.ok = true;
  response.batch_handles = {11, 0};
  response.batch_expires = {INT64_MAX, 777};

  const XmlCodec xml;
  const BinaryCodec binary;
  for (const Codec* codec : {static_cast<const Codec*>(&xml),
                             static_cast<const Codec*>(&binary)}) {
    auto req = codec->decode(codec->encode(request));
    ASSERT_TRUE(req.has_value()) << codec->name();
    EXPECT_EQ(*req, request) << codec->name();
    auto resp = codec->decode(codec->encode(response));
    ASSERT_TRUE(resp.has_value()) << codec->name();
    EXPECT_EQ(*resp, response) << codec->name();
  }
}

// --- admission control (DESIGN.md §12) --------------------------------------

class AdmissionTest : public PipelineTest {
 protected:
  AdmissionTest()
      : PipelineTest(ServerConfig{.max_service_slots = 1,
                                  .admission_queue_limit = 1}) {}
};

TEST_F(AdmissionTest, OverloadShedsTypedRetryableReject) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));
  space_.write(space::make_tuple("c", space::Value(3)));

  // Three requests in one turn against one service slot and one queue
  // seat: the first services, the second waits for the slot, the third is
  // shed. Default client config (no retries) surfaces the typed status.
  auto first = client_.read_match_async(any_named("a", 1), sim::Time::zero());
  auto second = client_.read_match_async(any_named("b", 1), sim::Time::zero());
  auto third = client_.read_match_async(any_named("c", 1), sim::Time::zero());
  std::vector<SpaceClient::MatchResult> results;
  sim::spawn([&]() -> sim::Task<void> {
    results.push_back(co_await first);
    results.push_back(co_await second);
    results.push_back(co_await third);
  });
  sim_.run();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].tuple.has_value());
  EXPECT_EQ(results[2].status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(results[2].status.retryable());
  EXPECT_EQ(server_.stats().admission_queued, 1u);
  EXPECT_EQ(server_.stats().overload_rejects, 1u);
}

class AdmissionRetryTest : public PipelineTest {
 protected:
  AdmissionRetryTest()
      : PipelineTest(ServerConfig{.max_service_slots = 1,
                                  .admission_queue_limit = 1},
                     ClientConfig{.rpc_timeout = 40_ms, .rpc_retries = 2}) {}
};

TEST_F(AdmissionRetryTest, ShedRequestRetransmitsAndCompletes) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));
  space_.write(space::make_tuple("c", space::Value(3)));

  // The shed third request stays pending client-side (typed retryable
  // reject + retries left + finite rpc_timeout) and retransmits on the
  // armed timeout; by then the overload has cleared and the same request
  // id re-enters admission — the reject was deliberately not cached.
  auto first = client_.read_match_async(any_named("a", 1), sim::Time::zero());
  auto second = client_.read_match_async(any_named("b", 1), sim::Time::zero());
  auto third = client_.read_match_async(any_named("c", 1), sim::Time::zero());
  std::vector<SpaceClient::MatchResult> results;
  sim::spawn([&]() -> sim::Task<void> {
    results.push_back(co_await first);
    results.push_back(co_await second);
    results.push_back(co_await third);
  });
  sim_.run();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(server_.stats().overload_rejects, 1u);
  EXPECT_EQ(client_.stats().retryable_rejects, 1u);
  EXPECT_GE(client_.stats().retransmissions, 1u);
  EXPECT_EQ(client_.stats().rpc_failures, 0u);
}

}  // namespace
}  // namespace tb::mw
