// Pipelined request dispatch (DESIGN.md §10): multiple outstanding requests
// per connection, out-of-order replies matched by request id, request-id
// validation, and the server-wide service-slot bound with its admission
// queue (DESIGN.md §12).
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
  auto take = client_.take_match_async(any_named("blocked", 1), 10_s);
  auto read = client_.read_match_async(any_named("ready", 1), 1_s);

  bool checked = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto got = co_await read;
    CO_ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.tuple->fields[0], space::Value(7));
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
  ASSERT_TRUE(take.get().ok());
  EXPECT_EQ(take.get().tuple->fields[0], space::Value(1));
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

class OneSlotTest : public PipelineTest {
 protected:
  OneSlotTest() : PipelineTest(ServerConfig{.max_service_slots = 1}) {}
};

TEST_F(OneSlotTest, SlotBoundSerializesServiceStage) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));

  auto first = client_.read_match_async(any_named("a", 1), 1_s);
  auto second = client_.read_match_async(any_named("b", 1), 1_s);
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
  EXPECT_EQ(server_.stats().admission_queued, 1u);
  EXPECT_EQ(server_.peak_in_service(), 1u);
}

TEST_F(OneSlotTest, ParkedTakeDoesNotHoldItsServiceSlot) {
  // A blocking take with no match parks inside the space engine; the
  // service slot must free immediately so the next request can answer.
  auto take = client_.take_match_async(any_named("nothing", 1), 10_s);
  auto read =
      client_.read_match_async(any_named("nothing", 1), sim::Time::zero());
  bool read_done = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto got = co_await read;
    EXPECT_TRUE(got.status.ok());
    EXPECT_FALSE(got.tuple.has_value());
    read_done = true;
  });
  sim_.run_until(100_ms);
  ASSERT_TRUE(read_done);
  EXPECT_FALSE(take.done());
  EXPECT_EQ(space_.blocked_operations(), 1u);
}

TEST_F(PipelineTest, UnboundedSlotsServeConcurrently) {
  space_.write(space::make_tuple("a", space::Value(1)));
  space_.write(space::make_tuple("b", space::Value(2)));
  auto first = client_.read_match_async(any_named("a", 1), 1_s);
  auto second = client_.read_match_async(any_named("b", 1), 1_s);
  std::vector<sim::Time> completions;
  sim::spawn([&]() -> sim::Task<void> {
    (void)co_await first;
    completions.push_back(sim_.now());
    (void)co_await second;
    completions.push_back(sim_.now());
  });
  sim_.run();
  // No slot bound: both service stages overlap, both answer at 12 ms.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 12_ms);
  EXPECT_EQ(completions[1], 12_ms);
  EXPECT_EQ(server_.stats().admission_queued, 0u);
  EXPECT_EQ(server_.peak_in_service(), 2u);
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
