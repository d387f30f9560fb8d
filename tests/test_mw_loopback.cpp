// End-to-end client/server semantics over the loopback transport — the
// paper's pure-Java prototype stage (Figure 3).
#include <gtest/gtest.h>

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

class LoopbackTest : public ::testing::Test {
 protected:
  LoopbackTest()
      : space_(sim_),
        hub_(sim_, /*one_way_delay=*/5_ms),
        server_(space_, hub_, codec_),
        client_transport_(hub_.create_client()),
        client_(sim_, client_transport_, codec_) {}

  template <typename Fn>
  void drive(Fn&& body) {
    bool done = false;
    sim::spawn([&]() -> sim::Task<void> {
      co_await body();
      done = true;
    });
    sim_.run();
    ASSERT_TRUE(done);
  }

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  XmlCodec codec_;
  LoopbackHub hub_;
  NodeCore server_;
  LoopbackClient& client_transport_;
  SpaceClient client_;
};

TEST_F(LoopbackTest, WriteThenTakeRoundTrip) {
  drive([&]() -> sim::Task<void> {
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     space::kLeaseForever);
    EXPECT_TRUE(wr.ok);
    EXPECT_NE(wr.lease.id, 0u);

    auto taken = co_await client_.take(any_named("t", 1), 1_s);
    CO_ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->fields[0], space::Value(1));
  });
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(LoopbackTest, RoundTripTimeIncludesTransportAndService) {
  drive([&]() -> sim::Task<void> {
    (void)co_await client_.write(space::make_tuple("t", space::Value(1)),
                                 space::kLeaseForever);
    // 2x 5 ms transport + 2 ms service delay.
    EXPECT_EQ(sim_.now(), 12_ms);
  });
}

TEST_F(LoopbackTest, ReadLeavesEntry) {
  drive([&]() -> sim::Task<void> {
    (void)co_await client_.write(space::make_tuple("t", space::Value(7)),
                                 space::kLeaseForever);
    auto got = co_await client_.read(any_named("t", 1), 1_s);
    CO_ASSERT_TRUE(got.has_value());
  });
  EXPECT_EQ(space_.size(), 1u);
}

TEST_F(LoopbackTest, TakeMissReturnsNullAfterTimeout) {
  drive([&]() -> sim::Task<void> {
    const sim::Time start = sim_.now();
    auto got = co_await client_.take(any_named("missing", 1), 100_ms);
    EXPECT_FALSE(got.has_value());
    EXPECT_GE(sim_.now() - start, 100_ms);
  });
}

TEST_F(LoopbackTest, BlockedTakeWokenByLaterWrite) {
  // A second client writes while the first blocks in a take.
  LoopbackClient& transport2 = hub_.create_client();
  SpaceClient writer(sim_, transport2, codec_);
  std::optional<space::Tuple> got;
  sim::spawn([&]() -> sim::Task<void> {
    got = co_await client_.take(any_named("t", 1), 10_s);
  });
  sim::spawn([&]() -> sim::Task<void> {
    co_await sim::delay(sim_, 500_ms);
    (void)co_await writer.write(space::make_tuple("t", space::Value(3)),
                                space::kLeaseForever);
  });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], space::Value(3));
}

TEST_F(LoopbackTest, LeaseExpiresFromSendTime) {
  drive([&]() -> sim::Task<void> {
    (void)co_await client_.write(space::make_tuple("t", space::Value(1)), 100_ms);
    // Transit ate 7 ms (5 transport + 2 service): entry lives ~93 ms more.
    co_await sim::delay(sim_, 200_ms);
    auto got = co_await client_.take(any_named("t", 1), sim::Time::zero());
    EXPECT_FALSE(got.has_value());
  });
}

TEST_F(LoopbackTest, WriteWithLeaseShorterThanTransitIsDeadOnArrival) {
  drive([&]() -> sim::Task<void> {
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     5_ms);  // transit is 7 ms
    EXPECT_TRUE(wr.ok);             // acknowledged...
    EXPECT_EQ(wr.lease.id, 0u);     // ...but never stored
  });
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_EQ(server_.stats().dead_on_arrival, 1u);
}

TEST_F(LoopbackTest, NotifyPushesEvents) {
  std::vector<space::Tuple> events;
  drive([&]() -> sim::Task<void> {
    auto reg = co_await client_.notify(
        any_named("alarm", 1), space::kLeaseForever,
        [&](const space::Tuple& t) { events.push_back(t); });
    CO_ASSERT_TRUE(reg.has_value());
    (void)co_await client_.write(space::make_tuple("alarm", space::Value(9)),
                                 space::kLeaseForever);
    co_await sim::delay(sim_, 100_ms);  // let the event cross the transport
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fields[0], space::Value(9));
  EXPECT_EQ(server_.stats().events_pushed, 1u);
}

TEST_F(LoopbackTest, CancelNotifyStopsEvents) {
  int events = 0;
  drive([&]() -> sim::Task<void> {
    auto reg = co_await client_.notify(any_named("a", 1), space::kLeaseForever,
                                       [&](const space::Tuple&) { ++events; });
    CO_ASSERT_TRUE(reg.has_value());
    EXPECT_TRUE(co_await client_.cancel(*reg));
    (void)co_await client_.write(space::make_tuple("a", space::Value(1)),
                                 space::kLeaseForever);
    co_await sim::delay(sim_, 100_ms);
  });
  EXPECT_EQ(events, 0);
}

TEST_F(LoopbackTest, RenewExtendsRemoteLease) {
  drive([&]() -> sim::Task<void> {
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     200_ms);
    CO_ASSERT_TRUE(wr.ok);
    auto renewed = co_await client_.renew(wr.lease.id, 10_s);
    CO_ASSERT_TRUE(renewed.has_value());
    co_await sim::delay(sim_, 1_s);
    auto still = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_TRUE(still.has_value());
  });
}

TEST_F(LoopbackTest, CancelLeaseRemovesEntry) {
  drive([&]() -> sim::Task<void> {
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     space::kLeaseForever);
    EXPECT_TRUE(co_await client_.cancel(wr.lease.id));
    auto got = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_FALSE(got.has_value());
  });
}

TEST_F(LoopbackTest, TwoClientsShareTheSpace) {
  LoopbackClient& transport2 = hub_.create_client();
  SpaceClient client2(sim_, transport2, codec_);
  drive([&]() -> sim::Task<void> {
    (void)co_await client_.write(space::make_tuple("shared", space::Value(5)),
                                 space::kLeaseForever);
    auto got = co_await client2.take(any_named("shared", 1), 1_s);
    CO_ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->fields[0], space::Value(5));
  });
}

TEST_F(LoopbackTest, ServerCountsDecodeErrors) {
  client_transport_.send({'j', 'u', 'n', 'k'});
  sim_.run();
  EXPECT_EQ(server_.stats().decode_errors, 1u);
}

TEST_F(LoopbackTest, ConcurrentRequestsCorrelateById) {
  // Two overlapping takes with different templates must land correctly.
  std::optional<space::Tuple> got_a, got_b;
  sim::spawn([&]() -> sim::Task<void> {
    got_a = co_await client_.take(any_named("a", 1), 5_s);
  });
  sim::spawn([&]() -> sim::Task<void> {
    got_b = co_await client_.take(any_named("b", 1), 5_s);
  });
  sim::spawn([&]() -> sim::Task<void> {
    co_await sim::delay(sim_, 50_ms);
    space_.write(space::make_tuple("b", space::Value(2)));
    space_.write(space::make_tuple("a", space::Value(1)));
  });
  sim_.run();
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_a->name, "a");
  EXPECT_EQ(got_b->name, "b");
}

TEST_F(LoopbackTest, RemoteTransactionCommit) {
  drive([&]() -> sim::Task<void> {
    auto txn = co_await client_.begin_transaction();
    CO_ASSERT_TRUE(txn.has_value());
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     space::kLeaseForever, *txn);
    EXPECT_TRUE(wr.ok);
    // Invisible to non-transactional readers until commit.
    auto before = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_FALSE(before.has_value());
    EXPECT_TRUE(co_await client_.commit(*txn));
    auto after = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_TRUE(after.has_value());
  });
}

TEST_F(LoopbackTest, RemoteTransactionAbortRestoresTake) {
  drive([&]() -> sim::Task<void> {
    (void)co_await client_.write(space::make_tuple("t", space::Value(9)),
                                 space::kLeaseForever);
    auto txn = co_await client_.begin_transaction();
    CO_ASSERT_TRUE(txn.has_value());
    auto held = co_await client_.take(any_named("t", 1), sim::Time::zero(),
                                      *txn);
    CO_ASSERT_TRUE(held.has_value());
    auto hidden = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_FALSE(hidden.has_value());
    EXPECT_TRUE(co_await client_.abort(*txn));
    auto restored = co_await client_.read(any_named("t", 1), sim::Time::zero());
    EXPECT_TRUE(restored.has_value());
  });
}

TEST_F(LoopbackTest, RemoteTransactionTimesOutServerSide) {
  drive([&]() -> sim::Task<void> {
    auto txn = co_await client_.begin_transaction(200_ms);
    CO_ASSERT_TRUE(txn.has_value());
    co_await sim::delay(sim_, 1_s);
    EXPECT_FALSE(co_await client_.commit(*txn));  // already auto-aborted
  });
  EXPECT_EQ(space_.stats().aborts, 1u);
}

TEST_F(LoopbackTest, TransactionalOpOnDeadTxnFails) {
  drive([&]() -> sim::Task<void> {
    auto txn = co_await client_.begin_transaction();
    CO_ASSERT_TRUE(txn.has_value());
    EXPECT_TRUE(co_await client_.abort(*txn));
    auto wr = co_await client_.write(space::make_tuple("t", space::Value(1)),
                                     space::kLeaseForever, *txn);
    EXPECT_FALSE(wr.ok);
  });
}

// NodeCore's input checks: each malformed request, sent as codec-encoded
// bytes, gets a typed INVALID_ARGUMENT reply carrying its request id and
// touches neither the engine nor the ticket counter.
TEST_F(LoopbackTest, MalformedRequestsGetTypedReplies) {
  auto tickets = std::make_shared<std::uint64_t>(0);
  int records = 0;
  server_.set_ticketing(tickets, [&records](space::OpRecord) { ++records; });

  struct Case {
    const char* what;
    MsgType request;
    MsgType reply;
  };
  const Case cases[] = {
      {"write without a tuple", MsgType::kWriteRequest,
       MsgType::kWriteResponse},
      {"read without a template", MsgType::kReadRequest, MsgType::kError},
      {"take without a template", MsgType::kTakeRequest, MsgType::kError},
      {"notify without a template", MsgType::kNotifyRequest, MsgType::kError},
      {"peek without a template", MsgType::kPeekRequest, MsgType::kError},
      {"replicate-write without a tuple", MsgType::kReplicateWriteRequest,
       MsgType::kReplicateResponse},
      {"replicate-take without a template", MsgType::kReplicateTakeRequest,
       MsgType::kReplicateResponse},
      {"a frame no handler takes", MsgType::kEvent, MsgType::kError},
  };

  LoopbackClient& raw = hub_.create_client();
  std::vector<Message> replies;
  raw.on_message().connect([&](std::span<const std::uint8_t> bytes) {
    std::optional<Message> reply = codec_.decode(bytes);
    ASSERT_TRUE(reply.has_value());
    replies.push_back(std::move(*reply));
  });
  const space::SpaceEngine::Stats engine_before = space_.stats();
  std::uint64_t id = 100;
  for (const Case& c : cases) {
    Message request;
    request.type = c.request;
    request.request_id = ++id;
    request.duration_ns = 1'000'000;
    raw.send(codec_.encode(request));
  }
  sim_.run();

  ASSERT_EQ(replies.size(), std::size(cases));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    const Message& reply = replies[i];
    EXPECT_EQ(reply.type, c.reply) << c.what;
    EXPECT_EQ(reply.request_id, 101 + i) << c.what;
    EXPECT_FALSE(reply.ok) << c.what;
    EXPECT_EQ(static_cast<util::StatusCode>(reply.status),
              util::StatusCode::kInvalidArgument)
        << c.what;
    EXPECT_FALSE(reply.error.empty()) << c.what;
  }
  EXPECT_EQ(space_.stats(), engine_before);
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_EQ(*tickets, 0u);
  EXPECT_EQ(records, 0);
  EXPECT_EQ(server_.standby_buffer_size(), 0u);
  EXPECT_EQ(server_.stats().requests, std::size(cases));
  EXPECT_EQ(server_.stats().named_ops + server_.stats().wildcard_ops +
                server_.stats().peeks,
            0u);
}

}  // namespace
}  // namespace tb::mw
