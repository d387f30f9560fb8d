// End-to-end client/server semantics over the loopback transport — the
// paper's pure-Java prototype stage (Figure 3).
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "co_gtest.hpp"

#include "src/mw/client.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/obs/metrics.hpp"
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

// Both middleware ends mirror their Stats into counters by name at snapshot
// time; the benchmark and the bench reports read these names. An 11 ms rpc
// timeout is shorter than the 12 ms loopback round trip, so the write and
// the take each retransmit once, and the server's replay of each cached
// reply reaches the client as a stray response.
TEST(LoopbackMetrics, ClientAndServerCountersMirrorStats) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  XmlCodec codec;
  LoopbackHub hub(sim, 5_ms);
  NodeCore server(space, hub, codec);
  SpaceClient client(sim, hub.create_client(), codec,
                     {.rpc_timeout = 11_ms, .rpc_retries = 1});
  obs::Registry registry;
  client.bind_metrics(registry);
  server.bind_metrics(registry);
  bool done = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", space::Value(1)),
                                    space::kLeaseForever);
    EXPECT_TRUE(wr.ok);
    auto taken = co_await client.take(any_named("t", 1), 1_s);
    EXPECT_TRUE(taken.has_value());
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);

  const obs::Snapshot snap = registry.snapshot();
  const auto expect_counters =
      [&](std::initializer_list<std::pair<const char*, std::uint64_t>> all) {
        for (const auto& [name, value] : all) {
          ASSERT_NE(snap.find_counter(name), nullptr) << name;
          EXPECT_EQ(snap.counter_value(name), value) << name;
        }
      };
  const SpaceClient::Stats& c = client.stats();
  EXPECT_EQ(c.retransmissions, 2u);
  EXPECT_EQ(c.stray_responses, 2u);
  expect_counters({
      {"mw.client.rpc.calls", c.calls},
      {"mw.client.rpc.completed", c.completed},
      {"mw.client.rpc.timeouts", c.rpc_timeouts},
      {"mw.client.rpc.failures", c.rpc_failures},
      {"mw.client.rpc.retransmissions", c.retransmissions},
      {"mw.client.rpc.retryable_rejects", c.retryable_rejects},
      {"mw.client.events", c.events},
      {"mw.client.decode_errors", c.decode_errors},
      {"mw.client.stray_responses", c.stray_responses},
      {"mw.client.codec.messages_encoded", c.messages_encoded},
      {"mw.client.codec.bytes_encoded", c.bytes_encoded},
      {"mw.client.codec.messages_decoded", c.messages_decoded},
      {"mw.client.codec.bytes_decoded", c.bytes_decoded},
  });
  EXPECT_EQ(snap.find_histogram("mw.client.rpc_ns")->histogram.count(),
            c.completed);

  const NodeCore::Stats& s = server.stats();
  EXPECT_EQ(s.duplicates_replayed, 2u);
  expect_counters({
      {"mw.server.requests", s.requests},
      {"mw.server.responses", s.responses},
      {"mw.server.events_pushed", s.events_pushed},
      {"mw.server.decode_errors", s.decode_errors},
      {"mw.server.dead_on_arrival", s.dead_on_arrival},
      {"mw.server.duplicates_replayed", s.duplicates_replayed},
      {"mw.server.duplicates_ignored", s.duplicates_ignored},
      {"mw.server.rejected_requests", s.rejected_requests},
      {"mw.server.admission_queued", s.admission_queued},
      {"mw.server.overload_rejects", s.overload_rejects},
      {"mw.server.notify_batch_flushes", s.notify_batch_flushes},
      {"mw.server.misroute_rejects", s.misroute_rejects},
      {"mw.server.unknown_frames", s.unknown_frames},
      {"mw.server.codec.messages_encoded", s.messages_encoded},
      {"mw.server.codec.bytes_encoded", s.bytes_encoded},
      {"mw.server.codec.messages_decoded", s.messages_decoded},
      {"mw.server.codec.bytes_decoded", s.bytes_decoded},
  });
  EXPECT_NE(snap.find_gauge("mw.server.oplog_records"), nullptr);
  EXPECT_NE(snap.find_gauge("mw.server.ticket_mappings"), nullptr);
  EXPECT_NE(snap.find_gauge("mw.server.standby_buffered"), nullptr);
}

// NodeCore is the boundary where a wire duration or send time becomes a
// sim::Time, so no frame may crash the server's event: a duration <= 0
// where one must be positive gets a typed INVALID_ARGUMENT reply, a
// duration that would end past Time::max() is forever (so a huge take
// parks and a huge transaction stays open), and a send time is read inside
// [0, arrival]. Each case runs on a fresh node; every request gets one
// typed reply or parks.
TEST(NodeDurations, EveryDurationAndSendTimeGetsATypedOutcome) {
  using sim::Time;
  using util::StatusCode;
  constexpr std::int64_t kMax = INT64_MAX;
  constexpr std::int64_t kDurations[] = {-1, 0, kMax - 1, kMax};
  struct Case {
    std::string what;
    MsgType type;
    std::int64_t duration_ns;
    std::int64_t sent_at_ns;
  };
  std::vector<Case> cases;
  for (const std::int64_t d : kDurations) {
    for (const MsgType type :
         {MsgType::kWriteRequest, MsgType::kReadRequest, MsgType::kTakeRequest,
          MsgType::kNotifyRequest, MsgType::kRenewRequest,
          MsgType::kTxnBeginRequest, MsgType::kReplicateWriteRequest}) {
      cases.push_back({std::string(to_string(type)) + " for " +
                           std::to_string(d) + " ns",
                       type, d, 0});
    }
  }
  for (const std::int64_t sent : {INT64_MIN, std::int64_t{-1}, kMax}) {
    cases.push_back({"write sent at " + std::to_string(sent),
                     MsgType::kWriteRequest, Time::sec(1).count_ns(), sent});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    sim::Simulator sim(1);
    space::SpaceEngine space(sim);
    const std::uint64_t renewable =
        space.write(space::make_tuple("r", space::Value(1)), 1_s).id;
    XmlCodec codec;
    LoopbackHub hub(sim, 5_ms);
    NodeCore node(space, hub, codec);
    LoopbackClient& raw = hub.create_client();
    std::vector<Message> replies;
    raw.on_message().connect([&](std::span<const std::uint8_t> bytes) {
      std::optional<Message> reply = codec.decode(bytes);
      ASSERT_TRUE(reply.has_value());
      replies.push_back(std::move(*reply));
    });

    Message request;
    request.type = c.type;
    request.request_id = 1;
    request.created_at_ns = c.sent_at_ns;
    request.duration_ns = c.duration_ns;
    request.handle = c.type == MsgType::kRenewRequest ? renewable : 1;
    if (c.type == MsgType::kWriteRequest ||
        c.type == MsgType::kReplicateWriteRequest) {
      request.tuple = space::make_tuple("t", space::Value(1));
    } else if (c.type != MsgType::kRenewRequest &&
               c.type != MsgType::kTxnBeginRequest) {
      request.tmpl = any_named("t", 1);
    }
    raw.send(codec.encode(request));
    EXPECT_NO_THROW(sim.run());

    const bool huge = c.duration_ns >= kMax - 1;
    const bool positive = c.duration_ns > 0;
    const bool match = c.type == MsgType::kReadRequest ||
                       c.type == MsgType::kTakeRequest;
    if (match && huge) {
      EXPECT_TRUE(replies.empty());
      EXPECT_EQ(space.blocked_operations(), 1u);
      continue;
    }
    EXPECT_EQ(replies.size(), 1u);
    if (replies.size() != 1) continue;
    const Message& reply = replies[0];
    EXPECT_EQ(reply.request_id, 1u);
    const StatusCode status = static_cast<StatusCode>(reply.status);
    switch (c.type) {
      case MsgType::kWriteRequest:
        // A duration <= 0 is dead on arrival: acknowledged, never stored.
        EXPECT_EQ(reply.type, MsgType::kWriteResponse);
        EXPECT_TRUE(reply.ok);
        EXPECT_EQ(reply.handle != 0, positive);
        if (huge) {
          EXPECT_EQ(reply.expires_at_ns, kMax);
        }
        break;
      case MsgType::kReadRequest:
      case MsgType::kTakeRequest:
        // An if-exists probe that misses: OK, no tuple.
        EXPECT_EQ(reply.type, MsgType::kMatchResponse);
        EXPECT_EQ(status, StatusCode::kOk);
        EXPECT_FALSE(reply.ok);
        break;
      case MsgType::kTxnBeginRequest:
        EXPECT_EQ(reply.type, MsgType::kTxnBeginResponse);
        EXPECT_EQ(reply.ok, positive);
        if (positive) {
          EXPECT_TRUE(space.transaction_open(reply.handle));
        }
        break;
      case MsgType::kRenewRequest:
        EXPECT_EQ(reply.type, MsgType::kRenewResponse);
        EXPECT_EQ(reply.ok, positive);
        if (huge) {
          EXPECT_EQ(reply.expires_at_ns, kMax);
        }
        break;
      case MsgType::kNotifyRequest:
        EXPECT_EQ(reply.type,
                  positive ? MsgType::kNotifyResponse : MsgType::kError);
        EXPECT_EQ(reply.ok, positive);
        break;
      default:
        EXPECT_EQ(reply.type, MsgType::kReplicateResponse);
        EXPECT_EQ(reply.ok, positive);
        break;
    }
    if (!reply.ok && !match) {
      EXPECT_EQ(status, StatusCode::kInvalidArgument);
      EXPECT_FALSE(reply.error.empty());
    }
    if (c.type == MsgType::kWriteRequest && positive && !huge) {
      // The send time reads as time 0 at the earliest and as the 7 ms
      // arrival at the latest, so the 1 s lease ends by 1.007 s.
      EXPECT_LE(reply.expires_at_ns, (7_ms + 1_s).count_ns());
      EXPECT_EQ(space.stats().writes, 2u);
    }
  }
}

// NodeCore's replies, pinned byte for byte. One scripted session on a
// primary with a standby attached walks every reply path: the uncached
// rejects (no request id, overload shed), a misroute with its epoch, an
// unknown frame, every malformed request, a dead-on-arrival write, unknown
// transactions, txn begin/commit/abort, parked and blocking takes, a
// wildcard read, a cached replay and an in-flight duplicate, a notify and
// its event, renew and cancel hits and misses, peeks, take-by-id win,
// unknown and miss, and replication frames, malformed and from a stray
// session. Each reply's XML bytes, in arrival order, and both nodes' Stats
// must match tests/golden/node_replies.txt ("## <name>", then the bytes). A
// mismatch writes the transcript this build produced to
// node_replies.actual.txt in the working directory.
std::string stats_line(const NodeCore::Stats& s) {
  std::ostringstream out;
  out << "requests=" << s.requests << " responses=" << s.responses
      << " events_pushed=" << s.events_pushed
      << " decode_errors=" << s.decode_errors
      << " dead_on_arrival=" << s.dead_on_arrival
      << " duplicates_replayed=" << s.duplicates_replayed
      << " duplicates_ignored=" << s.duplicates_ignored
      << " rejected_requests=" << s.rejected_requests
      << " pipeline_queued=" << s.pipeline_queued
      << " admission_queued=" << s.admission_queued
      << " overload_rejects=" << s.overload_rejects
      << " notify_batch_flushes=" << s.notify_batch_flushes
      << " messages_encoded=" << s.messages_encoded
      << " bytes_encoded=" << s.bytes_encoded
      << " messages_decoded=" << s.messages_decoded
      << " bytes_decoded=" << s.bytes_decoded << " named_ops=" << s.named_ops
      << " wildcard_ops=" << s.wildcard_ops << " peeks=" << s.peeks
      << " takes_by_id=" << s.takes_by_id
      << " misroute_rejects=" << s.misroute_rejects
      << " unknown_frames=" << s.unknown_frames
      << " replication_forwards=" << s.replication_forwards
      << " replicated_buffered=" << s.replicated_buffered
      << " dropped_while_dead=" << s.dropped_while_dead;
  return out.str();
}

using Transcript = std::vector<std::pair<std::string, std::string>>;

Transcript node_reply_transcript() {
  using sim::Time;
  sim::Simulator sim(1);
  XmlCodec codec;
  auto tickets = std::make_shared<std::uint64_t>(0);
  const auto sink = [](space::OpRecord) {};

  space::SpaceEngine primary_space(sim);
  LoopbackHub primary_hub(sim, 5_ms);
  NodeCore primary(primary_space, primary_hub, codec,
                   {.max_service_slots = 1, .admission_queue_limit = 1,
                    .node_id = 1});
  space::SpaceEngine standby_space(sim);
  LoopbackHub standby_hub(sim, 5_ms);
  NodeCore standby(standby_space, standby_hub, codec, {.node_id = 2});
  SpaceClient stream(sim, standby_hub.create_client(), codec);
  primary.set_ticketing(tickets, sink);
  standby.set_ticketing(tickets, sink);
  primary.set_standby(&stream);
  const std::uint64_t foreign = space::type_key("foreign", 1);
  primary.set_ownership([foreign](std::uint64_t key) { return key != foreign; },
                        /*epoch=*/7);

  LoopbackClient& raw = primary_hub.create_client();
  LoopbackClient& stray = standby_hub.create_client();
  Transcript out;
  std::map<std::uint64_t, std::string> names{{0, "missing request id"}};
  std::map<std::string, Message> replies;
  const auto record = [&](std::span<const std::uint8_t> bytes) {
    std::optional<Message> reply = codec.decode(bytes);
    std::string name = "undecodable";
    if (reply) {
      name = reply->type == MsgType::kEvent ? "event"
                                            : names.at(reply->request_id);
      replies[name] = *reply;
    }
    out.emplace_back(name, std::string(bytes.begin(), bytes.end()));
  };
  raw.on_message().connect(record);
  stray.on_message().connect(record);

  // Each step builds its request when it is sent, so it can name a handle
  // an earlier reply carried.
  struct Step {
    std::int64_t at_ms;
    std::string name;
    std::function<Message()> build;
    LoopbackClient* via;
    std::uint64_t id;
  };
  std::vector<Step> steps;
  std::map<std::string, std::vector<std::uint8_t>> sent;
  std::uint64_t next_id = 1;
  std::int64_t at_ms = 0;
  const auto step = [&](std::string name, std::function<Message()> build,
                        LoopbackClient* via = nullptr,
                        std::int64_t gap_ms = 50) {
    const std::uint64_t id = next_id++;
    names[id] = name;
    steps.push_back({at_ms, std::move(name), std::move(build),
                     via ? via : &raw, id});
    at_ms += gap_ms;
  };
  const auto handle_of = [&](const std::string& name) {
    return replies.at(name).handle;
  };
  const auto any_of = [](std::optional<std::string> name) {
    return space::Template(std::move(name), {space::FieldPattern::any()});
  };
  const auto msg = [](MsgType type) {
    Message m;
    m.type = type;
    return m;
  };
  const auto write = [&](const char* name, std::int64_t value,
                         std::int64_t duration_ns, std::uint64_t txn = 0) {
    return [=] {
      Message m = msg(MsgType::kWriteRequest);
      m.tuple = space::make_tuple(name, space::Value(value));
      m.duration_ns = duration_ns;
      m.txn = txn;
      return m;
    };
  };
  const auto match = [&](MsgType type, std::optional<std::string> name,
                         std::int64_t timeout_ns, std::uint64_t txn = 0) {
    return [=] {
      Message m = msg(type);
      m.tmpl = any_of(name);
      m.duration_ns = timeout_ns;
      m.txn = txn;
      return m;
    };
  };
  const auto with_handle = [&](MsgType type, std::function<std::uint64_t()> h,
                               std::int64_t duration_ns = 0) {
    return [=] {
      Message m = msg(type);
      m.handle = h();
      m.duration_ns = duration_ns;
      return m;
    };
  };
  const auto fixed = [](std::uint64_t v) {
    return [v] { return v; };
  };
  const auto handle = [&](const char* name) {
    return [&handle_of, n = std::string(name)] { return handle_of(n); };
  };
  const auto txn_of = [&](const char* name, std::function<Message()> build) {
    return [&handle_of, n = std::string(name), build] {
      Message m = build();
      m.txn = handle_of(n);
      return m;
    };
  };
  constexpr std::int64_t kForever = INT64_MAX;
  constexpr std::uint64_t kNowhere = 999'999;
  const std::int64_t second = Time::sec(1).count_ns();

  // Tickets: 1 job/1, 2 job/2, 3 finite, 4 the take of job/1, 5 the
  // directed take of job/2, 6 held.
  step("write job 1", write("job", 1, kForever));
  step("write job 2", write("job", 2, kForever));
  step("write finite", write("job", 3, 10 * second));
  step("read named", match(MsgType::kReadRequest, "job", 0));
  step("read wildcard", match(MsgType::kReadRequest, std::nullopt, 0));
  step("take named", match(MsgType::kTakeRequest, "job", second));
  step("peek hit", match(MsgType::kPeekRequest, "job", 0));
  step("peek miss", match(MsgType::kPeekRequest, "none", 0));
  step("take by id win", with_handle(MsgType::kTakeByIdRequest, fixed(2)));
  step("take by id unknown",
       with_handle(MsgType::kTakeByIdRequest, fixed(kNowhere)));
  step("write held", write("held", 1, kForever));
  step("txn begin", [&] {
    Message m = msg(MsgType::kTxnBeginRequest);
    m.duration_ns = kForever;
    return m;
  });
  step("txn take held",
       txn_of("txn begin", match(MsgType::kTakeRequest, "held", 0)));
  step("take by id miss", with_handle(MsgType::kTakeByIdRequest, fixed(6)));
  step("txn write", txn_of("txn begin", write("t", 1, kForever)));
  step("txn read miss",
       txn_of("txn begin", match(MsgType::kReadRequest, "none", 0)));
  step("txn commit",
       with_handle(MsgType::kTxnCommitRequest, handle("txn begin")));
  step("txn commit again",
       with_handle(MsgType::kTxnCommitRequest, handle("txn begin")));
  step("txn begin 2", [&] {
    Message m = msg(MsgType::kTxnBeginRequest);
    m.duration_ns = 5 * second;
    return m;
  });
  step("txn abort",
       with_handle(MsgType::kTxnAbortRequest, handle("txn begin 2")));
  step("write unknown txn", write("t", 2, kForever, kNowhere));
  step("match unknown txn",
       match(MsgType::kTakeRequest, "t", 0, kNowhere));
  step("take parked", match(MsgType::kTakeRequest, "late", 10 * second),
       nullptr, 20);
  steps.push_back({at_ms, "take parked", nullptr, &raw, 0});  // in flight
  at_ms += 30;
  step("write late", write("late", 1, kForever), nullptr, 100);
  step("take blocking miss",
       match(MsgType::kTakeRequest, "never", Time::ms(100).count_ns()),
       nullptr, 200);
  step("take probe miss", match(MsgType::kTakeRequest, "never", 0));
  steps.push_back({at_ms, "write job 1", nullptr, &raw, 0});  // replayed
  at_ms += 50;
  step("notify", [&] {
    Message m = msg(MsgType::kNotifyRequest);
    m.tmpl = any_of("alarm");
    m.duration_ns = kForever;
    return m;
  });
  step("write alarm", write("alarm", 1, kForever));
  step("renew hit", with_handle(MsgType::kRenewRequest, handle("write finite"),
                                20 * second));
  step("renew miss",
       with_handle(MsgType::kRenewRequest, fixed(kNowhere), second));
  step("cancel notify", with_handle(MsgType::kCancelRequest, handle("notify")));
  step("cancel tuple",
       with_handle(MsgType::kCancelRequest, handle("write finite")));
  step("cancel miss", with_handle(MsgType::kCancelRequest, fixed(kNowhere)));
  step("write dead on arrival",
       write("doa", 1, Time::ms(5).count_ns()));  // transit is 7 ms
  step("write misrouted", write("foreign", 1, kForever));
  step("unknown frame", nullptr);
  step("write without tuple", [&] { return msg(MsgType::kWriteRequest); });
  step("read without template", [&] { return msg(MsgType::kReadRequest); });
  step("take without template", [&] { return msg(MsgType::kTakeRequest); });
  step("notify without template",
       [&] { return msg(MsgType::kNotifyRequest); });
  step("peek without template", [&] { return msg(MsgType::kPeekRequest); });
  step("replicate-write without tuple",
       [&] { return msg(MsgType::kReplicateWriteRequest); });
  step("replicate-write without lease", [&] {
    Message m = msg(MsgType::kReplicateWriteRequest);
    m.tuple = space::make_tuple("job", space::Value(9));
    return m;
  });
  step("replicate-take without template",
       [&] { return msg(MsgType::kReplicateTakeRequest); });
  step("unexpected type", [&] { return msg(MsgType::kEvent); });
  step("replicate from a stray session",
       [&] {
         Message m = msg(MsgType::kReplicateWriteRequest);
         m.tuple = space::make_tuple("job", space::Value(9));
         m.duration_ns = kForever;
         m.handle = 77;
         return m;
       },
       &stray);
  // Three requests in one instant: one is served, one waits for the only
  // service slot, and the full admission queue sheds the third.
  step("overload served", match(MsgType::kReadRequest, "job", 0), nullptr, 0);
  step("overload queued", match(MsgType::kReadRequest, "job", 0), nullptr, 0);
  step("overload shed", match(MsgType::kReadRequest, "job", 0));
  step("missing request id", write("job", 4, kForever));
  steps.back().id = 0;
  names.erase(next_id - 1);

  for (Step& s : steps) {
    sim.schedule_at(Time::ms(s.at_ms), [&s, &sim, &codec, &sent] {
      std::vector<std::uint8_t>& bytes = sent[s.name];
      if (s.build) {
        Message m = s.build();
        m.request_id = s.id;
        m.created_at_ns = sim.now().count_ns();
        bytes = codec.encode(m);
      } else if (bytes.empty()) {
        const std::string text = "<msg type=\"hologram-req\" id=\"" +
                                 std::to_string(s.id) + "\"/>";
        bytes.assign(text.begin(), text.end());
      }
      s.via->send(bytes);
    });
  }
  sim.run();
  out.emplace_back("primary stats", stats_line(primary.stats()));
  out.emplace_back("standby stats", stats_line(standby.stats()));
  return out;
}

TEST(NodeReplies, MatchGoldenBytes) {
  const Transcript actual = node_reply_transcript();
  Transcript golden;
  {
    std::ifstream in(TB_TEST_GOLDEN_DIR "/node_replies.txt");
    ASSERT_TRUE(in.good());
    std::string line, name;
    while (std::getline(in, line)) {
      if (line.rfind("## ", 0) == 0) {
        name = line.substr(3);
      } else if (!name.empty()) {
        golden.emplace_back(std::move(name), line);
        name.clear();
      }
    }
  }
  if (actual != golden) {
    std::ofstream dump("node_replies.actual.txt");
    for (const auto& [name, line] : actual) {
      dump << "## " << name << "\n" << line << "\n";
    }
  }
  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, golden[i].first) << "reply " << i;
    EXPECT_EQ(actual[i].second, golden[i].second) << golden[i].first;
  }
}

}  // namespace
}  // namespace tb::mw
