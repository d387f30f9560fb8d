// Deterministic tests of the reliability layers: client retransmission,
// server duplicate suppression, and their interaction — driven through a
// fake transport with scripted loss (no randomness).
#include <gtest/gtest.h>

#include <deque>
#include <span>

#include "co_gtest.hpp"
#include "src/mw/client.hpp"
#include "src/mw/node_core.hpp"
#include "src/sim/process.hpp"
#include "src/space/engine.hpp"

namespace tb::mw {
namespace {

using namespace tb::sim::literals;

/// A transport pair where individual sends can be scripted to vanish.
/// drop_next_client_sends / drop_next_server_sends consume one entry per
/// send: true = lose it, false = deliver after `delay`.
class LossyPair {
 public:
  class Client final : public ClientTransport {
   public:
    explicit Client(LossyPair& pair) : pair_(&pair) {}
    using ClientTransport::send;
    void send(std::span<const std::uint8_t> message) override {
      note_sent(message.size());
      ++pair_->client_sends;
      if (pair_->should_drop(pair_->drop_client)) return;
      // The span is only valid for the duration of this call; the delayed
      // delivery owns a copy (crossing simulated time always copies).
      pair_->sim->schedule_in(
          pair_->delay,
          [this, m = std::vector<std::uint8_t>(message.begin(), message.end())] {
            pair_->server_endpoint.deliver_up(0, m);
          });
    }
    void push(const std::vector<std::uint8_t>& m) { deliver(m); }

   private:
    LossyPair* pair_;
  };

  class Server final : public ServerTransport {
   public:
    explicit Server(LossyPair& pair) : pair_(&pair) {}
    using ServerTransport::send;
    void send(SessionId, std::span<const std::uint8_t> message) override {
      note_sent(message.size());
      ++pair_->server_sends;
      if (pair_->should_drop(pair_->drop_server)) return;
      pair_->sim->schedule_in(
          pair_->delay,
          [this, m = std::vector<std::uint8_t>(message.begin(), message.end())] {
            pair_->client_endpoint.push(m);
          });
    }
    void deliver_up(SessionId s, const std::vector<std::uint8_t>& m) {
      deliver(s, m);
    }

   private:
    LossyPair* pair_;
  };

  explicit LossyPair(sim::Simulator& simulator)
      : sim(&simulator), client_endpoint(*this), server_endpoint(*this) {}

  bool should_drop(std::deque<bool>& script) {
    if (script.empty()) return false;
    const bool drop = script.front();
    script.pop_front();
    return drop;
  }

  sim::Simulator* sim;
  sim::Time delay = 5_ms;
  std::deque<bool> drop_client;  ///< script for client->server sends
  std::deque<bool> drop_server;  ///< script for server->client sends
  int client_sends = 0;
  int server_sends = 0;
  Client client_endpoint;
  Server server_endpoint;
};

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest() : pair_(sim_), space_(sim_) {}

  SpaceClient make_client(sim::Time rpc_timeout, int retries) {
    ClientConfig config;
    config.rpc_timeout = rpc_timeout;
    config.rpc_retries = retries;
    return SpaceClient(sim_, pair_.client_endpoint, codec_, config);
  }

  sim::Simulator sim_{1};
  LossyPair pair_;
  space::SpaceEngine space_;
  XmlCodec codec_;
};

TEST_F(ReliabilityTest, LostRequestIsRetransmitted) {
  NodeCore server(space_, pair_.server_endpoint, codec_);
  SpaceClient client = make_client(100_ms, 3);
  pair_.drop_client = {true};  // first request vanishes

  bool ok = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", 1),
                                    space::kLeaseForever);
    ok = wr.ok;
  });
  sim_.run_until(10_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(pair_.client_sends, 2);  // original + one retransmission
  EXPECT_EQ(client.stats().retransmissions, 1u);
  EXPECT_EQ(space_.size(), 1u);  // written exactly once
}

TEST_F(ReliabilityTest, LostResponseReplayedNotReExecuted) {
  NodeCore server(space_, pair_.server_endpoint, codec_);
  SpaceClient client = make_client(100_ms, 3);
  pair_.drop_server = {true};  // the first response vanishes

  bool ok = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", 1),
                                    space::kLeaseForever);
    ok = wr.ok;
  });
  sim_.run_until(10_s);
  EXPECT_TRUE(ok);
  // The retransmitted request hit the duplicate cache: the write executed
  // once, the cached response was replayed.
  EXPECT_EQ(space_.size(), 1u);
  EXPECT_EQ(server.stats().duplicates_replayed, 1u);
  EXPECT_EQ(space_.stats().writes, 1u);
}

TEST_F(ReliabilityTest, RetriesExhaustedYieldsNullResult) {
  NodeCore server(space_, pair_.server_endpoint, codec_);
  SpaceClient client = make_client(50_ms, 2);
  pair_.drop_client = {true, true, true};  // every attempt lost

  bool completed = false;
  bool ok = true;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", 1),
                                    space::kLeaseForever);
    ok = wr.ok;
    completed = true;
  });
  sim_.run_until(10_s);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(ok);
  EXPECT_EQ(pair_.client_sends, 3);  // 1 + 2 retries
  EXPECT_EQ(client.stats().rpc_timeouts, 3u);
}

TEST_F(ReliabilityTest, DuplicateOfParkedTakeIsIgnoredThenAnswered) {
  NodeCore server(space_, pair_.server_endpoint, codec_);
  SpaceClient client = make_client(200_ms, 5);

  // A blocking take parks server-side; the client's retransmissions must
  // not register a second take. A write at 500 ms releases it.
  std::optional<space::Tuple> got;
  sim::spawn([&]() -> sim::Task<void> {
    std::vector<space::FieldPattern> fields;
    fields.push_back(space::FieldPattern::any());
    space::Template tmpl(std::string("t"), std::move(fields));
    got = co_await client.take(std::move(tmpl), 5_s);
  });
  sim_.schedule_at(500_ms, [&] { space_.write(space::make_tuple("t", 42)); });
  sim_.run_until(10_s);

  
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], space::Value(42));
  EXPECT_GT(server.stats().duplicates_ignored, 0u);  // retransmits arrived
  EXPECT_EQ(space_.stats().takes, 1u);               // but only one take ran
}

TEST_F(ReliabilityTest, LateResponseAfterTimeoutIsCountedStray) {
  NodeCore server(space_, pair_.server_endpoint, codec_);
  // Transport delay far beyond the rpc timeout and no retries.
  pair_.delay = 300_ms;
  SpaceClient client = make_client(50_ms, 0);
  bool completed = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", 1),
                                    space::kLeaseForever);
    EXPECT_FALSE(wr.ok);  // timed out client-side
    completed = true;
  });
  sim_.run_until(10_s);
  EXPECT_TRUE(completed);
  EXPECT_EQ(client.stats().stray_responses, 1u);  // the answer arrived late
  EXPECT_EQ(space_.size(), 1u);                   // and the write did happen
}

}  // namespace
}  // namespace tb::mw
