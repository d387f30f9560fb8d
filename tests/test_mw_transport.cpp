// Unit tests for the message transports: TpWIRE fragmentation/reassembly
// and the packet-network stream transport.
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "src/mw/net_transport.hpp"
#include "src/mw/wire_transport.hpp"
#include "src/net/network.hpp"
#include "src/sim/process.hpp"
#include "src/util/assert.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/relay.hpp"

namespace tb::mw {
namespace {

using namespace tb::sim::literals;

// ---------------------------------------------------------------------------
// Wire transport over a real bus + relay.

struct WireRig {
  sim::Simulator sim{1};
  wire::LinkConfig link = fast_link();
  wire::OneWireBus bus{sim, link};
  wire::SlaveDevice s1{sim, 1, link};
  wire::SlaveDevice s2{sim, 2, link};
  wire::Master master{bus};
  wire::MasterRelay relay;

  WireRig() : relay(master, {1, 2}, fast_relay()) {
    bus.attach(s1);
    bus.attach(s2);
  }

  static wire::LinkConfig fast_link() {
    wire::LinkConfig link;
    link.bit_rate_hz = 1'000'000;
    return link;
  }
  static wire::RelayConfig fast_relay() {
    wire::RelayConfig config;
    config.poll_period = sim::Time::us(500);
    return config;
  }
};

TEST(WireTransport, MessageRoundTripBothDirections) {
  WireRig rig;
  WireClientTransport client(rig.sim, rig.s1, /*server_node=*/2);
  WireServerTransport server(rig.sim, rig.s2);

  std::vector<std::uint8_t> to_server;
  ServerTransport::SessionId session = 0;
  server.on_message().connect(
      [&](ServerTransport::SessionId s, std::span<const std::uint8_t> m) {
        session = s;
        to_server.assign(m.begin(), m.end());
        server.send(s, {9, 8, 7});
      });
  std::vector<std::uint8_t> to_client;
  client.on_message().connect(
      [&](std::span<const std::uint8_t> m) { to_client.assign(m.begin(), m.end()); });

  rig.relay.start();
  client.send({1, 2, 3, 4, 5});
  rig.sim.run_until(5_s);

  EXPECT_EQ(to_server, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(session, 1u);  // keyed by source node id
  EXPECT_EQ(to_client, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(client.stats().messages_sent, 1u);
  EXPECT_EQ(client.stats().messages_received, 1u);
}

TEST(WireTransport, EmptyMessageSurvives) {
  WireRig rig;
  WireClientTransport client(rig.sim, rig.s1, 2);
  WireServerTransport server(rig.sim, rig.s2);
  bool got = false;
  std::size_t got_size = 99;
  server.on_message().connect(
      [&](ServerTransport::SessionId, std::span<const std::uint8_t> m) {
        got = true;
        got_size = m.size();
      });
  rig.relay.start();
  client.send({});
  rig.sim.run_until(5_s);
  EXPECT_TRUE(got);
  EXPECT_EQ(got_size, 0u);
}

TEST(WireTransport, MultiFragmentMessageReassembles) {
  WireRig rig;
  WireClientTransport client(rig.sim, rig.s1, 2);
  WireServerTransport server(rig.sim, rig.s2);
  std::vector<std::uint8_t> big(1'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> received;
  server.on_message().connect(
      [&](ServerTransport::SessionId, std::span<const std::uint8_t> m) {
        received.assign(m.begin(), m.end());
      });
  rig.relay.start();
  client.send(big);
  rig.sim.run_until(30_s);
  EXPECT_EQ(received, big);
  EXPECT_GT(client.endpoint_stats().fragments_sent, 20u);
  EXPECT_EQ(server.endpoint_stats().messages_reassembled, 1u);
}

TEST(WireTransport, InterleavedMessagesFromTwoSources) {
  // Two clients on different slaves talk to the same server slave; their
  // fragments interleave through the relay but must reassemble per source.
  sim::Simulator sim(1);
  wire::LinkConfig link = WireRig::fast_link();
  wire::OneWireBus bus(sim, link);
  wire::SlaveDevice s1(sim, 1, link), s2(sim, 2, link), s3(sim, 3, link);
  bus.attach(s1);
  bus.attach(s2);
  bus.attach(s3);
  wire::Master master(bus);
  wire::MasterRelay relay(master, {1, 2, 3}, WireRig::fast_relay());

  WireClientTransport client_a(sim, s1, 3);
  WireClientTransport client_b(sim, s2, 3);
  WireServerTransport server(sim, s3);
  std::map<std::uint64_t, std::vector<std::uint8_t>> by_session;
  server.on_message().connect(
      [&](ServerTransport::SessionId s, std::span<const std::uint8_t> m) {
        by_session[s].assign(m.begin(), m.end());
      });

  std::vector<std::uint8_t> msg_a(300, 0xAA), msg_b(300, 0xBB);
  relay.start();
  client_a.send(msg_a);
  client_b.send(msg_b);
  sim.run_until(30_s);

  ASSERT_EQ(by_session.size(), 2u);
  EXPECT_EQ(by_session[1], msg_a);
  EXPECT_EQ(by_session[2], msg_b);
}

TEST(WireTransport, BackPressureBacklogDrains) {
  WireRig rig;
  WireClientTransport client(rig.sim, rig.s1, 2);
  WireServerTransport server(rig.sim, rig.s2);
  int messages = 0;
  server.on_message().connect(
      [&](ServerTransport::SessionId, std::span<const std::uint8_t>) {
        ++messages;
      });
  // Far more than the 1024-byte outbox can hold at once.
  std::vector<std::uint8_t> big(3'000, 0x42);
  rig.relay.start();
  client.send(big);
  EXPECT_GT(client.backlog_bytes(), 0u);  // outbox full: local queue armed
  rig.sim.run_until(60_s);
  EXPECT_EQ(messages, 1);
  EXPECT_EQ(client.backlog_bytes(), 0u);
}

TEST(WireTransport, PartialEvictionBoundsMemory) {
  // Lost fragments must not accumulate unbounded reassembly state.
  sim::Simulator sim(1);
  wire::LinkConfig link = WireRig::fast_link();
  wire::SlaveDevice slave(sim, 2, link);
  WireTransportParams params;
  params.max_partial_messages = 4;
  WireServerTransport server(sim, slave, params);

  // Feed first-fragments of many distinct messages directly into the inbox
  // via the slave's system port (simulating lost tails).
  auto push_fragment = [&](std::uint16_t msg_id) {
    wire::RelaySegment segment;
    segment.src = 1;
    segment.dst = 2;
    segment.payload = {static_cast<std::uint8_t>(msg_id >> 8),
                       static_cast<std::uint8_t>(msg_id),
                       0, 0,   // index 0
                       0, 2};  // total 2 (tail never arrives)
    const auto raw = wire::encode_segment(segment);
    slave.observe_frame(wire::TxFrame{wire::Command::kSelect,
                                      wire::system_address(2)}.encode());
    slave.observe_frame(wire::TxFrame{wire::Command::kWriteAddress, 0}.encode());
    slave.observe_frame(
        wire::TxFrame{wire::Command::kWriteAddress,
                      static_cast<std::uint8_t>(wire::SysReg::kInboxPort)}
            .encode());
    for (std::uint8_t b : raw) {
      slave.observe_frame(wire::TxFrame{wire::Command::kWriteData, b}.encode());
    }
  };
  for (std::uint16_t id = 1; id <= 20; ++id) push_fragment(id);
  EXPECT_GT(server.endpoint_stats().partials_evicted, 0u);
  EXPECT_EQ(server.endpoint_stats().messages_reassembled, 0u);
}

TEST(WireTransport, RejectsTinySegmentBudget) {
  sim::Simulator sim(1);
  wire::LinkConfig link;
  wire::SlaveDevice slave(sim, 1, link);
  WireTransportParams params;
  params.max_segment_payload = kFragmentHeaderBytes;  // no room for payload
  EXPECT_THROW(WireClientTransport(sim, slave, 2, params),
               util::PreconditionError);
}

// ---------------------------------------------------------------------------
// Net transport over a packet link.

struct NetRig {
  sim::Simulator sim{1};
  net::Network network{sim};
  net::Node& client_node = network.add_node("client");
  net::Node& server_node = network.add_node("server");

  NetRig() { network.connect(client_node, server_node, {}); }
};

TEST(NetTransport, RoundTripOverLink) {
  NetRig rig;
  NetServerTransport server(rig.sim, rig.server_node, 1);
  NetClientTransport client(rig.sim, rig.client_node, 1,
                            server.listen_address());
  std::vector<std::uint8_t> at_server;
  std::vector<std::uint8_t> at_client;
  server.on_message().connect(
      [&](ServerTransport::SessionId s, std::span<const std::uint8_t> m) {
        at_server.assign(m.begin(), m.end());
        server.send(s, {4, 5});
      });
  client.on_message().connect(
      [&](std::span<const std::uint8_t> m) { at_client.assign(m.begin(), m.end()); });

  client.send({1, 2, 3});
  rig.sim.run();
  EXPECT_EQ(at_server, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(at_client, (std::vector<std::uint8_t>{4, 5}));
}

TEST(NetTransport, LargeMessageSpansManyPackets) {
  NetRig rig;
  NetTransportParams params;
  params.mtu_payload = 100;
  NetServerTransport server(rig.sim, rig.server_node, 1, params);
  NetClientTransport client(rig.sim, rig.client_node, 1,
                            server.listen_address(), params);
  std::vector<std::uint8_t> big(5'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 3);
  }
  std::vector<std::uint8_t> received;
  server.on_message().connect(
      [&](ServerTransport::SessionId, std::span<const std::uint8_t> m) {
        received.assign(m.begin(), m.end());
      });
  client.send(big);
  rig.sim.run();
  EXPECT_EQ(received, big);
}

TEST(NetTransport, SendToUnknownSessionThrows) {
  NetRig rig;
  NetServerTransport server(rig.sim, rig.server_node, 1);
  EXPECT_THROW(server.send(12345, {1}), util::PreconditionError);
}

TEST(NetTransport, TwoClientsDistinctSessions) {
  NetRig rig;
  net::Node& second = rig.network.add_node("client2");
  rig.network.connect(second, rig.server_node, {});
  NetServerTransport server(rig.sim, rig.server_node, 1);
  NetClientTransport a(rig.sim, rig.client_node, 1, server.listen_address());
  NetClientTransport b(rig.sim, second, 1, server.listen_address());
  std::set<std::uint64_t> sessions;
  server.on_message().connect(
      [&](ServerTransport::SessionId s, std::span<const std::uint8_t>) {
        sessions.insert(s);
      });
  a.send({1});
  b.send({2});
  rig.sim.run();
  EXPECT_EQ(sessions.size(), 2u);
}

}  // namespace
}  // namespace tb::mw
