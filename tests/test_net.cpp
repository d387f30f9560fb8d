#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include "src/net/network.hpp"
#include "src/net/sink.hpp"

namespace tb::net {
namespace {

using namespace tb::sim::literals;

struct NetRig {
  sim::Simulator sim{1};
  Network network{sim};
};

TEST(Link, SerializationPlusPropagationDelay) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  LinkParams params;
  params.bandwidth_bps = 8'000;   // 1000 bytes/s
  params.prop_delay = 5_ms;
  rig.network.connect(a, b, params);
  SinkAgent sink(rig.sim, b, 1);

  Packet packet;
  packet.dst = {b.id(), 1};
  packet.size_bytes = 100;  // 100 bytes at 1000 B/s = 100 ms
  packet.created_at = rig.sim.now();
  a.send(packet);
  rig.sim.run();

  EXPECT_EQ(sink.packets_received(), 1u);
  EXPECT_EQ(rig.sim.now(), 105_ms);
}

TEST(Link, BackToBackPacketsSerialize) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  LinkParams params;
  params.bandwidth_bps = 8'000;
  params.prop_delay = sim::Time::zero();
  rig.network.connect(a, b, params);
  SinkAgent sink(rig.sim, b, 1);

  for (int i = 0; i < 3; ++i) {
    Packet packet;
    packet.dst = {b.id(), 1};
    packet.size_bytes = 50;  // 50 ms each
    a.send(packet);
  }
  rig.sim.run();
  EXPECT_EQ(sink.packets_received(), 3u);
  EXPECT_EQ(rig.sim.now(), 150_ms);
}

TEST(Link, DropTailWhenQueueFull) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  LinkParams params;
  params.bandwidth_bps = 8'000;
  params.queue_limit_packets = 2;
  DuplexLink link = rig.network.connect(a, b, params);
  SinkAgent sink(rig.sim, b, 1);

  for (int i = 0; i < 10; ++i) {
    Packet packet;
    packet.dst = {b.id(), 1};
    packet.size_bytes = 100;
    a.send(packet);
  }
  rig.sim.run();
  // One in flight + two queued survive the burst; the rest drop.
  EXPECT_EQ(sink.packets_received(), 3u);
  EXPECT_EQ(link.forward->stats().dropped, 7u);
}

TEST(Node, RoutesAcrossIntermediateHop) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& r = rig.network.add_node("router");
  Node& b = rig.network.add_node("b");
  DuplexLink ar = rig.network.connect(a, r, {});
  DuplexLink rb = rig.network.connect(r, b, {});
  a.add_route(b.id(), *ar.forward);
  b.add_route(a.id(), *rb.backward);
  SinkAgent sink(rig.sim, b, 9);

  Packet packet;
  packet.dst = {b.id(), 9};
  packet.size_bytes = 10;
  a.send(packet);
  rig.sim.run();
  EXPECT_EQ(sink.packets_received(), 1u);
  EXPECT_EQ(r.stats().forwarded, 1u);
}

TEST(Node, NoRouteCounts) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Packet packet;
  packet.dst = {999, 1};
  a.send(packet);
  rig.sim.run();
  EXPECT_EQ(a.stats().no_route, 1u);
}

TEST(Node, TtlExpires) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  DuplexLink ab = rig.network.connect(a, b, {});
  // Routing loop: both route to each other for an unknown third node id.
  a.add_route(77, *ab.forward);
  b.add_route(77, *ab.backward);
  Packet packet;
  packet.dst = {77, 1};
  packet.ttl = 4;
  a.send(packet);
  rig.sim.run();
  EXPECT_EQ(a.stats().ttl_expired + b.stats().ttl_expired, 1u);
}

TEST(Node, UnboundPortCounts) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Packet packet;
  packet.dst = {a.id(), 5};
  a.send(packet);
  EXPECT_EQ(a.stats().no_agent, 1u);
}

TEST(Node, DoubleBindRejected) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  SinkAgent s1(rig.sim, a, 1);
  EXPECT_THROW(SinkAgent(rig.sim, a, 1), util::PreconditionError);
}

TEST(Sink, LatencyFromCreationToArrival) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  LinkParams params;
  params.prop_delay = 3_ms;
  params.bandwidth_bps = 8'000'000;  // 10 bytes serialize in 10 us
  rig.network.connect(a, b, params);
  SinkAgent sink(rig.sim, b, 1);

  for (int i = 0; i < 4; ++i) {
    rig.sim.schedule_in(sim::Time::ms(100 * i), [&] {
      Packet packet;
      packet.dst = {b.id(), 1};
      packet.size_bytes = 10;
      packet.created_at = rig.sim.now();
      a.send(packet);
    });
  }
  rig.sim.run();
  ASSERT_EQ(sink.packets_received(), 4u);
  EXPECT_EQ(sink.bytes_received(), 40u);
  EXPECT_DOUBLE_EQ(sink.latency().mean(), 0.003010);
}

}  // namespace
}  // namespace tb::net
