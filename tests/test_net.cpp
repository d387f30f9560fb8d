#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include "src/net/network.hpp"
#include "src/net/sink.hpp"
#include "src/net/traffic.hpp"

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
  rig.network.connect(a, r, {});
  rig.network.connect(r, b, {});
  rig.network.add_path_route({&a, &r, &b});
  rig.network.add_path_route({&b, &r, &a});
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

TEST(Cbr, RateAndCountExact) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  rig.network.connect(a, b, {});
  SinkAgent sink(rig.sim, b, 1);
  CbrParams params;
  params.rate_bytes_per_sec = 10.0;
  params.packet_size = 1;
  CbrGenerator cbr(rig.sim, a, 2, {b.id(), 1}, params);
  cbr.start();
  rig.sim.run_until(10_s);
  // 10 B/s of 1-byte packets for 10 s: first fires at t=0 -> 101 sends in
  // [0, 10]; allow the boundary packet.
  EXPECT_GE(sink.packets_received(), 100u);
  EXPECT_LE(sink.packets_received(), 101u);
}

TEST(Cbr, LatencyMeasured) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  LinkParams params;
  params.prop_delay = 3_ms;
  params.bandwidth_bps = 1e9;
  rig.network.connect(a, b, params);
  SinkAgent sink(rig.sim, b, 1);
  CbrGenerator cbr(rig.sim, a, 2, {b.id(), 1}, {100.0, 10, 0});
  cbr.start();
  rig.sim.run_until(1_s);
  ASSERT_GT(sink.packets_received(), 0u);
  EXPECT_NEAR(sink.latency().mean(), 0.003, 0.0005);
}

TEST(Poisson, MeanRateApproximatelyCorrect) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  rig.network.connect(a, b, {});
  SinkAgent sink(rig.sim, b, 1);
  PoissonParams params;
  params.mean_rate_pps = 50.0;
  PoissonGenerator gen(rig.sim, a, 2, {b.id(), 1}, params);
  gen.start();
  rig.sim.run_until(100_s);
  EXPECT_NEAR(static_cast<double>(sink.packets_received()) / 100.0, 50.0, 5.0);
}

TEST(OnOff, ProducesBurstsAndSilences) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  rig.network.connect(a, b, {});
  SinkAgent sink(rig.sim, b, 1);
  OnOffParams params;
  params.mean_on_sec = 0.2;
  params.mean_off_sec = 0.2;
  params.on_rate_bytes_per_sec = 6400.0;
  params.packet_size = 64;
  OnOffGenerator gen(rig.sim, a, 2, {b.id(), 1}, params);
  gen.start();
  rig.sim.run_until(20_s);
  EXPECT_GT(gen.bursts(), 5u);
  // Duty cycle ~50%: expect roughly half of the full-rate packet count.
  const double full_rate_packets = 6400.0 / 64.0 * 20.0;
  EXPECT_GT(sink.packets_received(), full_rate_packets * 0.25);
  EXPECT_LT(sink.packets_received(), full_rate_packets * 0.75);
}

TEST(Echo, BouncesPacketsBack) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  Node& b = rig.network.add_node("b");
  rig.network.connect(a, b, {});
  EchoAgent echo(rig.sim, b, 1);
  SinkAgent reply_sink(rig.sim, a, 2);

  Packet packet;
  packet.dst = {b.id(), 1};
  packet.size_bytes = 20;
  // Send from the sink's port so the echo returns to it.
  CbrGenerator probe(rig.sim, a, 3, {b.id(), 1}, {1000.0, 20, 0});
  (void)probe;  // we craft manually instead
  Packet manual;
  manual.dst = {b.id(), 1};
  manual.src = {a.id(), 2};
  manual.size_bytes = 20;
  // Inject with src pre-set by sending through the node directly.
  manual.created_at = rig.sim.now();
  a.send(manual);
  rig.sim.run();
  EXPECT_EQ(echo.packets_received(), 1u);
  EXPECT_EQ(reply_sink.packets_received(), 1u);
}

TEST(Cbr, ZeroRateStartRejected) {
  NetRig rig;
  Node& a = rig.network.add_node("a");
  CbrParams params;
  params.rate_bytes_per_sec = 0.0;
  CbrGenerator cbr(rig.sim, a, 2, {a.id(), 1}, params);
  EXPECT_THROW(cbr.start(), util::PreconditionError);
}

}  // namespace
}  // namespace tb::net
