#include "src/wire/multibus.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <memory>

#include "src/sim/process.hpp"
#include "src/wire/multibus_relay.hpp"
#include "src/wire/timing.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

TEST(MultiBus, RoutesNodesToTheirBus) {
  sim::Simulator sim;
  LinkConfig link;
  MultiBusSystem system(sim, link, 2);
  SlaveDevice a(sim, 1, link), b(sim, 2, link);
  system.attach(0, a);
  system.attach(1, b);
  EXPECT_EQ(system.bus_for_node(1), 0);
  EXPECT_EQ(system.bus_for_node(2), 1);
  EXPECT_EQ(&system.master_for_node(1), &system.master(0));
  EXPECT_EQ(&system.master_for_node(2), &system.master(1));
}

TEST(MultiBus, UnknownNodeThrows) {
  sim::Simulator sim;
  MultiBusSystem system(sim, LinkConfig{}, 2);
  EXPECT_THROW(system.bus_for_node(9), util::PreconditionError);
}

TEST(MultiBus, DuplicateNodeAcrossBusesRejected) {
  sim::Simulator sim;
  LinkConfig link;
  MultiBusSystem system(sim, link, 2);
  SlaveDevice a(sim, 1, link), dup(sim, 1, link);
  system.attach(0, a);
  EXPECT_THROW(system.attach(1, dup), util::PreconditionError);
}

TEST(MultiBus, ForcesModeBLinksToOneWire) {
  sim::Simulator sim;
  LinkConfig link;
  link.wires = 4;  // should be ignored: each mode-B line is its own bus
  MultiBusSystem system(sim, link, 2);
  EXPECT_EQ(system.bus(0).link().wires, 1);
}

TEST(MultiBus, ParallelBusesMultiplyThroughput) {
  // Mode B scaling: n buses each carrying independent traffic finish n
  // batches in the time one bus needs for one batch.
  constexpr int kCycles = 50;
  auto run_batches = [&](int buses) {
    sim::Simulator sim;
    LinkConfig link;
    MultiBusSystem system(sim, link, buses);
    std::vector<std::unique_ptr<SlaveDevice>> slaves;
    for (int b = 0; b < buses; ++b) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(b + 1), system.bus(b).link()));
      system.attach(b, *slaves.back());
    }
    int done = 0;
    for (int b = 0; b < buses; ++b) {
      sim::spawn([&, b]() -> sim::Task<void> {
        const auto node = static_cast<std::uint8_t>(b + 1);
        for (int i = 0; i < kCycles; ++i) {
          PingResult r = co_await system.master_for_node(node).ping(node);
          EXPECT_TRUE(r.ok());
        }
        ++done;
      });
    }
    sim.run();
    EXPECT_EQ(done, buses);
    return sim.now();
  };

  const sim::Time one = run_batches(1);
  const sim::Time four = run_batches(4);
  // Four buses do 4x the total cycles in the same wall of sim time.
  EXPECT_EQ(one, four);
}

TEST(MultiBus, AggregateRateScalesLinearly) {
  // Measure aggregate cycles completed in a fixed window for n in {1,2,4}.
  auto cycles_in_window = [&](int buses) {
    sim::Simulator sim;
    LinkConfig link;
    MultiBusSystem system(sim, link, buses);
    std::vector<std::unique_ptr<SlaveDevice>> slaves;
    auto total = std::make_shared<std::uint64_t>(0);
    for (int b = 0; b < buses; ++b) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(b + 1), system.bus(b).link()));
      system.attach(b, *slaves.back());
      sim::spawn([&system, total, node = static_cast<std::uint8_t>(b + 1)](
                 ) -> sim::Task<void> {
        while (true) {
          PingResult r = co_await system.master_for_node(node).ping(node);
          if (!r.ok()) co_return;
          ++*total;
        }
      });
    }
    sim.run_until(1_s);
    return *total;
  };

  const auto one = cycles_in_window(1);
  const auto two = cycles_in_window(2);
  const auto four = cycles_in_window(4);
  EXPECT_NEAR(static_cast<double>(two) / one, 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(four) / one, 4.0, 0.2);
}

struct RelayRigB {
  sim::Simulator sim{1};
  LinkConfig link;
  MultiBusSystem system;
  std::vector<std::unique_ptr<SlaveDevice>> slaves;
  MultiBusRelay relay;

  explicit RelayRigB(RelayConfig config = fast_relay())
      : link(fast_link()), system(sim, link, 2),
        relay(system, {1, 2, 3, 4}, (build(), config)) {}

  static LinkConfig fast_link() {
    LinkConfig link;
    link.bit_rate_hz = 100'000;
    return link;
  }
  static RelayConfig fast_relay() {
    RelayConfig config;
    config.poll_period = sim::Time::ms(5);
    return config;
  }
  void build() {
    for (int i = 0; i < 4; ++i) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(i + 1), link));
      system.attach(i < 2 ? 0 : 1, *slaves.back());
    }
  }
};

TEST(MultiBusRelay, ForwardsWithinOneBus) {
  RelayRigB rig;
  rig.slaves[0]->host_send(encode_segment({1, 2, {0x11}}));
  rig.relay.start();
  rig.sim.run_until(5_s);
  SegmentParser parser;
  parser.feed(rig.slaves[1]->host_receive());
  auto got = parser.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload[0], 0x11);
}

TEST(MultiBusRelay, ForwardsAcrossBuses) {
  RelayRigB rig;
  rig.slaves[0]->host_send(encode_segment({1, 4, {0xCC, 0xDD}}));
  rig.relay.start();
  rig.sim.run_until(5_s);
  SegmentParser parser;
  parser.feed(rig.slaves[3]->host_receive());
  auto got = parser.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{0xCC, 0xDD}));
  EXPECT_EQ(rig.relay.stats().segments_dropped, 0u);
}

TEST(MultiBusRelay, CrossBusPushDoesNotStarveSourceBusWatchdog) {
  // A large transfer from bus 0 to bus 1 must not let bus 0 go silent past
  // the 2048-bit watchdog (the failure mode the per-bus queues fix).
  RelayRigB rig;
  std::vector<std::uint8_t> big(600);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  RelaySegment segment{1, 3, big};
  rig.slaves[0]->host_send(encode_segment(segment));
  rig.relay.start();
  rig.sim.run_until(30_s);
  EXPECT_EQ(rig.slaves[0]->stats().resets, 0u);
  EXPECT_EQ(rig.slaves[1]->stats().resets, 0u);
  SegmentParser parser;
  parser.feed(rig.slaves[2]->host_receive());
  auto got = parser.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, big);
}

TEST(MultiBusRelay, BroadcastFansOutToAllBuses) {
  RelayRigB rig;
  rig.slaves[1]->host_send(encode_segment({2, kBroadcastNodeId, {0x7E}}));
  rig.relay.start();
  rig.sim.run_until(5_s);
  for (int i = 0; i < 4; ++i) {
    SegmentParser parser;
    parser.feed(rig.slaves[i]->host_receive());
    EXPECT_EQ(parser.next().has_value(), i != 1) << "slave " << i;
  }
}

TEST(MultiBusRelay, UnknownDestinationDropped) {
  RelayRigB rig;
  rig.slaves[0]->host_send(encode_segment({1, 99, {0x01}}));
  rig.relay.start();
  rig.sim.run_until(5_s);
  EXPECT_EQ(rig.relay.stats().segments_dropped, 1u);
}

// Both relays share one poll round, so a segment whose CRC byte is flipped
// in flight must show up in either relay's stats.
TEST(RelayPoller, BothRelaysCountACorruptSegment) {
  std::vector<std::uint8_t> bad = encode_segment({1, 2, {0x42}});
  bad.back() ^= 0xFF;  // the CRC byte
  struct Case {
    const char* relay;
    RelayStats (*send)(RelayRigB& rig, const std::vector<std::uint8_t>& raw);
  };
  const Case cases[] = {
      {"MasterRelay (one bus)",
       [](RelayRigB& rig, const std::vector<std::uint8_t>& raw) {
         MasterRelay relay(rig.system.master(0), {1, 2},
                           RelayRigB::fast_relay());
         rig.slaves[0]->host_send(raw);
         relay.start();
         rig.sim.run_until(5_s);
         return relay.stats();
       }},
      {"MultiBusRelay (mode B)",
       [](RelayRigB& rig, const std::vector<std::uint8_t>& raw) {
         rig.slaves[0]->host_send(raw);
         rig.relay.start();
         rig.sim.run_until(5_s);
         return rig.relay.stats();
       }},
  };
  for (const Case& c : cases) {
    RelayRigB rig;
    const RelayStats stats = c.send(rig, bad);
    EXPECT_EQ(stats.bytes_drained, bad.size()) << c.relay;
    EXPECT_EQ(stats.crc_failures, 1u) << c.relay;
    EXPECT_EQ(stats.segments_forwarded, 0u) << c.relay;
  }
}

TEST(MultiBusRelay, RejectsUnattachedNode) {
  sim::Simulator sim;
  LinkConfig link;
  MultiBusSystem system(sim, link, 2);
  EXPECT_THROW(MultiBusRelay(system, {9}), util::PreconditionError);
}

}  // namespace
}  // namespace tb::wire
