// Differential tests of the bus-model abstraction levels (DESIGN.md §13).
//
// The frame-level transaction model trades sub-cycle event resolution for
// one kernel event per communication cycle, but it commits to *identical
// observable behavior*: fault-free, every cycle's timing, responder, status
// and RX word must match the bit-accurate ground truth bit for bit, and
// under probabilistic corruption the two levels share one RNG draw order so
// even their fault sequences coincide. These tests replay randomized
// scripts — selections, reads/writes, broadcasts, interrupts, power events,
// watchdog-length idles — on both levels and diff everything.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "src/sim/process.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/frame_bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/timing.hpp"
#include "tests/co_gtest.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

// One scripted action, pre-generated so both levels replay the same list.
struct Op {
  enum class Kind : std::uint8_t {
    kCycle,       ///< drive frame on the bus, expecting a reply
    kBroadcast,   ///< drive frame with no reply expected
    kRaiseInt,    ///< slave_index raises its host interrupt
    kKill,        ///< power-fail slave_index
    kRestart,     ///< power-restore slave_index
    kIdle,        ///< let the bus sit silent for `idle`
  };
  Kind kind = Kind::kCycle;
  TxFrame frame;
  int slave_index = 0;
  sim::Time idle;
};

struct RunResult {
  std::vector<CycleTrace> traces;
  sim::Time end;
  BusModel::Stats bus;
  std::vector<SlaveDevice::Stats> slaves;
  std::uint64_t fast_cycles = 0;
  std::uint64_t slow_cycles = 0;
};

RunResult run_script(BusModelLevel level, const LinkConfig& link,
                     const FaultConfig& faults, int slave_count,
                     const std::vector<Op>& script, std::uint64_t seed) {
  RunResult result;
  sim::Simulator sim(seed);
  std::unique_ptr<BusModel> bus = make_bus_model(level, sim, link, faults);
  std::vector<std::unique_ptr<SlaveDevice>> slaves;
  for (int i = 0; i < slave_count; ++i) {
    slaves.push_back(std::make_unique<SlaveDevice>(
        sim, static_cast<std::uint8_t>(i + 1), link));
    bus->attach(*slaves.back());
  }
  bus->on_cycle().connect(
      [&result](const CycleTrace& t) { result.traces.push_back(t); });

  sim::spawn([&]() -> sim::Task<void> {
    for (const Op& op : script) {
      switch (op.kind) {
        case Op::Kind::kCycle:
          (void)co_await bus->cycle(op.frame, true);
          break;
        case Op::Kind::kBroadcast:
          (void)co_await bus->cycle(op.frame, false);
          break;
        case Op::Kind::kRaiseInt:
          slaves[op.slave_index]->raise_interrupt();
          break;
        case Op::Kind::kKill:
          slaves[op.slave_index]->kill();
          break;
        case Op::Kind::kRestart:
          slaves[op.slave_index]->restart();
          break;
        case Op::Kind::kIdle:
          co_await sim::delay(sim, op.idle);
          break;
      }
    }
  });
  sim.run();

  result.end = sim.now();
  result.bus = bus->stats();
  for (const auto& slave : slaves) result.slaves.push_back(slave->stats());
  if (const auto* frame_bus = dynamic_cast<const FrameLevelBus*>(bus.get())) {
    result.fast_cycles = frame_bus->fast_path_cycles();
    result.slow_cycles = frame_bus->slow_path_cycles();
  }
  return result;
}

void expect_identical(const RunResult& bit, const RunResult& frame) {
  EXPECT_EQ(bit.end, frame.end);
  ASSERT_EQ(bit.traces.size(), frame.traces.size());
  for (std::size_t i = 0; i < bit.traces.size(); ++i) {
    const CycleTrace& a = bit.traces[i];
    const CycleTrace& b = frame.traces[i];
    EXPECT_EQ(a.start, b.start) << "cycle " << i;
    EXPECT_EQ(a.end, b.end) << "cycle " << i;
    EXPECT_EQ(a.tx_word, b.tx_word) << "cycle " << i;
    EXPECT_EQ(a.responder, b.responder) << "cycle " << i;
    EXPECT_EQ(a.rx_seen, b.rx_seen) << "cycle " << i;
    EXPECT_EQ(a.rx_word, b.rx_word) << "cycle " << i;
    EXPECT_EQ(a.status, b.status) << "cycle " << i;
  }
  EXPECT_EQ(bit.bus.cycles, frame.bus.cycles);
  EXPECT_EQ(bit.bus.ok, frame.bus.ok);
  EXPECT_EQ(bit.bus.timeouts, frame.bus.timeouts);
  EXPECT_EQ(bit.bus.crc_errors, frame.bus.crc_errors);
  EXPECT_EQ(bit.bus.tx_corrupted, frame.bus.tx_corrupted);
  EXPECT_EQ(bit.bus.rx_corrupted, frame.bus.rx_corrupted);
  EXPECT_EQ(bit.bus.busy_time, frame.bus.busy_time);
  ASSERT_EQ(bit.slaves.size(), frame.slaves.size());
  for (std::size_t i = 0; i < bit.slaves.size(); ++i) {
    const SlaveDevice::Stats& a = bit.slaves[i];
    const SlaveDevice::Stats& b = frame.slaves[i];
    EXPECT_EQ(a.frames_observed, b.frames_observed) << "slave " << i;
    EXPECT_EQ(a.valid_frames, b.valid_frames) << "slave " << i;
    EXPECT_EQ(a.commands_executed, b.commands_executed) << "slave " << i;
    EXPECT_EQ(a.resets, b.resets) << "slave " << i;
    EXPECT_EQ(a.naks, b.naks) << "slave " << i;
  }
}

LinkConfig random_link(std::mt19937& rng, int slave_count) {
  static constexpr std::int64_t kRates[] = {9'600, 100'000, 1'000'000};
  LinkConfig link;
  link.bit_rate_hz = kRates[rng() % 3];
  if (rng() % 2 == 0) {
    // Deep-chain-capable timeout; otherwise keep the spec default and let
    // far replies time out (a behavior the levels must agree on too).
    link.rx_timeout_bits = 2.0 * slave_count * link.hop_delay_bits +
                           link.response_delay_bits + kFrameBits + 16.0;
  }
  return link;
}

std::vector<Op> random_script(std::mt19937& rng, int slave_count, int length,
                              const LinkConfig& link, bool power_events) {
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(length));
  for (int i = 0; i < length; ++i) {
    const int roll = static_cast<int>(rng() % 100);
    const auto node = static_cast<std::uint8_t>(rng() % slave_count + 1);
    Op op;
    if (roll < 25) {
      op.frame = TxFrame{Command::kSelect, rng() % 2 == 0
                                               ? memory_address(node)
                                               : system_address(node)};
    } else if (roll < 45) {
      op.frame = TxFrame{Command::kPing, 0};
    } else if (roll < 55) {
      op.frame = TxFrame{Command::kWriteAddress,
                         static_cast<std::uint8_t>(rng() % 256)};
    } else if (roll < 65) {
      op.frame = TxFrame{Command::kWriteData,
                         static_cast<std::uint8_t>(rng() % 256)};
    } else if (roll < 72) {
      op.frame = TxFrame{Command::kReadData, 0};
    } else if (roll < 76) {
      op.frame = TxFrame{Command::kReadFlags, 0};
    } else if (roll < 80) {
      // Broadcast select: every slave executes, nobody replies.
      op.kind = Op::Kind::kBroadcast;
      op.frame = TxFrame{Command::kSelect, memory_address(kBroadcastNodeId)};
    } else if (roll < 85) {
      op.kind = Op::Kind::kRaiseInt;
      op.slave_index = static_cast<int>(rng() % slave_count);
    } else if (roll < 90 && power_events) {
      op.kind = rng() % 2 == 0 ? Op::Kind::kKill : Op::Kind::kRestart;
      op.slave_index = static_cast<int>(rng() % slave_count);
    } else if (roll < 96) {
      op.kind = Op::Kind::kIdle;
      op.idle = link.bits(static_cast<double>(rng() % 64 + 1));
    } else {
      // Long silence: crosses the 2048-bit watchdog so every slave resets.
      op.kind = Op::Kind::kIdle;
      op.idle = link.reset_timeout() + link.bits(16.0);
    }
    script.push_back(op);
  }
  return script;
}

TEST(BusLevels, FaultFreeRandomScriptsAgreeBitForBit) {
  std::mt19937 meta(0xB05);
  for (int round = 0; round < 12; ++round) {
    const int slave_count = static_cast<int>(meta() % 7 + 1);
    const LinkConfig link = random_link(meta, slave_count);
    const std::vector<Op> script =
        random_script(meta, slave_count, 120, link, /*power_events=*/true);
    const std::uint64_t seed = meta();
    const RunResult bit = run_script(BusModelLevel::kBitAccurate, link, {},
                                     slave_count, script, seed);
    const RunResult frame = run_script(BusModelLevel::kFrameLevel, link, {},
                                       slave_count, script, seed);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_identical(bit, frame);
  }
}

TEST(BusLevels, CorruptionScriptsAgreeOnFaultSequences) {
  // Shared RNG draw order makes even the Bernoulli corruption sequence
  // identical across levels, so statuses, corrupted-word counters and the
  // exact RX words still diff clean.
  std::mt19937 meta(0xFA017);
  for (int round = 0; round < 8; ++round) {
    const int slave_count = static_cast<int>(meta() % 5 + 1);
    const LinkConfig link = random_link(meta, slave_count);
    FaultConfig faults;
    faults.tx_corrupt_prob = 0.05 + 0.1 * static_cast<double>(meta() % 4);
    faults.rx_corrupt_prob = 0.05 * static_cast<double>(meta() % 4);
    const std::vector<Op> script =
        random_script(meta, slave_count, 150, link, /*power_events=*/false);
    const std::uint64_t seed = meta();
    const RunResult bit = run_script(BusModelLevel::kBitAccurate, link,
                                     faults, slave_count, script, seed);
    const RunResult frame = run_script(BusModelLevel::kFrameLevel, link,
                                       faults, slave_count, script, seed);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_identical(bit, frame);
  }
}

TEST(BusLevels, MasterRetryCountsAgreeUnderBitErrors) {
  // The paper-level behavior that must survive the abstraction: how many
  // retries a master burns under a given BER.
  for (const double ber : {0.02, 0.1, 0.25}) {
    FaultConfig faults;
    faults.tx_corrupt_prob = ber;
    faults.rx_corrupt_prob = ber / 2;
    auto run = [&](BusModelLevel level) {
      sim::Simulator sim(7);
      LinkConfig link;
      std::unique_ptr<BusModel> bus = make_bus_model(level, sim, link, faults);
      SlaveDevice s1(sim, 1, link), s2(sim, 2, link);
      bus->attach(s1);
      bus->attach(s2);
      Master master(*bus);
      sim::spawn([&]() -> sim::Task<void> {
        for (int i = 0; i < 300; ++i) {
          (void)co_await master.ping(static_cast<std::uint8_t>(i % 2 + 1));
        }
      });
      sim.run();
      return master.stats();
    };
    const Master::Stats bit = run(BusModelLevel::kBitAccurate);
    const Master::Stats frame = run(BusModelLevel::kFrameLevel);
    SCOPED_TRACE("ber " + std::to_string(ber));
    EXPECT_EQ(bit.retries, frame.retries);
    EXPECT_EQ(bit.failures, frame.failures);
    EXPECT_EQ(bit.frames_sent, frame.frames_sent);
  }
}

TEST(BusLevels, SteadyStateRunsOnTheFastPath) {
  sim::Simulator sim(1);
  LinkConfig link;
  FrameLevelBus bus(sim, link);
  SlaveDevice s1(sim, 1, link), s2(sim, 2, link);
  bus.attach(s1);
  bus.attach(s2);
  Master master(bus);
  sim::spawn([&]() -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) (void)co_await master.ping(2);
  });
  sim.run();
  // One SELECT probe then 49 cached pings, every one O(1): no slow cycles.
  EXPECT_EQ(bus.slow_path_cycles(), 0u);
  EXPECT_EQ(bus.fast_path_cycles(), 50u);
}

TEST(BusLevels, DisturbanceFallsBackAndResyncs) {
  sim::Simulator sim(1);
  LinkConfig link;
  FrameLevelBus bus(sim, link);
  SlaveDevice s1(sim, 1, link), s2(sim, 2, link);
  bus.attach(s1);
  bus.attach(s2);
  Master master(bus);
  std::uint64_t slow_after_recovery = 0;
  std::uint64_t fast_after_recovery = 0;
  sim::spawn([&]() -> sim::Task<void> {
    (void)co_await master.ping(2);
    s1.kill();  // divergence: the chain has a dead repeater
    (void)co_await master.ping(2);
    s1.restart();
    // Ride out the reset pulse; every cycle until the picture is whole
    // again runs on the slow path.
    for (int i = 0; i < 5; ++i) (void)co_await master.ping(2);
    slow_after_recovery = bus.slow_path_cycles();
    fast_after_recovery = bus.fast_path_cycles();
    // A valid uniform cycle resynced the mirror: fast from here on.
    for (int i = 0; i < 3; ++i) (void)co_await master.ping(2);
  });
  sim.run();
  EXPECT_GE(slow_after_recovery, 2u);
  EXPECT_EQ(bus.slow_path_cycles(), slow_after_recovery);
  EXPECT_EQ(bus.fast_path_cycles(), fast_after_recovery + 3);
}

TEST(BusLevels, FormatLevels) {
  EXPECT_STREQ(to_string(BusModelLevel::kBitAccurate), "bit-accurate");
  EXPECT_STREQ(to_string(BusModelLevel::kFrameLevel), "frame-level");
  EXPECT_STREQ(to_string(BusModelLevel::kAnalytic), "analytic");
}

TEST(BusLevels, AnalyticLevelHasNoEventModel) {
  sim::Simulator sim(1);
  EXPECT_THROW(make_bus_model(BusModelLevel::kAnalytic, sim, LinkConfig{}),
               util::PreconditionError);
}

}  // namespace
}  // namespace tb::wire
