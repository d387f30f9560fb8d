#include <gtest/gtest.h>

#include "co_gtest.hpp"

#include "src/util/assert.hpp"

#include <memory>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/process.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/metrics.hpp"
#include "src/wire/timing.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

/// Bus + N slaves + master, ready to drive from coroutines.
struct Rig {
  sim::Simulator sim;
  LinkConfig link;
  OneWireBus bus;
  std::vector<std::unique_ptr<SlaveDevice>> slaves;
  Master master;

  explicit Rig(int slave_count = 2, LinkConfig link_config = {},
               FaultConfig faults = {}, MasterConfig master_config = {})
      : sim(1), link(link_config), bus(sim, link_config, faults),
        master(bus, master_config) {
    for (int i = 0; i < slave_count; ++i) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(i + 1), link));
      bus.attach(*slaves.back());
    }
  }

  /// Runs a coroutine to completion.
  template <typename Fn>
  void drive(Fn&& body) {
    bool done = false;
    sim::spawn([&]() -> sim::Task<void> {
      co_await body();
      done = true;
    });
    sim.run();
    ASSERT_TRUE(done) << "drive coroutine did not finish";
  }
};

TEST(Bus, PingMatchesAnalyticTiming) {
  Rig rig(2);
  const AnalyticTiming analytic(rig.link);
  sim::Time elapsed;
  rig.drive([&]() -> sim::Task<void> {
    PingResult r = co_await rig.master.ping(2);
    EXPECT_TRUE(r.ok());
    elapsed = rig.sim.now();
  });
  // Slave 2 sits at chain position 1.
  EXPECT_EQ(elapsed, analytic.reply_cycle(1));
}

TEST(Bus, NFramesMatchAnalyticExactly) {
  Rig rig(2);
  const AnalyticTiming analytic(rig.link);
  constexpr int kFrames = 100;
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < kFrames; ++i) {
      PingResult r = co_await rig.master.ping(2);
      EXPECT_TRUE(r.ok());
    }
  });
  EXPECT_EQ(rig.sim.now(), analytic.frames(kFrames, 1));
}

TEST(Bus, UnknownNodeTimesOut) {
  Rig rig(2);
  const AnalyticTiming analytic(rig.link);
  rig.drive([&]() -> sim::Task<void> {
    PingResult r = co_await rig.master.ping(60);  // nobody home
    EXPECT_EQ(r.status, WireStatus::kTimeout);
  });
  // 1 + retry_limit attempts, each a timeout cycle.
  const auto attempts = static_cast<std::int64_t>(1 + rig.link.retry_limit);
  EXPECT_EQ(rig.sim.now(), analytic.timeout_cycle() * attempts);
}

TEST(Bus, StatusCarriesNodeIdAndInterrupt) {
  Rig rig(3);
  rig.slaves[2]->raise_interrupt();
  rig.drive([&]() -> sim::Task<void> {
    PingResult r = co_await rig.master.ping(3);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.node_id, 3);
    EXPECT_TRUE(r.interrupt);
  });
}

TEST(Bus, IntBitOrsAlongReturnPath) {
  // Slave1 (position 0) has a pending interrupt; a reply from Slave3 passes
  // through it, so the RX frame's INT bit must be set even though Slave3
  // itself is quiet.
  Rig rig(3);
  rig.slaves[0]->raise_interrupt();
  rig.drive([&]() -> sim::Task<void> {
    CycleResult r = co_await rig.bus.cycle(
        TxFrame{Command::kSelect, memory_address(3)}, true);
    CO_ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.rx->intr);
    // ...but the responder's own status byte says Slave3 is quiet.
    EXPECT_FALSE(r.rx->status_interrupt());
  });
}

TEST(Master, MemoryBlockRoundTrip) {
  Rig rig(2);
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 32; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  rig.drive([&]() -> sim::Task<void> {
    WireStatus ws = co_await rig.master.write_memory(1, 0x20, payload);
    EXPECT_EQ(ws, WireStatus::kOk);
    BlockResult rd = co_await rig.master.read_memory(1, 0x20, payload.size());
    EXPECT_TRUE(rd.ok());
    EXPECT_EQ(rd.data, payload);
  });
}

TEST(Master, SysRegReadWrite) {
  Rig rig(2);
  rig.drive([&]() -> sim::Task<void> {
    ByteResult id = co_await rig.master.read_sys_reg(2, SysReg::kNodeId);
    EXPECT_TRUE(id.ok());
    EXPECT_EQ(id.value, 2);
    ByteResult flags = co_await rig.master.read_sys_reg(2, SysReg::kFlags);
    EXPECT_TRUE(flags.ok());
  });
}

TEST(Master, MailboxRoundTrip) {
  Rig rig(2);
  const std::vector<std::uint8_t> outgoing = {10, 20, 30};
  rig.slaves[0]->host_send(outgoing);
  rig.drive([&]() -> sim::Task<void> {
    WordResult depth = co_await rig.master.read_outbox_depth(1);
    EXPECT_TRUE(depth.ok());
    EXPECT_EQ(depth.value, 3);
    BlockResult drained = co_await rig.master.outbox_drain(1, 100);
    EXPECT_TRUE(drained.ok());
    EXPECT_EQ(drained.data, outgoing);

    const std::vector<std::uint8_t> inbound = {7, 8};
    std::size_t delivered = 0;
    WireStatus ws = co_await rig.master.inbox_push(2, inbound, &delivered);
    EXPECT_EQ(ws, WireStatus::kOk);
    EXPECT_EQ(delivered, 2u);
  });
  EXPECT_EQ(rig.slaves[1]->host_receive(), (std::vector<std::uint8_t>{7, 8}));
}

TEST(Master, BroadcastCommandReachesAllSlaves) {
  Rig rig(3);
  rig.drive([&]() -> sim::Task<void> {
    WireStatus ws =
        co_await rig.master.broadcast_command(cmdbits::kRaiseInterrupt);
    EXPECT_EQ(ws, WireStatus::kOk);
  });
  for (const auto& slave : rig.slaves) {
    EXPECT_TRUE(slave->pending_interrupt());
  }
}

TEST(Master, SelectionCacheSkipsRedundantSelects) {
  Rig rig(2);
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await rig.master.ping(2);
    }
  });
  EXPECT_GT(rig.master.stats().select_skips + 4, 4u);  // PINGs after 1 SELECT
  // 1 SELECT + 4 PINGs = 5 cycles.
  EXPECT_EQ(rig.bus.stats().cycles, 5u);
}

TEST(Master, CacheDisabledSendsEverySelect) {
  MasterConfig no_cache;
  no_cache.cache_state = false;
  Rig rig(2, {}, {}, no_cache);
  rig.drive([&]() -> sim::Task<void> {
    ByteResult a = co_await rig.master.read_sys_reg(1, SysReg::kNodeId);
    ByteResult b = co_await rig.master.read_sys_reg(1, SysReg::kNodeId);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
  });
  EXPECT_EQ(rig.master.stats().select_skips, 0u);
  EXPECT_EQ(rig.master.stats().address_skips, 0u);
  // Each read: SELECT + 2x WRITE_ADDR + READ = 4 cycles.
  EXPECT_EQ(rig.bus.stats().cycles, 8u);
}

TEST(Master, CachedSecondRegisterReadCostsOneCycle) {
  Rig rig(2);
  rig.drive([&]() -> sim::Task<void> {
    (void)co_await rig.master.read_sys_reg(1, SysReg::kNodeId);
    const std::uint64_t before = rig.bus.stats().cycles;
    (void)co_await rig.master.read_sys_reg(1, SysReg::kNodeId);
    EXPECT_EQ(rig.bus.stats().cycles - before, 1u);
  });
  // The second read hit both caches: one SELECT and one WRITE_ADDR pair
  // skipped.
  EXPECT_EQ(rig.master.stats().select_skips, 1u);
  EXPECT_EQ(rig.master.stats().address_skips, 1u);
}

TEST(Master, RetriesRecoverFromRxCorruption) {
  FaultConfig faults;
  faults.rx_corrupt_prob = 0.4;
  Rig rig(2, {}, faults);
  int ok = 0;
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      PingResult r = co_await rig.master.ping(2);
      if (r.ok()) ++ok;
    }
  });
  // With 40% corruption and 3 retries, p(fail op) = 0.4^4 ~ 2.6%; 50 ops
  // should overwhelmingly succeed and definitely retry.
  EXPECT_GT(ok, 40);
  EXPECT_GT(rig.master.stats().retries, 0u);
  EXPECT_GT(rig.bus.stats().rx_corrupted, 0u);
}

TEST(Master, TxCorruptionShowsAsTimeoutThenRetrySucceeds) {
  FaultConfig faults;
  faults.tx_corrupt_prob = 0.3;
  Rig rig(2, {}, faults);
  int ok = 0;
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      PingResult r = co_await rig.master.ping(2);
      if (r.ok()) ++ok;
    }
  });
  EXPECT_GT(ok, 40);
  EXPECT_GT(rig.bus.stats().timeouts, 0u);
}

TEST(Master, BlockWriteSurvivesFaults) {
  FaultConfig faults;
  faults.rx_corrupt_prob = 0.15;
  faults.tx_corrupt_prob = 0.10;
  Rig rig(2, {}, faults);
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 24; ++i) payload.push_back(static_cast<std::uint8_t>(200 - i));
  bool wrote = false;
  rig.drive([&]() -> sim::Task<void> {
    WireStatus ws = co_await rig.master.write_memory(2, 0x00, payload);
    wrote = (ws == WireStatus::kOk);
  });
  ASSERT_TRUE(wrote);
  // The slave's memory must hold exactly the payload — no double writes or
  // holes despite retries re-seeking the address pointer.
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(rig.slaves[1]->memory_at(static_cast<std::uint16_t>(i)),
              payload[i])
        << "offset " << i;
  }
}

TEST(Bus, UtilizationIsPositiveAfterTraffic) {
  Rig rig(2);
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) (void)co_await rig.master.ping(1);
  });
  EXPECT_GT(rig.bus.utilization(), 0.5);
  EXPECT_LE(rig.bus.utilization(), 1.0);
}

TEST(Bus, DuplicateNodeIdRejected) {
  sim::Simulator sim;
  LinkConfig link;
  OneWireBus bus(sim, link);
  SlaveDevice a(sim, 1, link), b(sim, 1, link);
  bus.attach(a);
  EXPECT_THROW(bus.attach(b), util::PreconditionError);
}

TEST(Master, CacheSurvivesSlaveWatchdogReset) {
  // Idle longer than the 2048-bit watchdog: the slave resets and deselects
  // itself. The master must detect the staleness and re-select instead of
  // trusting its cache (regression: periodic pollers failed every other
  // sample before invalidate_if_stale()).
  Rig rig(2);
  rig.drive([&]() -> sim::Task<void> {
    for (int round = 0; round < 5; ++round) {
      ByteResult spi = co_await rig.master.spi_transfer(2, 0x5A);
      EXPECT_TRUE(spi.ok()) << "round " << round;
      // Sleep well past the watchdog between samples.
      co_await sim::delay(rig.sim, rig.link.reset_timeout() * 3);
    }
  });
  EXPECT_GE(rig.slaves[1]->stats().resets, 4u);  // watchdog did fire
  EXPECT_EQ(rig.master.stats().failures, 0u);    // yet every op succeeded
}

TEST(Master, EnumerateFindsAttachedSlaves) {
  Rig rig(3);
  std::vector<std::uint8_t> found;
  rig.drive([&]() -> sim::Task<void> {
    found = co_await rig.master.enumerate(0, 10);
  });
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Master, EnumerateEmptyRangeOnSilentBus) {
  Rig rig(2);
  std::vector<std::uint8_t> found = {99};
  rig.drive([&]() -> sim::Task<void> {
    found = co_await rig.master.enumerate(10, 12);  // nobody there
  });
  EXPECT_TRUE(found.empty());
}

TEST(Master, EnumerateRejectsBadRange) {
  Rig rig(1);
  rig.drive([&]() -> sim::Task<void> {
    bool threw = false;
    try {
      (void)co_await rig.master.enumerate(5, 2);
    } catch (const util::PreconditionError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST(Bus, ModeATwoWireAlmostDoublesThroughput) {
  // "A potential 2-wire implementation of the TpWIRE can almost double the
  // performance of the implemented 1-wire bus."
  LinkConfig one_wire;
  LinkConfig two_wire;
  two_wire.wires = 2;
  EXPECT_EQ(one_wire.frame_bits_on_wire(), 16.0);
  EXPECT_EQ(two_wire.frame_bits_on_wire(), 8.0);
  const AnalyticTiming a1(one_wire), a2(two_wire);
  const double speedup =
      a1.reply_cycle(1).seconds() / a2.reply_cycle(1).seconds();
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 2.0);  // "almost" — per-cycle overheads don't shrink
}

TEST(Bus, ModeASaturatesBeyondTwoWires) {
  LinkConfig two{.wires = 2}, eight{.wires = 8};
  EXPECT_EQ(two.frame_bits_on_wire(), eight.frame_bits_on_wire());
}

TEST(Bus, MetricsMatchTraceDerivedFrameCounts) {
  // The obs counters are mirrors of Stats and the on_cycle trace; a
  // disagreement means one of the three bookkeeping paths drifted.
  Rig rig(2);
  obs::Registry registry;
  rig.sim.bind_metrics(registry);
  bind_metrics(registry, rig.bus);
  bind_metrics(registry, rig.master);

  std::uint64_t traced_cycles = 0;
  std::uint64_t traced_responses = 0;
  rig.bus.on_cycle().connect([&](const CycleTrace& trace) {
    ++traced_cycles;
    if (trace.rx_seen) ++traced_responses;
  });

  constexpr int kPings = 25;
  rig.drive([&]() -> sim::Task<void> {
    for (int i = 0; i < kPings; ++i) {
      PingResult r = co_await rig.master.ping(2);
      EXPECT_TRUE(r.ok());
    }
  });

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(traced_cycles, rig.bus.stats().cycles);
  EXPECT_EQ(snap.counter_value("wire.bus.frames_tx"), traced_cycles);
  EXPECT_EQ(snap.counter_value("wire.bus.frames_rx"), traced_responses);
  EXPECT_EQ(snap.counter_value("wire.bus.ok"), traced_responses);
  EXPECT_EQ(snap.counter_value("wire.master.operations"),
            static_cast<std::uint64_t>(kPings));
  EXPECT_EQ(snap.counter_value("wire.master.frames_sent"), traced_cycles);
  // The cycle-latency histogram saw exactly one sample per traced response.
  const obs::Snapshot::HistogramSample* cycle_hist =
      snap.find_histogram("wire.bus.cycle_ns");
  ASSERT_NE(cycle_hist, nullptr);
  EXPECT_EQ(cycle_hist->histogram.count(), traced_responses);
  // And the sim clock stamped the snapshot with simulated (not wall) time.
  EXPECT_EQ(snap.sim_now_ns,
            static_cast<std::uint64_t>(rig.sim.now().count_ns()));
}

}  // namespace
}  // namespace tb::wire
