// Fault-injection subsystem: exhaustive single-bit-flip sweeps over the
// frame and segment codecs, hook-driven flips on a live bus, and scenario
// level chaos plumbing (BER, slave crash/restart, stuck INT) with the
// invariant checker riding along.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cosim/scenario.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/invariants.hpp"
#include "src/fault/plan.hpp"
#include "src/sim/process.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/frame.hpp"
#include "src/wire/master.hpp"
#include "src/wire/segment.hpp"

namespace tb {
namespace {

using namespace tb::sim::literals;

// ---------------------------------------------------------------------------
// Codec-level sweeps: CRC-4 must reject every single-bit flip of every valid
// word. The one deliberate exception is the RX INT bit, which the spec keeps
// out of the CRC (it is ORed in by intermediate slaves) — flipping it must
// still decode, to the same frame with the interrupt flag inverted.

TEST(FaultSweep, EveryTxSingleBitFlipIsRejected) {
  int swept = 0;
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const auto word = static_cast<std::uint16_t>(w);
    if (!wire::TxFrame::decode(word)) continue;
    for (int bit = 0; bit < wire::kFrameBits; ++bit) {
      const auto flipped = static_cast<std::uint16_t>(word ^ (1u << bit));
      EXPECT_FALSE(wire::TxFrame::decode(flipped).has_value())
          << "word " << std::hex << word << " bit " << std::dec << bit;
      ++swept;
    }
  }
  EXPECT_EQ(swept, 8 * 256 * wire::kFrameBits);
}

TEST(FaultSweep, EveryRxSingleBitFlipIsRejectedExceptInt) {
  constexpr int kIntBit = 14;
  int swept = 0;
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const auto word = static_cast<std::uint16_t>(w);
    const auto frame = wire::RxFrame::decode(word);
    if (!frame) continue;
    for (int bit = 0; bit < wire::kFrameBits; ++bit) {
      const auto flipped = static_cast<std::uint16_t>(word ^ (1u << bit));
      const auto decoded = wire::RxFrame::decode(flipped);
      if (bit == kIntBit) {
        // CRC-exempt: decodes to the same payload with INT inverted.
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->intr, !frame->intr);
        EXPECT_EQ(decoded->type, frame->type);
        EXPECT_EQ(decoded->data, frame->data);
      } else {
        EXPECT_FALSE(decoded.has_value())
            << "word " << std::hex << word << " bit " << std::dec << bit;
      }
      ++swept;
    }
  }
  EXPECT_EQ(swept, 2 * 4 * 256 * wire::kFrameBits);
}

TEST(FaultSweep, EverySegmentSingleBitFlipYieldsNoSegment) {
  wire::RelaySegment segment;
  segment.src = 2;
  segment.dst = 3;
  segment.payload = {0x11, 0x22, 0x33, 0x44};
  const auto encoded = wire::encode_segment(segment);
  for (std::size_t bit = 0; bit < encoded.size() * 8; ++bit) {
    auto corrupted = encoded;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    wire::SegmentParser parser;
    parser.feed(corrupted);
    EXPECT_FALSE(parser.next().has_value()) << "bit " << bit;
  }
}

TEST(FaultSweep, ParserResynchronizesAfterCorruptSegment) {
  wire::RelaySegment segment;
  segment.src = 2;
  segment.dst = 3;
  segment.payload = {0x11, 0x22, 0x33, 0x44};
  auto corrupted = wire::encode_segment(segment);
  corrupted[wire::kSegmentHeaderBytes] ^= 0x01;  // first payload byte
  wire::SegmentParser parser;
  parser.feed(corrupted);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.crc_failures(), 1u);
  parser.feed(wire::encode_segment(segment));
  auto recovered = parser.next();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, segment);
}

// ---------------------------------------------------------------------------
// Live-bus sweeps through the word-fault hook: a flip anywhere in the first
// TX word must surface as a timeout (no slave acts on a bad frame) and be
// recovered by retry; a flip in the first RX word must surface as a CRC
// error and be recovered — except the INT bit, which is accepted as-is.

struct FlipOnce {
  int bit;
  bool on_rx;
  int remaining = 1;
  std::uint16_t operator()(std::uint16_t word, bool rx) {
    if (rx == on_rx && remaining > 0) {
      --remaining;
      return static_cast<std::uint16_t>(word ^ (1u << bit));
    }
    return word;
  }
};

struct FlipRun {
  wire::PingResult result;
  wire::OneWireBus::Stats bus;
  std::uint64_t retries = 0;
  std::uint64_t violations = 0;
};

FlipRun run_with_flip(int bit, bool on_rx) {
  sim::Simulator sim(1);
  wire::LinkConfig link;
  wire::OneWireBus bus(sim, link);
  wire::SlaveDevice slave(sim, 1, link);
  bus.attach(slave);
  wire::Master master(bus);
  fault::InvariantChecker checker;
  checker.watch_bus(bus);
  checker.watch_master(master);
  bus.set_word_fault(FlipOnce{bit, on_rx});

  FlipRun out;
  sim::spawn([&]() -> sim::Task<void> {
    out.result = co_await master.ping(1);
  });
  sim.run();
  out.bus = bus.stats();
  out.retries = master.stats().retries;
  out.violations = checker.violation_count();
  return out;
}

TEST(FaultHook, TxFlipsAllRecoverViaRetry) {
  for (int bit = 0; bit < wire::kFrameBits; ++bit) {
    const FlipRun run = run_with_flip(bit, /*on_rx=*/false);
    EXPECT_TRUE(run.result.ok()) << "bit " << bit;
    // A corrupted TX is invisible to every slave: the cycle times out and
    // the clean resend succeeds.
    EXPECT_EQ(run.bus.timeouts, 1u) << "bit " << bit;
    EXPECT_EQ(run.retries, 1u) << "bit " << bit;
    EXPECT_EQ(run.violations, 0u) << "bit " << bit;
  }
}

TEST(FaultHook, RxFlipsRecoverViaRetryExceptAdvisoryIntBit) {
  constexpr int kIntBit = 14;
  for (int bit = 0; bit < wire::kFrameBits; ++bit) {
    const FlipRun run = run_with_flip(bit, /*on_rx=*/true);
    EXPECT_TRUE(run.result.ok()) << "bit " << bit;
    EXPECT_EQ(run.violations, 0u) << "bit " << bit;
    if (bit == kIntBit) {
      // INT is CRC-exempt: the word is accepted first time, no retry.
      EXPECT_EQ(run.retries, 0u);
      EXPECT_EQ(run.bus.crc_errors, 0u);
    } else {
      EXPECT_EQ(run.bus.crc_errors, 1u) << "bit " << bit;
      EXPECT_EQ(run.retries, 1u) << "bit " << bit;
    }
  }
}

// The checker must be able to fire. With a deadline far below one bus
// cycle every transaction is overdue; past 32 messages it keeps counting.
TEST(FaultChecker, OverdueTransactionsReportedPastTheMessageCap) {
  sim::Simulator sim(1);
  wire::LinkConfig link;
  wire::OneWireBus bus(sim, link);
  wire::SlaveDevice slave(sim, 1, link);
  bus.attach(slave);
  wire::Master master(bus);
  fault::InvariantChecker checker({.op_deadline_factor = 1e-6});
  checker.watch_bus(bus);
  checker.watch_master(master);

  constexpr int kPings = 40;
  sim::spawn([&]() -> sim::Task<void> {
    for (int i = 0; i < kPings; ++i) {
      const wire::PingResult r = co_await master.ping(1);
      EXPECT_TRUE(r.ok());
    }
  });
  sim.run();

  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.stats().transactions_checked, std::uint64_t{kPings});
  EXPECT_EQ(checker.violation_count(), std::uint64_t{kPings});
  ASSERT_EQ(checker.violations().size(), 32u);
  EXPECT_NE(checker.violations()[0].find("master: transaction tx="),
            std::string::npos);
  const std::string report = checker.report();
  EXPECT_EQ(report.rfind("40 invariant violation(s):\n", 0), 0u) << report;
  EXPECT_NE(report.find(" took "), std::string::npos) << report;
  EXPECT_NE(report.find("(deadline "), std::string::npos) << report;
  EXPECT_NE(report.find("  ... and 8 more\n"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Scenario-level chaos plumbing.

TEST(FaultScenario, BitErrorsNeverCorruptTuplePayloads) {
  cosim::ScenarioConfig config;
  config.link.bit_rate_hz = 500'000;
  config.relay.poll_period = sim::Time::ms(1);
  config.use_xml_codec = false;
  config.fault.seed = 0xC0FFEE;
  config.fault.bit_error_rate = 1e-4;
  cosim::WireScenario scenario(config);

  mw::ClientConfig client_config;
  client_config.rpc_timeout = 5_s;
  client_config.rpc_retries = 8;
  mw::SpaceClient& client = scenario.add_client(0, client_config);
  scenario.start();

  constexpr int kRounds = 20;
  int completed = 0;
  sim::spawn([&]() -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      const space::Tuple written =
          space::make_tuple("blob", std::int64_t{round}, "payload-payload");
      auto wr = co_await client.write(written, 60_s);
      EXPECT_TRUE(wr.ok);
      space::Template tmpl(
          std::string("blob"),
          {space::FieldPattern::exact(space::Value(std::int64_t{round})),
           space::FieldPattern::any()});
      auto taken = co_await client.take(std::move(tmpl), 30_s);
      EXPECT_TRUE(taken.has_value());
      if (taken.has_value()) {
        // The tuple must come back exactly as written: any corrupted byte
        // slipping past CRC-4 + segment CRC-8 + codec would surface here.
        EXPECT_EQ(*taken, written);
        ++completed;
      }
    }
  });
  scenario.sim().run_until(sim::Time::sec(600));
  scenario.shutdown();

  EXPECT_EQ(completed, kRounds);
  // The plan must actually have flipped bits for this test to mean anything.
  EXPECT_GT(scenario.fault_plan().stats().bits_flipped, 0u);
  EXPECT_GT(scenario.master().stats().retries, 0u);
  scenario.checker().finish();
  EXPECT_TRUE(scenario.checker().ok()) << scenario.checker().report();
}

TEST(FaultScenario, SlaveCrashRestartAndStuckInterrupt) {
  cosim::ScenarioConfig config;
  config.with_server = false;
  config.fault.crashes.push_back({.slave_index = 3,
                                  .crash_at = sim::Time::sec(2),
                                  .restart_at = sim::Time::sec(4)});
  config.fault.stuck_interrupts.push_back(
      {.slave_index = 1, .from = sim::Time::ms(500), .until = 6_s});
  cosim::WireScenario scenario(config);
  wire::Master& master = scenario.master();

  wire::PingResult alive_before, dead, alive_after;
  wire::PingResult int_before, int_stuck;
  sim::spawn([&]() -> sim::Task<void> {
    int_before = co_await master.ping(2);     // stuck window not yet open
    alive_before = co_await master.ping(4);
    co_await sim::delay(scenario.sim(), 1_s);
    int_stuck = co_await master.ping(2);      // inside [0.5s, 6s)
    co_await sim::delay(scenario.sim(), 2_s); // ~3s: slave 4 is dead
    dead = co_await master.ping(4);
    co_await sim::delay(scenario.sim(), 2_s); // ~5s+: restarted
    alive_after = co_await master.ping(4);
  });
  scenario.sim().run();

  EXPECT_TRUE(alive_before.ok());
  EXPECT_EQ(dead.status, wire::WireStatus::kTimeout);
  EXPECT_TRUE(alive_after.ok());
  EXPECT_EQ(scenario.slave(3).stats().kills, 1u);
  EXPECT_EQ(scenario.slave(3).stats().restarts, 1u);

  EXPECT_TRUE(int_before.ok());
  EXPECT_FALSE(int_before.interrupt);
  EXPECT_TRUE(int_stuck.ok());
  EXPECT_TRUE(int_stuck.interrupt);  // INT line stuck despite empty outbox

  scenario.checker().finish();
  EXPECT_TRUE(scenario.checker().ok()) << scenario.checker().report();
}

// ---------------------------------------------------------------------------
// FaultPlan determinism at the unit level: identical seeds give identical
// bit-error streams, different seeds diverge.

TEST(FaultPlan, SameSeedSameDecisions) {
  fault::FaultPlanConfig config;
  config.seed = 77;
  config.bit_error_rate = 0.01;
  fault::FaultPlan a(config), b(config);

  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.perturb_word(0x1234, i % 2 == 0), b.perturb_word(0x1234, i % 2 == 0));
  }
  EXPECT_EQ(a.stats().bits_flipped, b.stats().bits_flipped);
  EXPECT_GT(a.stats().bits_flipped, 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  fault::FaultPlanConfig config;
  config.bit_error_rate = 0.01;
  config.seed = 1;
  fault::FaultPlan a(config);
  config.seed = 2;
  fault::FaultPlan b(config);
  bool diverged = false;
  for (int i = 0; i < 2'000 && !diverged; ++i) {
    diverged = a.perturb_word(0x5555, false) != b.perturb_word(0x5555, false);
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace tb
