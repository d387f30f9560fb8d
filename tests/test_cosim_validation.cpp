#include "src/cosim/validation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cosim/scenario.hpp"
#include "src/sim/process.hpp"
#include "src/wire/frame_bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/timing.hpp"

namespace tb::cosim {
namespace {

ValidationConfig small_config() {
  ValidationConfig config;
  config.frame_counts = {100, 500};
  return config;
}

/// The level sweep's workload on one bus: `pings` back-to-back PINGs to
/// `target` on a chain of `slaves`, all fault-free.
struct PingRig {
  sim::Simulator sim;
  std::unique_ptr<wire::BusModel> bus;
  std::vector<std::unique_ptr<wire::SlaveDevice>> chain;
  wire::Master master;

  PingRig(wire::BusModelLevel level, const wire::LinkConfig& link, int slaves)
      : bus(wire::make_bus_model(level, sim, link)), master(*bus) {
    for (int i = 0; i < slaves; ++i) {
      chain.push_back(std::make_unique<wire::SlaveDevice>(
          sim, static_cast<std::uint8_t>(i + 1), link));
      bus->attach(*chain.back());
    }
  }

  void run(int target, int pings) {
    sim::spawn([this, target, pings]() -> sim::Task<void> {
      for (int i = 0; i < pings; ++i) {
        const wire::PingResult r =
            co_await master.ping(static_cast<std::uint8_t>(target + 1));
        EXPECT_TRUE(r.ok());
      }
    });
    sim.run();
  }
};

TEST(Validation, ZeroOverheadModelsAgreeExactly) {
  ValidationConfig config = small_config();
  config.controller_overhead_bits = 0.0;
  const ValidationReport report = run_frame_validation(config);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const ValidationRow& row : report.rows) {
    EXPECT_DOUBLE_EQ(row.hardware_sec, row.simulated_sec);
    EXPECT_DOUBLE_EQ(row.ratio, 1.0);
  }
  EXPECT_DOUBLE_EQ(report.scaling_factor, 1.0);
}

TEST(Validation, ControllerOverheadProducesStableScalingFactor) {
  ValidationConfig config = small_config();
  config.controller_overhead_bits = 4.0;
  const ValidationReport report = run_frame_validation(config);
  // The overhead inflates the "hardware" time by a frame-count-independent
  // factor: exactly the paper's scaling-factor structure.
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_GT(report.scaling_factor, 1.0);
  EXPECT_NEAR(report.rows[0].ratio, report.rows[1].ratio, 1e-9);
  // reply_cycle = 16+2+4+16+2+2 = 42 bits; +4 overhead -> 46/42.
  const wire::AnalyticTiming ideal(config.link, 0.0);
  const wire::AnalyticTiming overhead(config.link, 4.0);
  EXPECT_NEAR(report.scaling_factor,
              overhead.reply_cycle(1).seconds() / ideal.reply_cycle(1).seconds(),
              1e-9);
}

TEST(Validation, TimeScalesLinearlyWithFrameCount) {
  ValidationConfig config;
  config.frame_counts = {100, 1'000};
  const ValidationReport report = run_frame_validation(config);
  EXPECT_NEAR(report.rows[1].simulated_sec / report.rows[0].simulated_sec,
              10.0, 1e-6);
}

TEST(Validation, FasterBusShrinksAbsoluteTimes) {
  ValidationConfig slow = small_config();
  slow.link.bit_rate_hz = 9'600;
  ValidationConfig fast = small_config();
  fast.link.bit_rate_hz = 96'000;
  const auto slow_report = run_frame_validation(slow);
  const auto fast_report = run_frame_validation(fast);
  EXPECT_NEAR(slow_report.rows[0].simulated_sec /
                  fast_report.rows[0].simulated_sec,
              10.0, 0.01);
}

TEST(Validation, RealtimeCheckPacesAgainstWallClock) {
  ValidationConfig config = small_config();
  // 100 frames * ~4.4 ms/frame ~ 0.44 s sim; at 100x ~ 4.4 ms wall.
  const RealtimeCheck check = run_realtime_check(100, 100.0, config);
  EXPECT_GT(check.sim_seconds, 0.1);
  EXPECT_GT(check.wall_seconds, check.sim_seconds / 100.0 * 0.5);
  EXPECT_GT(check.events, 100u);
}

TEST(Validation, TargetSlavePositionAffectsTiming) {
  ValidationConfig near = small_config();
  near.slave_count = 8;
  near.target_slave = 0;
  ValidationConfig far = small_config();
  far.slave_count = 8;
  far.target_slave = 7;
  const auto near_report = run_frame_validation(near);
  const auto far_report = run_frame_validation(far);
  // Seven extra hop pairs each way make the far slave measurably slower.
  EXPECT_GT(far_report.rows[0].simulated_sec,
            near_report.rows[0].simulated_sec);
}

TEST(ScenarioValidate, DefaultAndFrameLevelConfigsPass) {
  ScenarioConfig config;
  EXPECT_TRUE(config.validate().ok());
  config.bus_model_level = wire::BusModelLevel::kFrameLevel;
  EXPECT_TRUE(config.validate().ok());
  config.faults.tx_corrupt_prob = 0.1;  // event levels can corrupt words
  EXPECT_TRUE(config.validate().ok());
}

TEST(ScenarioValidate, AnalyticLevelRejected) {
  // The analytic level has no event-driven bus to build, so WireScenario
  // can never host it — even a fault-free config is rejected.
  ScenarioConfig config;
  config.bus_model_level = wire::BusModelLevel::kAnalytic;
  const util::Status status = config.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("analytic"), std::string::npos);
}

TEST(ScenarioValidate, AnalyticLevelWithFaultPlanNamesThePlan) {
  ScenarioConfig config;
  config.bus_model_level = wire::BusModelLevel::kAnalytic;
  config.fault.bit_error_rate = 0.01;
  const util::Status status = config.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fault plan"), std::string::npos);
}

TEST(ScenarioValidate, AnalyticLevelWithCorruptionNamesFaultConfig) {
  ScenarioConfig config;
  config.bus_model_level = wire::BusModelLevel::kAnalytic;
  config.faults.rx_corrupt_prob = 0.05;
  const util::Status status = config.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("corruption"), std::string::npos);
}

TEST(ScenarioValidate, UnknownLevelRejected) {
  ScenarioConfig config;
  config.bus_model_level = static_cast<wire::BusModelLevel>(7);
  EXPECT_FALSE(config.validate().ok());
}

TEST(ScenarioValidate, TopologyBoundsChecked) {
  ScenarioConfig config;
  config.slave_count = 0;
  EXPECT_FALSE(config.validate().ok());
  config.slave_count = wire::kMaxNodeId + 1;
  EXPECT_FALSE(config.validate().ok());
  config.slave_count = 4;
  config.server_slave = 4;  // with_server: index must be < slave_count
  EXPECT_FALSE(config.validate().ok());
  config.with_server = false;  // no server, no constraint on the index
  EXPECT_TRUE(config.validate().ok());
}

TEST(LevelSweep, FaultFreeLevelsAgreeExactly) {
  ValidationConfig config = small_config();
  // Deep chain: the frame level's one-slave-per-cycle advantage scales
  // with the hop count the bit-accurate model walks.
  config.slave_count = 16;
  config.target_slave = 15;
  const LevelSweepReport report = run_level_sweep(config);
  // 3 levels x 2 frame counts.
  ASSERT_EQ(report.rows.size(), 6u);
  // The CI gate is zero-tolerance: the fast levels reproduce the
  // bit-accurate simulated time exactly, not approximately.
  EXPECT_DOUBLE_EQ(report.max_cross_level_error, 0.0);
  EXPECT_TRUE(report.agrees(0.0));
  for (const LevelRow& row : report.rows) {
    EXPECT_GT(row.simulated_sec, 0.0);
    if (row.level == wire::BusModelLevel::kAnalytic) {
      EXPECT_EQ(row.events, 0u);  // closed form: no event model at all
    } else {
      EXPECT_GT(row.events, 0u);
    }
  }

  // What separates the levels is the work per cycle, not the event count
  // (the kernel advances a lone bus chain in place at either level). The
  // bit-accurate level routes every TX word through every slave...
  PingRig bit(wire::BusModelLevel::kBitAccurate, config.link,
              config.slave_count);
  bit.run(config.target_slave, 50);
  const std::uint64_t cycles = bit.bus->stats().cycles;
  EXPECT_EQ(cycles, 50u);
  for (const auto& slave : bit.chain) {
    EXPECT_EQ(slave->stats().frames_observed, cycles);
  }
  // ...while the frame level's fast path touches only the target slave.
  PingRig frame(wire::BusModelLevel::kFrameLevel, config.link,
                config.slave_count);
  frame.run(config.target_slave, 50);
  const auto& frame_bus = static_cast<const wire::FrameLevelBus&>(*frame.bus);
  EXPECT_EQ(frame.bus->stats().cycles, cycles);
  EXPECT_EQ(frame_bus.fast_path_cycles(), cycles);
  EXPECT_EQ(frame_bus.slow_path_cycles(), 0u);
  EXPECT_EQ(frame.sim.now(), bit.sim.now());
}

TEST(LevelSweep, ScalingFactorsTrackControllerOverhead) {
  ValidationConfig config = small_config();
  config.controller_overhead_bits = 4.0;
  const LevelSweepReport report = run_level_sweep(config);
  // Every level runs the ideal protocol model, so each derives the same
  // Table-3-style hardware/model scaling factor.
  const wire::AnalyticTiming ideal(config.link, 0.0);
  const wire::AnalyticTiming hw(config.link, 4.0);
  const double expected = hw.reply_cycle(config.target_slave).seconds() /
                          ideal.reply_cycle(config.target_slave).seconds();
  EXPECT_NEAR(report.bit_scaling, expected, 1e-9);
  EXPECT_NEAR(report.frame_scaling, expected, 1e-9);
  EXPECT_NEAR(report.analytic_scaling, expected, 1e-9);
  EXPECT_DOUBLE_EQ(report.max_cross_level_error, 0.0);
}

}  // namespace
}  // namespace tb::cosim
