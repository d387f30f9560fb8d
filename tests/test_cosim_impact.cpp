#include "src/cosim/impact.hpp"

#include <gtest/gtest.h>

namespace tb::cosim {
namespace {

using namespace tb::sim::literals;

/// A fast-bus variant of the Table 4 cell so tests finish quickly.
ImpactConfig fast_cell() {
  ImpactConfig config;
  config.scenario.link.bit_rate_hz = 100'000;
  config.scenario.relay.poll_period = 5_ms;
  config.entry_payload = 32;
  config.lease = 60_s;
  config.take_timeout = 2_s;
  config.max_sim_time = 600_s;
  return config;
}

TEST(Impact, CompletesWithoutBackgroundTraffic) {
  const ImpactResult result = run_impact(fast_cell());
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.out_of_time);
  EXPECT_GT(result.total, sim::Time::zero());
  EXPECT_GT(result.write_latency, sim::Time::zero());
  EXPECT_GT(result.take_latency, sim::Time::zero());
  EXPECT_GT(result.bus_cycles, 0u);
  EXPECT_GT(result.bus_utilization, 0.0);
}

TEST(Impact, BackgroundCbrSlowsTheExchange) {
  ImpactConfig quiet = fast_cell();
  ImpactConfig loaded = fast_cell();
  loaded.cbr_rate_bps = 200.0;  // heavy for this bus speed
  const ImpactResult quiet_result = run_impact(quiet);
  const ImpactResult loaded_result = run_impact(loaded);
  ASSERT_TRUE(quiet_result.completed);
  ASSERT_TRUE(loaded_result.completed);
  EXPECT_GT(loaded_result.total, quiet_result.total);
  EXPECT_GT(loaded_result.cbr_packets_delivered, 0u);
}

TEST(Impact, TinyLeaseGoesOutOfTime) {
  ImpactConfig config = fast_cell();
  config.lease = 10_ms;  // expires in transit for sure
  const ImpactResult result = run_impact(config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.out_of_time);
}

TEST(Impact, TwoWireBeatsOneWire) {
  ImpactConfig one = fast_cell();
  one.set_wires(1);
  ImpactConfig two = fast_cell();
  two.set_wires(2);
  const ImpactResult r1 = run_impact(one);
  const ImpactResult r2 = run_impact(two);
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_LT(r2.total, r1.total);
}

TEST(Impact, DeterministicAcrossRuns) {
  const ImpactResult a = run_impact(fast_cell());
  const ImpactResult b = run_impact(fast_cell());
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.bus_cycles, b.bus_cycles);
}

TEST(Impact, ModeBCompletesDeterministicallyThroughTheRelay) {
  const ImpactResult a = run_impact_mode_b(fast_cell());
  const ImpactResult b = run_impact_mode_b(fast_cell());
  ASSERT_TRUE(a.completed);
  EXPECT_FALSE(a.out_of_time);
  EXPECT_GT(a.total, sim::Time::zero());
  EXPECT_GT(a.relay_bytes, 0u);  // every client/server byte crosses buses
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.bus_cycles, b.bus_cycles);
  EXPECT_EQ(a.relay_bytes, b.relay_bytes);
}

}  // namespace
}  // namespace tb::cosim
