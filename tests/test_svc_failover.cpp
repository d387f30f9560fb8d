// The paper's §2.1 redundant-actuator algorithm (Figure 1).
#include "src/svc/failover.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include "src/sim/process.hpp"

namespace tb::svc {
namespace {

using namespace tb::sim::literals;

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : space_(sim_), api_(space_) {}

  FailoverConfig config() const {
    FailoverConfig c;
    c.tick = 100_ms;
    c.grace = 350_ms;
    c.heartbeat_lease = 400_ms;
    c.election_timeout = 1_s;
    return c;
  }

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  LocalSpaceApi api_;
};

TEST_F(FailoverTest, ControlArmsAndExactlyOneActuatorWins) {
  ActuatorAgent a(api_, "act-A", 0, config());
  ActuatorAgent b(api_, "act-B", 1, config());
  ControlAgent control(api_, config());

  a.start();
  b.start();
  bool armed = false;
  sim::spawn([&]() -> sim::Task<void> {
    armed = co_await control.arm(5_s);
  });
  sim_.run_until(3_s);

  EXPECT_TRUE(armed);
  const bool a_operating = a.state() == ActuatorAgent::State::kOperating;
  const bool b_operating = b.state() == ActuatorAgent::State::kOperating;
  EXPECT_NE(a_operating, b_operating);  // exactly one
  EXPECT_TRUE((a.state() == ActuatorAgent::State::kBackup) != a_operating
                  ? true
                  : b.state() == ActuatorAgent::State::kBackup);
}

TEST_F(FailoverTest, OperatingAgentActuatesEachTick) {
  std::uint64_t ticks_seen = 0;
  ActuatorAgent a(api_, "act-A", 0, config(),
                  [&](std::uint64_t) { ++ticks_seen; });
  ControlAgent control(api_, config());
  a.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(2_s);
  EXPECT_GT(ticks_seen, 10u);
  EXPECT_EQ(a.stats().ticks_operated, ticks_seen);
}

TEST_F(FailoverTest, BackupConsumesHeartbeats) {
  ActuatorAgent a(api_, "act-A", 0, config());
  ActuatorAgent b(api_, "act-B", 1, config());
  ControlAgent control(api_, config());
  a.start();
  b.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(5_s);

  ActuatorAgent& backup =
      a.state() == ActuatorAgent::State::kBackup ? a : b;
  EXPECT_EQ(backup.state(), ActuatorAgent::State::kBackup);
  EXPECT_GT(backup.stats().heartbeats_consumed, 10u);
  EXPECT_EQ(backup.stats().takeovers, 0u);
  // Heartbeats must not pile up in the space.
  EXPECT_LT(space_.size(), 3u);
}

TEST_F(FailoverTest, BackupTakesOverAfterFailure) {
  ActuatorAgent a(api_, "act-A", 0, config());
  ActuatorAgent b(api_, "act-B", 1, config());
  ControlAgent control(api_, config());
  a.start();
  b.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(3_s);

  ActuatorAgent& operating =
      a.state() == ActuatorAgent::State::kOperating ? a : b;
  ActuatorAgent& backup = (&operating == &a) ? b : a;
  ASSERT_EQ(operating.state(), ActuatorAgent::State::kOperating);
  ASSERT_EQ(backup.state(), ActuatorAgent::State::kBackup);

  const sim::Time failed_at = sim_.now();
  operating.fail();
  sim_.run_until(failed_at + 5_s);

  EXPECT_EQ(backup.state(), ActuatorAgent::State::kOperating);
  EXPECT_EQ(backup.stats().takeovers, 1u);
  // Recovery latency is bounded by heartbeat staleness + grace windows.
  const sim::Time recovery =
      backup.stats().became_operating_at - failed_at;
  EXPECT_LT(recovery, 2_s);
  EXPECT_GT(backup.stats().ticks_operated, 0u);
}

TEST_F(FailoverTest, RecoveredSystemKeepsHeartbeating) {
  ActuatorAgent a(api_, "act-A", 0, config());
  ActuatorAgent b(api_, "act-B", 1, config());
  ControlAgent control(api_, config());
  a.start();
  b.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(2_s);
  (a.state() == ActuatorAgent::State::kOperating ? a : b).fail();
  sim_.run_until(10_s);

  ActuatorAgent& survivor =
      a.state() == ActuatorAgent::State::kFailed ? b : a;
  const auto ticks_at_10s = survivor.stats().ticks_operated;
  sim_.run_until(12_s);
  EXPECT_GT(survivor.stats().ticks_operated, ticks_at_10s);
}

TEST_F(FailoverTest, ThreeReplicasFailTwice) {
  FailoverConfig c = config();
  // With two backups round-robining heartbeat consumption, each sees one
  // every other tick; the grace window must cover that plus rank stagger.
  c.grace = 800_ms;
  ActuatorAgent a(api_, "act-A", 0, c);
  ActuatorAgent b(api_, "act-B", 1, c);
  ActuatorAgent d(api_, "act-C", 2, c);
  ControlAgent control(api_, c);
  a.start();
  b.start();
  d.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(4_s);

  auto operating_count = [&] {
    int n = 0;
    for (ActuatorAgent* agent : {&a, &b, &d}) {
      if (agent->state() == ActuatorAgent::State::kOperating) ++n;
    }
    return n;
  };
  ASSERT_EQ(operating_count(), 1);

  // Kill the operating agent twice; the remaining replicas must recover.
  for (int round = 0; round < 2; ++round) {
    for (ActuatorAgent* agent : {&a, &b, &d}) {
      if (agent->state() == ActuatorAgent::State::kOperating) {
        agent->fail();
        break;
      }
    }
    sim_.run_until(sim_.now() + 10_s);
    EXPECT_EQ(operating_count(), 1) << "round " << round;
  }
}

TEST_F(FailoverTest, ControlArmTimesOutWithNoActuators) {
  ControlAgent control(api_, config());
  bool armed = true;
  sim::spawn([&]() -> sim::Task<void> {
    armed = co_await control.arm(2_s);
  });
  sim_.run_until(5_s);
  EXPECT_FALSE(armed);
}

TEST_F(FailoverTest, CannotStartTwice) {
  ActuatorAgent a(api_, "act-A", 0, config());
  a.start();
  EXPECT_THROW(a.start(), util::PreconditionError);
}

// --- StandbyGuard (federation promotion, DESIGN.md §16) ----------------------

class StandbyGuardTest : public FailoverTest {
 protected:
  /// Primary-side beat loop: writes heartbeats until `beats` have gone out,
  /// then falls silent (the crash).
  sim::Task<void> beat_then_die(std::uint32_t node, int beats) {
    for (int i = 0; i < beats; ++i) {
      co_await api_.write(StandbyGuard::heartbeat(node),
                          config().heartbeat_lease);
      co_await sim::delay(sim_, config().tick);
    }
  }
};

TEST_F(StandbyGuardTest, HealthyPrimaryIsNeverPromotedOver) {
  int promoted = 0;
  StandbyGuard guard(api_, 1, config(), [&] { ++promoted; });
  guard.start();
  sim::spawn(beat_then_die(1, 40));
  sim_.run_until(3_s);

  EXPECT_EQ(guard.state(), StandbyGuard::State::kWatching);
  EXPECT_EQ(promoted, 0);
  EXPECT_GT(guard.stats().heartbeats_consumed, 10u);
}

TEST_F(StandbyGuardTest, SilenceTriggersExactlyOnePromotion) {
  int promoted = 0;
  StandbyGuard guard(api_, 1, config(), [&] { ++promoted; });
  guard.start();
  sim::spawn(beat_then_die(1, 5));  // last beat goes out at t = 400ms
  sim_.run_until(10_s);

  EXPECT_EQ(guard.state(), StandbyGuard::State::kActive);
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(guard.stats().promotions, 1u);
  // Detection cost: one grace window after the last beat, not sooner.
  EXPECT_GE(guard.stats().promoted_at, 400_ms + config().grace);
  EXPECT_LT(guard.stats().promoted_at, 2_s);
}

TEST_F(StandbyGuardTest, IgnoresOtherNodesHeartbeats) {
  int promoted = 0;
  StandbyGuard guard(api_, 1, config(), [&] { ++promoted; });
  guard.start();
  sim::spawn(beat_then_die(2, 40));  // wrong node keeps beating
  sim_.run_until(5_s);

  EXPECT_EQ(guard.state(), StandbyGuard::State::kActive);
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(guard.stats().heartbeats_consumed, 0u);
}

TEST_F(StandbyGuardTest, CannotStartTwice) {
  StandbyGuard guard(api_, 1, config(), {});
  guard.start();
  EXPECT_THROW(guard.start(), util::PreconditionError);
}

}  // namespace
}  // namespace tb::svc
