#include "src/sim/trigger.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tb::sim {
namespace {

using namespace tb::sim::literals;

TEST(Trigger, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  Trigger trigger(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([&]() -> Task<void> {
      co_await trigger.wait();
      ++woken;
    });
  }
  EXPECT_EQ(trigger.waiter_count(), 3u);
  sim.schedule_at(10_ms, [&] { trigger.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(trigger.waiter_count(), 0u);
}

TEST(Trigger, NotifyWithNoWaitersIsNoop) {
  Simulator sim;
  Trigger trigger(sim);
  trigger.notify_all();
  sim.run();
  SUCCEED();
}

TEST(Trigger, TimedWaitNotifiedInTime) {
  Simulator sim;
  Trigger trigger(sim);
  bool notified = false;
  Time resumed_at;
  spawn([&]() -> Task<void> {
    notified = co_await trigger.wait_for(100_ms);
    resumed_at = sim.now();
  });
  sim.schedule_at(30_ms, [&] { trigger.notify_all(); });
  sim.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(resumed_at, 30_ms);
}

TEST(Trigger, TimedWaitTimesOut) {
  Simulator sim;
  Trigger trigger(sim);
  bool notified = true;
  Time resumed_at;
  spawn([&]() -> Task<void> {
    notified = co_await trigger.wait_for(100_ms);
    resumed_at = sim.now();
  });
  sim.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(resumed_at, 100_ms);
  EXPECT_EQ(trigger.waiter_count(), 0u);
}

TEST(Trigger, TimeoutDoesNotFireAfterNotify) {
  Simulator sim;
  Trigger trigger(sim);
  int resumes = 0;
  spawn([&]() -> Task<void> {
    co_await trigger.wait_for(100_ms);
    ++resumes;
  });
  sim.schedule_at(10_ms, [&] { trigger.notify_all(); });
  sim.run_until(1_s);
  EXPECT_EQ(resumes, 1);
}

TEST(Trigger, WaitersRegisteredDuringNotifyWaitForNext) {
  Simulator sim;
  Trigger trigger(sim);
  std::vector<int> log;
  spawn([&]() -> Task<void> {
    co_await trigger.wait();
    log.push_back(1);
    co_await trigger.wait();  // re-arm: must not consume the same notify
    log.push_back(2);
  });
  sim.schedule_at(1_ms, [&] { trigger.notify_all(); });
  sim.schedule_at(2_ms, [&] { trigger.notify_all(); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Trigger, ZeroTimeoutStillParksOneRound) {
  Simulator sim;
  Trigger trigger(sim);
  bool notified = true;
  spawn([&]() -> Task<void> {
    notified = co_await trigger.wait_for(Time::zero());
  });
  sim.run();
  EXPECT_FALSE(notified);
}

TEST(Trigger, ManyWaitersStress) {
  Simulator sim;
  Trigger trigger(sim);
  int woken = 0;
  constexpr int kWaiters = 500;
  for (int i = 0; i < kWaiters; ++i) {
    spawn([&]() -> Task<void> {
      co_await trigger.wait();
      ++woken;
    });
  }
  sim.schedule_at(1_ms, [&] { trigger.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, kWaiters);
}

}  // namespace
}  // namespace tb::sim
