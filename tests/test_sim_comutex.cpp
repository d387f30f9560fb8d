#include "src/sim/comutex.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <memory>
#include <vector>

#include "src/sim/process.hpp"
#include "src/sim/trigger.hpp"

namespace tb::sim {
namespace {

using namespace tb::sim::literals;

TEST(CoMutex, UncontendedLockIsImmediate) {
  Simulator sim;
  CoMutex mutex(sim);
  bool inside = false;
  spawn([&]() -> Task<void> {
    co_await mutex.lock();
    inside = mutex.locked();
    mutex.unlock();
  });
  EXPECT_TRUE(inside);  // ran synchronously: never suspended
  EXPECT_FALSE(mutex.locked());
}

TEST(CoMutex, SerializesCriticalSections) {
  Simulator sim;
  CoMutex mutex(sim);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 5; ++i) {
    spawn([&]() -> Task<void> {
      co_await mutex.lock();
      ++inside;
      max_inside = std::max(max_inside, inside);
      co_await delay(sim, 10_ms);
      --inside;
      mutex.unlock();
    });
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(sim.now(), 50_ms);  // five sections of 10 ms, serialized
}

TEST(CoMutex, FifoHandoff) {
  Simulator sim;
  CoMutex mutex(sim);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn([&, i]() -> Task<void> {
      co_await mutex.lock();
      order.push_back(i);
      co_await delay(sim, 1_ms);
      mutex.unlock();
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CoMutex, GuardUnlocksOnScopeExit) {
  Simulator sim;
  CoMutex mutex(sim);
  spawn([&]() -> Task<void> {
    co_await mutex.lock();
    {
      CoMutex::Guard guard(mutex);
      co_await delay(sim, 1_ms);
    }
    EXPECT_FALSE(mutex.locked());
  });
  sim.run();
  EXPECT_FALSE(mutex.locked());
}

TEST(CoMutex, UnlockWithoutLockThrows) {
  Simulator sim;
  CoMutex mutex(sim);
  EXPECT_THROW(mutex.unlock(), util::PreconditionError);
}

TEST(CoMutex, WaiterCountTracksQueue) {
  Simulator sim;
  CoMutex mutex(sim);
  for (int i = 0; i < 3; ++i) {
    spawn([&]() -> Task<void> {
      co_await mutex.lock();
      co_await delay(sim, 1_ms);
      mutex.unlock();
    });
  }
  EXPECT_EQ(mutex.waiter_count(), 2u);  // one holds, two queued
  sim.run();
  EXPECT_EQ(mutex.waiter_count(), 0u);
}

TEST(CoMutex, DestroyingTheSimulatorReleasesAParkedGuard) {
  auto sim = std::make_unique<Simulator>();
  CoMutex mutex(*sim);
  Trigger never(*sim);
  spawn([&]() -> Task<void> {
    co_await mutex.lock();
    CoMutex::Guard guard(mutex);
    co_await never.wait();
  });
  sim->run();
  EXPECT_TRUE(mutex.locked());
  sim.reset();  // reaps the parked process; its guard unlocks
  EXPECT_FALSE(mutex.locked());
}

TEST(CoMutex, GuardOutlivingItsMutexIsDetached) {
  Simulator sim;
  Trigger never(sim);
  auto mutex = std::make_unique<CoMutex>(sim);
  bool locked = false;
  spawn([&]() -> Task<void> {
    co_await mutex->lock();
    CoMutex::Guard guard(*mutex);
    locked = true;
    co_await never.wait();
  });
  sim.run();
  EXPECT_TRUE(locked);
  // The mutex dies before the frame holding its guard; the simulator then
  // reaps the frame, and the guard must not touch the dead mutex.
  mutex.reset();
}

}  // namespace
}  // namespace tb::sim
