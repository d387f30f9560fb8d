#include "src/sim/process.hpp"

#include <gtest/gtest.h>

#include "src/sim/trigger.hpp"
#include "src/util/assert.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

namespace tb::sim {
namespace {

using namespace tb::sim::literals;

Task<void> simple_delays(Simulator& sim, std::vector<Time>& trace) {
  trace.push_back(sim.now());
  co_await delay(sim, 10_ms);
  trace.push_back(sim.now());
  co_await delay(sim, 5_ms);
  trace.push_back(sim.now());
}

TEST(Process, DelaysAdvanceSimTime) {
  Simulator sim;
  std::vector<Time> trace;
  spawn(simple_delays(sim, trace));
  sim.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], Time::zero());
  EXPECT_EQ(trace[1], 10_ms);
  EXPECT_EQ(trace[2], 15_ms);
}

TEST(Process, SpawnRunsSynchronouslyUntilFirstSuspend) {
  Simulator sim;
  bool started = false;
  // Keep the closure alive for the coroutine's lifetime (the frame only
  // references the closure object, it does not copy captures).
  auto body = [&]() -> Task<void> {
    started = true;
    co_await delay(sim, 1_ms);
  };
  Task<void> task = body();
  EXPECT_FALSE(started);  // lazy until spawned
  spawn(std::move(task));
  EXPECT_TRUE(started);
  sim.run();
}

TEST(Process, ZeroDelayIsReady) {
  Simulator sim;
  int steps = 0;
  spawn([&]() -> Task<void> {
    co_await delay(sim, Time::zero());
    ++steps;
    co_await delay(sim, Time::ns(0));
    ++steps;
  });
  // Zero delays never suspend, so the whole body ran inside spawn().
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task<int> answer(Simulator& sim) {
  co_await delay(sim, 1_ms);
  co_return 42;
}

TEST(Process, AwaitingChildTaskPropagatesValue) {
  Simulator sim;
  int result = 0;
  spawn([&]() -> Task<void> {
    result = co_await answer(sim);
  });
  sim.run();
  EXPECT_EQ(result, 42);
}

Task<int> immediate_value() { co_return 7; }

TEST(Process, ChildWithoutSuspensionCompletesInline) {
  Simulator sim;
  int result = 0;
  spawn([&]() -> Task<void> {
    result = co_await immediate_value();
  });
  EXPECT_EQ(result, 7);
}

TEST(Process, NestedChildren) {
  Simulator sim;
  std::vector<int> order;
  auto inner = [&](int tag) -> Task<int> {
    co_await delay(sim, 1_ms);
    order.push_back(tag);
    co_return tag * 10;
  };
  spawn([&]() -> Task<void> {
    const int a = co_await inner(1);
    const int b = co_await inner(2);
    order.push_back(a + b);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 30}));
  EXPECT_EQ(sim.now(), 2_ms);
}

Task<int> throws_after_delay(Simulator& sim) {
  co_await delay(sim, 1_ms);
  throw std::runtime_error("boom");
}

TEST(Process, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  spawn([&]() -> Task<void> {
    try {
      (void)co_await throws_after_delay(sim);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  });
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Process, DetachedExceptionEscapesRun) {
  Simulator sim;
  spawn([&]() -> Task<void> {
    co_await delay(sim, 1_ms);
    throw std::runtime_error("detached boom");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([&order, &sim, i]() -> Task<void> {
      for (int step = 0; step < 3; ++step) {
        co_await delay(sim, Time::ms(1 + i));
        order.push_back(i * 10 + step);
      }
    });
  }
  sim.run();
  // Process 0 ticks at 1,2,3 ms; process 1 at 2,4,6; process 2 at 3,6,9.
  // Ties (t=2: procs 0,1; t=6: procs 1,2) break by scheduling order: the
  // event scheduled earlier fires first.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 20, 2, 11, 21, 12, 22}));
}

TEST(Task, MoveSemantics) {
  Simulator sim;
  Task<void> task = [&]() -> Task<void> { co_await delay(sim, 1_ms); }();
  EXPECT_TRUE(task.valid());
  Task<void> moved = std::move(task);
  EXPECT_FALSE(task.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.valid());
  // Destroying an unstarted task must not leak or crash (checked by ASAN-ish
  // builds; here we just exercise the path).
}

TEST(Task, SpawnRejectsEmpty) {
  Task<void> empty;
  EXPECT_THROW(spawn(std::move(empty)), util::PreconditionError);
}

// --- ownership: the simulator reaps the processes still suspended ---------

/// Counts its destructor runs; stands in for any RAII local of a process.
struct Sentinel {
  int* destroyed;
  ~Sentinel() { ++*destroyed; }
};

Task<void> park_on(Trigger& never, int& destroyed) {
  Sentinel sentinel{&destroyed};
  co_await never.wait();
}

Task<void> park_in_child(Trigger& never, int& parent_destroyed,
                         int& child_destroyed) {
  Sentinel sentinel{&parent_destroyed};
  co_await park_on(never, child_destroyed);
}

Task<void> finish_after(Simulator& sim, Time d, int& destroyed) {
  Sentinel sentinel{&destroyed};
  co_await delay(sim, d);
}

TEST(ProcessOwnership, SimulatorDestroysProcessParkedOnTrigger) {
  int destroyed = 0;
  {
    Simulator sim;
    Trigger never(sim);
    spawn(park_on(never, destroyed));
    sim.run();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(ProcessOwnership, SimulatorDestroysChildTheProcessAwaits) {
  int parent_destroyed = 0;
  int child_destroyed = 0;
  {
    Simulator sim;
    Trigger never(sim);
    spawn(park_in_child(never, parent_destroyed, child_destroyed));
    sim.run();
    EXPECT_EQ(parent_destroyed + child_destroyed, 0);
  }
  EXPECT_EQ(parent_destroyed, 1);
  EXPECT_EQ(child_destroyed, 1);
}

TEST(ProcessOwnership, FinishedProcessIsNotDestroyedAgain) {
  int destroyed = 0;
  {
    Simulator sim;
    spawn(finish_after(sim, 1_ms, destroyed));
    sim.run();
    EXPECT_EQ(destroyed, 1);  // freed itself on completion
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(ProcessOwnership, ProcessWhoseExceptionEscapedIsFreed) {
  int destroyed = 0;
  {
    Simulator sim;
    spawn([&]() -> Task<void> {
      Sentinel sentinel{&destroyed};
      co_await delay(sim, 1_ms);
      throw std::runtime_error("boom");
    });
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(destroyed, 1);  // unwound; the frame waits for the simulator
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(ProcessOwnership, SpawnInsideRunBindsToTheSimulatorBeingRun) {
  int destroyed = 0;
  auto older = std::make_unique<Simulator>();
  auto newer = std::make_unique<Simulator>();
  Trigger never(*older);
  older->schedule_in(1_ms, [&] { spawn(park_on(never, destroyed)); });
  older->run();
  newer.reset();
  EXPECT_EQ(destroyed, 0);
  older.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(ProcessOwnership, SpawnOutsideRunBindsToTheNewestSimulator) {
  int destroyed = 0;
  auto older = std::make_unique<Simulator>();
  auto newer = std::make_unique<Simulator>();
  Trigger never(*newer);
  spawn(park_on(never, destroyed));
  older.reset();
  EXPECT_EQ(destroyed, 0);
  newer.reset();
  EXPECT_EQ(destroyed, 1);
}

// A private simulator (an oracle's ticket clock) built after the model's
// own never captures the model's spawns.
TEST(ProcessOwnership, SpawnOutsideRunSkipsAPrivateSimulator) {
  int destroyed = 0;
  auto model = std::make_unique<Simulator>();
  auto oracle = std::make_unique<Simulator>(1, Simulator::Binding::kPrivate);
  Trigger never(*model);
  spawn(park_on(never, destroyed));
  oracle.reset();
  EXPECT_EQ(destroyed, 0);
  model.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(ProcessOwnership, SpawnRequiresALiveSimulator) {
  { Simulator gone; }
  bool started = false;
  EXPECT_THROW(spawn([&]() -> Task<void> {
                 started = true;
                 co_return;
               }),
               util::PreconditionError);
  EXPECT_FALSE(started);
}

}  // namespace
}  // namespace tb::sim
