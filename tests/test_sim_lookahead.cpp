// Kernel lookahead (DESIGN.md §8): a delay awaited at the tail of a
// delay-resume event advances now() in place when no other event could run
// first. These tests pin each condition of that rule and check that an
// advanced delay is observably the same as a scheduled one: same wake-up
// times, same order against pending events, same perturbation-hook calls.
#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/process.hpp"
#include "src/sim/realtime.hpp"
#include "src/sim/simulator.hpp"

namespace tb::sim {
namespace {

using namespace tb::sim::literals;

/// `count` back-to-back delays of `d`, logging the time after each.
Task<void> delays(Simulator& sim, int count, Time d, std::vector<Time>& at) {
  for (int i = 0; i < count; ++i) {
    co_await delay(sim, d);
    at.push_back(sim.now());
  }
}

/// Parks the awaiting coroutine until someone resumes the stored handle.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const {}
};

TEST(Lookahead, DelayTailAdvancesInPlace) {
  Simulator sim;
  std::vector<Time> at;
  spawn(delays(sim, 5, 1_ms, at));
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{1_ms, 2_ms, 3_ms, 4_ms, 5_ms}));
  // The first delay is awaited inside spawn(), not in a delay-resume
  // event, so it is the one event; the other four advance in place.
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.advanced_events(), 4u);
  EXPECT_EQ(sim.scheduled_events(), 1u);
}

TEST(Lookahead, OneEventAdvancesAtMost128DelaysInARow) {
  Simulator sim;
  std::vector<Time> at;
  spawn(delays(sim, 300, 1_ns, at));
  sim.run();
  ASSERT_EQ(at.size(), 300u);
  EXPECT_EQ(at.back(), Time::ns(300));
  // Delay 1 is awaited in spawn(); delays 130 and 259 each start a fresh
  // budget of 128 advances.
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_EQ(sim.advanced_events(), 297u);
}

Task<void> one_hop(Simulator& sim) { co_await delay(sim, 1_ns); }

TEST(Lookahead, LongChildTaskChainStaysWithinTheStack) {
  // Each finished child resumes its parent by symmetric transfer, which an
  // unoptimized build compiles to a nested call: without the per-event
  // budget this chain would never unwind and overflow the native stack.
  Simulator sim;
  int hops = 0;
  spawn([&]() -> Task<void> {
    for (int i = 0; i < 200'000; ++i) {
      co_await one_hop(sim);
      ++hops;
    }
  });
  sim.run();
  EXPECT_EQ(hops, 200'000);
  EXPECT_EQ(sim.now(), Time::ns(200'000));
}

TEST(Lookahead, EventAtTheWakeUpTimeRunsFirstInSeqOrder) {
  Simulator sim;
  std::vector<std::string> log;
  sim.schedule_at(10_ms, [&] { log.push_back("a"); });
  sim.schedule_at(10_ms, [&] { log.push_back("b"); });
  spawn([&]() -> Task<void> {
    co_await delay(sim, 5_ms);  // event
    co_await delay(sim, 4_ms);  // 9 ms < 10 ms: advances
    log.push_back("p@" + sim.now().to_string());
    co_await delay(sim, 1_ms);  // 10 ms: a and b are pending there
    log.push_back("p@" + sim.now().to_string());
  });
  sim.schedule_at(10_ms, [&] { log.push_back("c"); });
  sim.run();
  // c was scheduled before p's 10 ms resume, so it runs before p too.
  EXPECT_EQ(log, (std::vector<std::string>{"p@" + (9_ms).to_string(), "a",
                                           "b", "c",
                                           "p@" + (10_ms).to_string()}));
  EXPECT_EQ(sim.advanced_events(), 1u);
}

TEST(Lookahead, EventScheduledInTheTailBoundsTheAdvance) {
  Simulator sim;
  std::vector<std::string> log;
  sim.schedule_at(20_ms, [] {});
  spawn([&]() -> Task<void> {
    co_await delay(sim, 5_ms);
    co_await delay(sim, 1_ms);  // advances; the next event is at 20 ms
    sim.schedule_in(1_ms, [&] { log.push_back("x@" + sim.now().to_string()); });
    co_await delay(sim, 3_ms);  // 9 ms > the 7 ms event: no advance
    log.push_back("p@" + sim.now().to_string());
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x@" + (7_ms).to_string(),
                                           "p@" + (9_ms).to_string()}));
  EXPECT_EQ(sim.advanced_events(), 1u);
}

TEST(Lookahead, CancelledEventOnlyRefusesAnAdvance) {
  Simulator sim;
  std::vector<Time> at;
  const EventHandle victim = sim.schedule_at(6_ms, [] { FAIL(); });
  spawn([&]() -> Task<void> {
    co_await delay(sim, 5_ms);
    co_await delay(sim, Time::us(500));  // advances; horizon now 6 ms
    sim.cancel(victim);
    co_await delay(sim, 1_ms);  // 6.5 ms: the stale horizon refuses
    at.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{Time::us(6'500)}));
  EXPECT_EQ(sim.advanced_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Lookahead, NeverPastTheRunUntilBound) {
  Simulator sim;
  std::vector<Time> at;
  spawn(delays(sim, 10, 1_ms, at));
  sim.run_until(Time::us(5'500));
  EXPECT_EQ(at, (std::vector<Time>{1_ms, 2_ms, 3_ms, 4_ms, 5_ms}));
  EXPECT_EQ(sim.now(), Time::us(5'500));
  EXPECT_EQ(sim.pending_events(), 1u);  // the 6 ms wake-up
  // The bound itself is inside the window.
  sim.run_until(8_ms);
  EXPECT_EQ(at.back(), 8_ms);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(at.size(), 10u);
  EXPECT_EQ(at.back(), 10_ms);
}

TEST(Lookahead, NeverAfterStop) {
  Simulator sim;
  std::vector<Time> at;
  spawn([&]() -> Task<void> {
    co_await delay(sim, 1_ms);
    sim.stop();
    co_await delay(sim, 1_ms);
    at.push_back(sim.now());
  });
  sim.run();
  EXPECT_TRUE(at.empty());
  EXPECT_EQ(sim.now(), 1_ms);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{2_ms}));
}

TEST(Lookahead, NeverUnderStep) {
  Simulator sim;
  std::vector<Time> at;
  spawn(delays(sim, 5, 1_ms, at));
  while (sim.step()) {
  }
  EXPECT_EQ(at, (std::vector<Time>{1_ms, 2_ms, 3_ms, 4_ms, 5_ms}));
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_EQ(sim.advanced_events(), 0u);
}

TEST(Lookahead, NeverInsideResumeNested) {
  Simulator sim;
  std::coroutine_handle<> parked;
  std::vector<std::string> log;
  spawn([&]() -> Task<void> {
    co_await Park{&parked};
    co_await delay(sim, 1_ms);  // runs nested in the resumer's event
    log.push_back("woken@" + sim.now().to_string());
  });
  spawn([&]() -> Task<void> {
    co_await delay(sim, 5_ms);
    resume_nested(parked);
    // The resumed coroutine's delay must not have moved the clock under us.
    log.push_back("resumer@" + sim.now().to_string());
    co_await delay(sim, 2_ms);  // depth 0, but the 6 ms wake-up is first
    log.push_back("resumer@" + sim.now().to_string());
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"resumer@" + (5_ms).to_string(),
                                           "woken@" + (6_ms).to_string(),
                                           "resumer@" + (7_ms).to_string()}));
  // The resumer's 7 ms delay waited for the 6 ms wake-up event.
  EXPECT_EQ(sim.advanced_events(), 0u);
}

TEST(Lookahead, NeverInsideAProcessSpawnedFromATail) {
  Simulator sim;
  std::vector<std::string> log;
  spawn([&]() -> Task<void> {
    co_await delay(sim, 5_ms);
    spawn([&]() -> Task<void> {
      co_await delay(sim, 1_ms);  // runs inline inside spawn()
      log.push_back("child@" + sim.now().to_string());
    });
    log.push_back("parent@" + sim.now().to_string());
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent@" + (5_ms).to_string(),
                                           "child@" + (6_ms).to_string()}));
  EXPECT_EQ(sim.advanced_events(), 0u);
}

TEST(Lookahead, StateResetsWhenAnExceptionUnwinds) {
  Simulator sim;
  std::coroutine_handle<> parked;
  spawn([&]() -> Task<void> {
    co_await Park{&parked};
    throw std::runtime_error("boom");
  });
  spawn([&]() -> Task<void> {
    co_await delay(sim, 1_ms);
    resume_nested(parked);  // throws through this delay-resume event
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  // Neither the nesting depth nor the delay-tail flag leaked.
  std::vector<Time> at;
  spawn(delays(sim, 3, 1_ms, at));
  sim.run();
  EXPECT_EQ(at, (std::vector<Time>{2_ms, 3_ms, 4_ms}));
  EXPECT_EQ(sim.advanced_events(), 2u);
}

TEST(Lookahead, PerturbationHookSeesTheSameCallsEitherWay) {
  using Calls = std::vector<std::pair<Time, Time>>;
  const auto run = [](bool stepped) {
    Simulator sim;
    Calls calls;
    sim.set_delay_perturbation([&calls](Time now, Time d) {
      calls.emplace_back(now, d);
      return d + Time::us(now.count_ns() % 7);
    });
    std::vector<Time> at;
    spawn(delays(sim, 6, 1_ms, at));
    if (stepped) {
      while (sim.step()) {
      }
    } else {
      sim.run();
    }
    return std::make_pair(calls, at);
  };
  const auto ahead = run(false);
  const auto stepped = run(true);
  EXPECT_EQ(ahead.first, stepped.first);
  EXPECT_EQ(ahead.second, stepped.second);
  EXPECT_EQ(ahead.first.size(), 6u);
}

TEST(Lookahead, RealTimeRunnerStillSeesEveryDelay) {
  Simulator sim;
  std::vector<Time> at;
  spawn(delays(sim, 5, 1_ms, at));
  RealTimeRunner runner(sim, 1e6);
  runner.run_until(10_ms);
  EXPECT_EQ(at.size(), 5u);
  EXPECT_EQ(runner.events_run(), 5u);
  EXPECT_EQ(sim.advanced_events(), 0u);
}

TEST(Lookahead, AdvancedDelaysAreMirroredIntoTheRegistry) {
  Simulator sim;
  obs::Registry registry;
  sim.bind_metrics(registry);
  std::vector<Time> at;
  spawn(delays(sim, 4, 1_ms, at));
  sim.run();
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("sim.events.fired"), 1u);
  EXPECT_EQ(snap.counter_value("sim.events.advanced"), 3u);
}

}  // namespace
}  // namespace tb::sim
