// Hierarchical timer wheel (DESIGN.md §12): O(1) arm/cancel semantics,
// conservative next_deadline() bounds that converge to exact-ns firing,
// and the edge cases the lease subsystem leans on — arm/cancel/re-arm on
// the same deadline tick, mass expiry in a single tick, and stale-id
// safety after slot reuse.
#include "src/sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace tb::sim {
namespace {

struct Fired {
  std::uint64_t payload;
  std::int64_t deadline;
};

std::vector<Fired> drain(TimerWheel& wheel, std::int64_t now) {
  std::vector<Fired> fired;
  wheel.advance(now, [&fired](std::uint64_t payload, std::int64_t deadline) {
    fired.push_back({payload, deadline});
  });
  return fired;
}

TEST(TimerWheel, FiresAtExactDeadlineInArmOrder) {
  TimerWheel wheel;
  wheel.arm(1'000, 1);
  wheel.arm(500, 2);
  wheel.arm(1'000, 3);

  auto fired = drain(wheel, 499);
  EXPECT_TRUE(fired.empty());
  fired = drain(wheel, 500);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 2u);
  fired = drain(wheel, 5'000);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].payload, 1u);  // same deadline: arm order
  EXPECT_EQ(fired[1].payload, 3u);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, CancelIsExactAndStaleSafe) {
  TimerWheel wheel;
  const auto a = wheel.arm(100, 1);
  const auto b = wheel.arm(100, 2);
  EXPECT_TRUE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(a));  // double cancel
  EXPECT_FALSE(wheel.cancel(TimerWheel::TimerId{0}));

  auto fired = drain(wheel, 200);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 2u);
  EXPECT_FALSE(wheel.cancel(b));  // already fired

  // The freed slots get reused; the stale ids above must not cancel the
  // new timers (generation tags).
  const auto c = wheel.arm(300, 3);
  EXPECT_FALSE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(b));
  EXPECT_TRUE(wheel.cancel(c));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, DeadlineOfArmedCancelledFiredAndReused) {
  TimerWheel wheel;
  EXPECT_FALSE(wheel.deadline_of(TimerWheel::TimerId{0}).has_value());
  const auto armed = wheel.arm(5'000, 1);
  const auto cancelled = wheel.arm(300, 2);
  const auto fired = wheel.arm(200, 3);
  EXPECT_EQ(wheel.deadline_of(armed), 5'000);
  EXPECT_EQ(wheel.deadline_of(cancelled), 300);
  EXPECT_EQ(wheel.deadline_of(fired), 200);

  ASSERT_TRUE(wheel.cancel(cancelled));
  EXPECT_FALSE(wheel.deadline_of(cancelled).has_value());
  ASSERT_EQ(drain(wheel, 250).size(), 1u);
  EXPECT_FALSE(wheel.deadline_of(fired).has_value());
  EXPECT_EQ(wheel.deadline_of(armed), 5'000);  // cascading keeps it

  // Both freed nodes are reused: the stale ids must not read the new
  // timers' deadlines.
  const auto newer = wheel.arm(700, 4);
  const auto newest = wheel.arm(900, 5);
  EXPECT_FALSE(wheel.deadline_of(cancelled).has_value());
  EXPECT_FALSE(wheel.deadline_of(fired).has_value());
  EXPECT_EQ(wheel.deadline_of(newer), 700);
  EXPECT_EQ(wheel.deadline_of(newest), 900);
  EXPECT_EQ(wheel.armed(), 3u);
}

TEST(TimerWheel, ArmCancelRearmSameDeadlineTick) {
  TimerWheel wheel;
  (void)drain(wheel, 1'000);  // move cur so the tick is "now"
  for (int i = 0; i < 100; ++i) {
    const auto id = wheel.arm(1'000, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(wheel.cancel(id));
  }
  const auto kept = wheel.arm(1'000, 777);
  (void)kept;
  auto fired = drain(wheel, 1'000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 777u);
}

TEST(TimerWheel, MassExpiryInOneTick) {
  constexpr int kTimers = 100'000;
  TimerWheel wheel;
  for (int i = 0; i < kTimers; ++i) {
    wheel.arm(1'000'000, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(wheel.armed(), static_cast<std::size_t>(kTimers));
  auto fired = drain(wheel, 1'000'000);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) {  // same tick: arm order preserved
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].payload,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, NextDeadlineIsConservativeAndConverges) {
  TimerWheel wheel;
  const std::int64_t deadline = (std::int64_t{3} << 30) + 12'345;
  wheel.arm(deadline, 9);
  // Walk the wheel the way the deterministic engine does: sleep to the
  // bound, advance, re-read. The bound may undershoot (coarse slot base)
  // but never overshoots, and reaches the exact deadline in <= kLevels
  // hops.
  std::int64_t now = 0;
  int hops = 0;
  std::vector<Fired> fired;
  while (fired.empty()) {
    const auto bound = wheel.next_deadline();
    ASSERT_TRUE(bound.has_value());
    ASSERT_LE(*bound, deadline);
    ASSERT_GE(*bound, now);
    now = std::max(now + 1, *bound);
    fired = drain(wheel, now);
    ASSERT_LT(++hops, 16);
  }
  EXPECT_EQ(fired[0].payload, 9u);
  EXPECT_EQ(fired[0].deadline, deadline);
  EXPECT_LE(now, deadline + 1);
  EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerWheel, RandomizedVersusReferenceSet) {
  std::mt19937_64 rng(42);
  TimerWheel wheel;
  // Reference: ordered multiset of (deadline, seq, payload).
  std::set<std::tuple<std::int64_t, std::uint64_t, std::uint64_t>> ref;
  std::vector<std::pair<TimerWheel::TimerId,
                        std::tuple<std::int64_t, std::uint64_t,
                                   std::uint64_t>>>
      live;
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t next_payload = 1;

  for (int round = 0; round < 2'000; ++round) {
    const int action = static_cast<int>(rng() % 100);
    if (action < 55 || live.empty()) {
      // Mixed horizons stress every wheel level.
      const std::int64_t horizon = 1 + static_cast<std::int64_t>(
                                           rng() % (std::uint64_t{1} << (rng() % 40)));
      const std::int64_t deadline = now + horizon;
      const std::uint64_t payload = next_payload++;
      const auto id = wheel.arm(deadline, payload);
      const auto key = std::make_tuple(deadline, seq++, payload);
      ref.insert(key);
      live.emplace_back(id, key);
    } else if (action < 75) {
      const std::size_t pick = rng() % live.size();
      EXPECT_TRUE(wheel.cancel(live[pick].first));
      ref.erase(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      now += static_cast<std::int64_t>(rng() % 1'000'000);
      const auto fired = drain(wheel, now);
      // Everything due in the reference must fire, in deadline order.
      std::vector<std::uint64_t> expected;
      while (!ref.empty() && std::get<0>(*ref.begin()) <= now) {
        expected.push_back(std::get<2>(*ref.begin()));
        ref.erase(ref.begin());
      }
      ASSERT_EQ(fired.size(), expected.size()) << "round " << round;
      for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i].payload, expected[i]) << "round " << round;
      }
      std::erase_if(live, [now](const auto& entry) {
        return std::get<0>(entry.second) <= now;
      });
    }
    ASSERT_EQ(wheel.armed(), ref.size());
  }
}

TEST(TimerWheel, KernelDrivenExactFiring) {
  // The deterministic engine's usage pattern: one simulator event parked
  // at next_deadline(), re-armed after each advance. Expiry must be
  // observed at the exact nanosecond even through conservative bounds.
  Simulator sim;
  TimerWheel wheel;
  std::vector<std::pair<std::uint64_t, std::int64_t>> fired;
  EventHandle pending;

  // (payload, deadline) across several wheel levels.
  const std::vector<std::int64_t> deadlines = {
      17, 64, 65, 4'095, 4'096, 1'000'000, 123'456'789};
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    wheel.arm(deadlines[i], i);
  }

  std::function<void()> rearm = [&] {
    sim.cancel(pending);
    pending = EventHandle();
    const auto bound = wheel.next_deadline();
    if (!bound) return;
    pending = sim.schedule_at(Time::ns(*bound), [&] {
      wheel.advance(sim.now().count_ns(),
                    [&](std::uint64_t payload, std::int64_t deadline) {
                      EXPECT_EQ(Time::ns(deadline), sim.now());
                      fired.emplace_back(payload, deadline);
                    });
      rearm();
    });
  };
  rearm();
  sim.run();

  ASSERT_EQ(fired.size(), deadlines.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].second, deadlines[fired[i].first]);
  }
  EXPECT_TRUE(std::is_sorted(
      fired.begin(), fired.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; }));
}

}  // namespace
}  // namespace tb::sim
