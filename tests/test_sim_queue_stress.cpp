// Randomized stress for the event kernel's two-tier queue + slab pool
// (DESIGN.md §8): drives seeded schedule/cancel/fire interleavings through
// Simulator and cross-checks every fired event against a naive reference
// queue (a sorted set ordered by the kernel's documented (time, seq)
// order). Any divergence in dispatch order, clamping, lazy deletion, or
// handle-generation bookkeeping shows up as a token mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "src/sim/simulator.hpp"

namespace tb::sim {
namespace {

struct RefEvent {
  Time at;
  std::uint64_t seq;  ///< kernel scheduling order; breaks same-time ties
  int token;

  bool operator<(const RefEvent& o) const {
    if (at != o.at) return at < o.at;
    return seq < o.seq;
  }
};

/// Mirrors the kernel's contract: (time, seq) dispatch order, past times
/// clamped to now, cancel removes exactly one pending event.
class ReferenceQueue {
 public:
  void schedule(Time at, Time now, int token) {
    if (at < now) at = now;  // the kernel's documented clamp
    pending_.insert({at, next_seq_++, token});
  }

  bool cancel(int token) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->token == token) {
        pending_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Pops the next event; returns false when empty.
  bool pop(RefEvent& out) {
    if (pending_.empty()) return false;
    out = *pending_.begin();
    pending_.erase(pending_.begin());
    return true;
  }

  std::size_t size() const { return pending_.size(); }

 private:
  std::set<RefEvent> pending_;
  std::uint64_t next_seq_ = 1;  // matches Simulator's seq start
};

/// One full interleaving: `ops` randomized operations, then drain.
void run_stress(std::uint64_t seed, int ops) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Simulator sim;
  ReferenceQueue ref;
  std::mt19937_64 rng(seed);

  std::vector<int> fired;        // tokens in kernel dispatch order
  std::vector<int> ref_fired;    // tokens in reference dispatch order
  std::vector<EventHandle> live_handles;
  std::vector<int> live_tokens;  // parallel to live_handles
  int next_token = 0;
  std::size_t max_seen_pending = 0;

  auto schedule_one = [&] {
    // Mix genuinely future times, same-instant times, and past times (which
    // must clamp). Spread is wide enough to force several far->near refills.
    Time at = sim.now();
    switch (rng() % 8) {
      case 0:
        break;  // exactly now
      case 1:
        at = at - Time::ns(static_cast<std::int64_t>(rng() % 50));  // past
        break;
      default:
        at = at + Time::ns(static_cast<std::int64_t>(rng() % 2000));
        break;
    }
    const int token = next_token++;
    EventHandle h = sim.schedule_at(at, [&fired, token] {
      fired.push_back(token);
    });
    ref.schedule(at, sim.now(), token);
    live_handles.push_back(h);
    live_tokens.push_back(token);
  };

  auto fire_one = [&] {
    const bool stepped = sim.step();
    RefEvent expected;
    const bool ref_stepped = ref.pop(expected);
    ASSERT_EQ(stepped, ref_stepped);
    if (stepped) {
      ASSERT_FALSE(fired.empty());
      ref_fired.push_back(expected.token);
      ASSERT_EQ(fired.back(), expected.token);
      ASSERT_EQ(sim.now(), expected.at);
    }
  };

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng() % 10;
    if (r < 5) {
      schedule_one();
    } else if (r < 7 && !live_handles.empty()) {
      // Cancel a random handle — often live, sometimes already fired or
      // cancelled (must be a no-op either way).
      const std::size_t pick = rng() % live_handles.size();
      const bool kernel_cancelled = sim.cancel(live_handles[pick]);
      const bool ref_cancelled = ref.cancel(live_tokens[pick]);
      ASSERT_EQ(kernel_cancelled, ref_cancelled);
      live_handles.erase(live_handles.begin() + pick);
      live_tokens.erase(live_tokens.begin() + pick);
    } else {
      fire_one();
    }
    ASSERT_EQ(sim.pending_events(), ref.size());
    max_seen_pending = std::max(max_seen_pending, sim.pending_events());
  }

  // Drain both queues and compare the tails.
  while (true) {
    const bool stepped = sim.step();
    RefEvent expected;
    const bool ref_stepped = ref.pop(expected);
    ASSERT_EQ(stepped, ref_stepped);
    if (!stepped) break;
    ref_fired.push_back(expected.token);
    ASSERT_EQ(fired.back(), expected.token);
  }
  EXPECT_EQ(fired, ref_fired);

  // Counter consistency: every scheduled event either fired, was cancelled,
  // or (after the drain) nothing remains pending.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.scheduled_events(),
            sim.executed_events() + sim.cancelled_events());
  EXPECT_EQ(sim.executed_events(), fired.size());
  EXPECT_GE(sim.peak_pending_events(), max_seen_pending);
  EXPECT_LE(sim.peak_pending_events(), sim.scheduled_events());
}

TEST(SimQueueStress, RandomInterleavings) {
  for (std::uint64_t seed : {0x5EEDull, 0xBADC0FFEEull, 42ull}) {
    run_stress(seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

TEST(SimQueueStress, ScheduleHeavyThenDrain) {
  // Pushes the far tier through several refills before any pop: ~50k
  // pending events with shuffled times, then a pure drain.
  Simulator sim;
  ReferenceQueue ref;
  std::mt19937_64 rng(0xD15C);
  std::vector<int> fired;
  for (int token = 0; token < 50'000; ++token) {
    const Time at = Time::ns(static_cast<std::int64_t>(rng() % 1'000'000));
    sim.schedule_at(at, [&fired, token] { fired.push_back(token); });
    ref.schedule(at, sim.now(), token);
  }
  std::vector<int> ref_fired;
  RefEvent expected;
  while (ref.pop(expected)) ref_fired.push_back(expected.token);
  sim.run();
  EXPECT_EQ(fired, ref_fired);
  EXPECT_EQ(sim.executed_events(), 50'000u);
}

TEST(SimQueueStress, CancelEverythingLeavesQueueReusable) {
  // Lazy deletion must not strand ghost entries: cancel all, then verify
  // the queue dispatches fresh events normally.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1'000; ++i) {
    handles.push_back(sim.schedule_at(Time::ns(i + 1), [] {}));
  }
  for (EventHandle h : handles) EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());

  bool ran = false;
  sim.schedule_in(Time::ns(5), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.cancelled_events(), 1'000u);
}

}  // namespace
}  // namespace tb::sim
