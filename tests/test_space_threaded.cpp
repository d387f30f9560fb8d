// Directed tests for the real-thread tuplespace runtime (DESIGN.md §11):
// wildcard scatter/gather ordering under concurrent writers, oldest-waiter-
// wins across the shard and cross-shard wildcard queues, inbox backpressure
// when a shard stalls, clean shutdown with parked blocking takes, and
// transaction / notify semantics — each backed, where it adds signal, by an
// op-log replay through the deterministic oracle.
#include "src/space/threaded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/oplog.hpp"
#include "src/util/assert.hpp"

namespace tb::space {
namespace {

using namespace std::chrono_literals;

Template any_named(const std::string& name, std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(name, std::move(fields));
}

Template wildcard(std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(std::nullopt, std::move(fields));
}

SpaceConfig threaded_config(int shards, std::size_t inbox = 256) {
  return SpaceConfig{.use_type_index = true,
                     .shard_count = shards,
                     .execution_mode = ExecutionMode::kThreaded,
                     .inbox_capacity = inbox};
}

/// Spins until `pred` holds or ~5 s elapse; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(ThreadedSpaceEngine, RuntimesRejectEachOthersConfigs) {
  sim::Simulator sim;
  EXPECT_THROW(SpaceEngine(sim, threaded_config(1)), util::PreconditionError);
  EXPECT_THROW(ThreadedSpaceEngine(SpaceConfig{}), util::PreconditionError);
}

TEST(ThreadedSpaceEngine, WriteReadTakeRoundTrip) {
  OpLog log;
  const SpaceConfig config = threaded_config(4);
  ThreadedSpaceEngine space(config, &log);

  const Lease lease = space.write(make_tuple("job", std::int64_t{7}));
  EXPECT_TRUE(lease.valid());
  EXPECT_EQ(space.size(), 1u);

  const auto seen = space.read_if_exists(any_named("job", 1));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->fields[0], Value(std::int64_t{7}));
  EXPECT_EQ(space.size(), 1u);

  const auto taken = space.take_if_exists(any_named("job", 1));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(space.size(), 0u);
  EXPECT_FALSE(space.take_if_exists(any_named("job", 1)).has_value());

  const std::vector<Tuple> final_state = space.snapshot();
  space.shutdown();
  const ReplayReport report =
      replay_against_oracle(log, config, final_state);
  EXPECT_TRUE(report.equivalent) << report.divergence;
}

TEST(ThreadedSpaceEngine, WildcardGatherKeepsPerWriterOrderUnderConcurrency) {
  OpLog log;
  const SpaceConfig config = threaded_config(4);
  ThreadedSpaceEngine space(config, &log);

  // 4 writers, distinct names (distinct shards likely), sequence numbers in
  // the payload. A writer's tickets ascend with its issue order, so any
  // id-ordered gather must keep each writer's subsequence ascending.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&space, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        space.write(make_tuple("w-" + std::to_string(w),
                               std::int64_t{w * 1000 + i}));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  const std::vector<Tuple> all = space.take_all(wildcard(1));
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  std::vector<std::int64_t> last(kWriters, -1);
  for (const Tuple& t : all) {
    const std::int64_t v = t.fields[0].as_int();
    const int w = static_cast<int>(v / 1000);
    const std::int64_t seq = v % 1000;
    EXPECT_GT(seq, last[w]) << "writer " << w << " out of order";
    last[w] = seq;
  }
  EXPECT_EQ(space.size(), 0u);

  const std::vector<Tuple> final_state = space.snapshot();
  space.shutdown();
  const ReplayReport report =
      replay_against_oracle(log, config, final_state);
  EXPECT_TRUE(report.equivalent) << report.divergence;
}

TEST(ThreadedSpaceEngine, OldestWaiterWinsAcrossShardAndWildcardQueues) {
  ThreadedSpaceEngine space(threaded_config(4));

  // Wildcard take registers first (cross-shard queue), named take second
  // (shard queue). The first write must serve the older wildcard waiter
  // even though the named waiter sits on the tuple's own shard.
  std::optional<Tuple> wild_got;
  std::thread wild([&] {
    wild_got = space.take(wildcard(1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 1; }));

  std::optional<Tuple> named_got;
  std::thread named([&] {
    named_got =
        space.take(any_named("item", 1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 2; }));

  space.write(make_tuple("item", std::int64_t{1}));
  wild.join();
  ASSERT_TRUE(wild_got.has_value());
  EXPECT_EQ(wild_got->fields[0], Value(std::int64_t{1}));
  EXPECT_EQ(space.blocked_operations(), 1u);

  space.write(make_tuple("item", std::int64_t{2}));
  named.join();
  ASSERT_TRUE(named_got.has_value());
  EXPECT_EQ(named_got->fields[0], Value(std::int64_t{2}));
  EXPECT_EQ(space.blocked_operations(), 0u);
}

TEST(ThreadedSpaceEngine, BlockedReadersAllServedTakeConsumes) {
  ThreadedSpaceEngine space(threaded_config(2));

  // Registration order matters: serving is oldest-ticket-first, so the
  // take must register *after* both reads or it would consume the tuple
  // before a younger reader sees it. Stagger the spawns on the blocked
  // count instead of racing all three threads to the ticket counter.
  std::optional<Tuple> r1, r2, t1;
  std::thread reader1([&] {
    r1 = space.read(any_named("evt", 1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 1; }));
  std::thread reader2([&] {
    r2 = space.read(wildcard(1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 2; }));
  std::thread taker([&] {
    t1 = space.take(any_named("evt", 1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 3; }));

  space.write(make_tuple("evt", std::int64_t{9}));
  reader1.join();
  reader2.join();
  taker.join();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  ASSERT_TRUE(t1.has_value());
  // Both blocked readers saw copies; the take consumed it before the store.
  EXPECT_EQ(space.size(), 0u);
}

TEST(ThreadedSpaceEngine, BlockingTakeTimesOut) {
  OpLog log;
  const SpaceConfig config = threaded_config(1);
  ThreadedSpaceEngine space(config, &log);
  const auto got = space.take(any_named("never", 1), 20ms);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(space.blocked_operations(), 0u);

  const std::vector<Tuple> final_state = space.snapshot();
  space.shutdown();
  const ReplayReport report =
      replay_against_oracle(log, config, final_state);
  EXPECT_TRUE(report.equivalent) << report.divergence;
}

TEST(ThreadedSpaceEngine, InboxBackpressureWhenShardStalls) {
  // Capacity-2 inbox on a stalled single shard: this thread holds the
  // shard's ownership word, so no write applies. Two writes fill the inbox
  // and the third blocks its producer on the full ring; none of the three
  // writers may return until the shard resumes.
  ThreadedSpaceEngine space(threaded_config(1, /*inbox=*/2));
  space.stall_shard_for_testing(0);

  constexpr int kWriters = 3;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&space, &done, i] {
      space.write(make_tuple("q", std::int64_t{i}));
      done.fetch_add(1);
    });
  }
  EXPECT_TRUE(eventually([&] { return space.inbox_depth(0) == 2; }));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(done.load(), 0);  // stalled: nothing applied, nobody returns
  EXPECT_LE(space.inbox_depth(0), 2u);

  space.resume_shard_for_testing(0);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(done.load(), kWriters);
  EXPECT_EQ(space.size(), static_cast<std::size_t>(kWriters));
  EXPECT_EQ(space.take_all(any_named("q", 1)).size(),
            static_cast<std::size_t>(kWriters));
}

TEST(ThreadedSpaceEngine, CleanShutdownCompletesParkedBlockingTakes) {
  OpLog log;
  const SpaceConfig config = threaded_config(4);
  std::vector<Tuple> final_state;
  ThreadedSpaceEngine space(config, &log);

  std::optional<Tuple> named_got = make_tuple("sentinel");
  std::optional<Tuple> wild_got = make_tuple("sentinel");
  std::thread named([&] {
    named_got =
        space.take(any_named("gone", 1), ThreadedSpaceEngine::kBlockForever);
  });
  std::thread wild([&] {
    wild_got = space.take(wildcard(3), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 2; }));

  final_state = space.snapshot();
  space.shutdown();
  named.join();
  wild.join();
  EXPECT_FALSE(named_got.has_value());
  EXPECT_FALSE(wild_got.has_value());
  EXPECT_EQ(space.blocked_operations(), 0u);

  const ReplayReport report =
      replay_against_oracle(log, config, final_state);
  EXPECT_TRUE(report.equivalent) << report.divergence;
}

// Regression (shutdown vs. timeout-cancel): once the workers are joined,
// the timeout leg of a pre-shutdown blocking take flat-combines the shard
// itself, so shutdown()'s waiter cancellation must hold the shard
// ownership words — without that, both sides mutate the same waiter list
// and can double-complete one waiter onto a recycled request cell. The
// finite timeouts here are tuned to expire while shutdown() runs, the
// per-round delay sweeps the interleaving, and the threaded tier's TSan
// run is the detector for the original unserialized mutation.
TEST(ThreadedSpaceEngine, ShutdownRacesTimeoutCancelLegs) {
  for (int round = 0; round < 8; ++round) {
    ThreadedSpaceEngine space(threaded_config(4));
    std::atomic<int> misses{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back([&space, &misses, i] {
        const auto got =
            space.take(any_named("absent" + std::to_string(i), 1),
                       std::chrono::milliseconds(1 + i));
        if (!got.has_value()) misses.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
    space.shutdown();
    for (auto& t : clients) t.join();
    // Every take resolves as a miss exactly once — by its own timeout
    // cancellation or by shutdown, never both.
    EXPECT_EQ(misses.load(), 4);
    EXPECT_EQ(space.blocked_operations(), 0u);
  }
}

TEST(ThreadedSpaceEngine, TransactionIsolationCommitAndAbort) {
  OpLog log;
  const SpaceConfig config = threaded_config(4);
  ThreadedSpaceEngine space(config, &log);

  space.write(make_tuple("acct", std::int64_t{100}));
  const std::uint64_t txn = space.begin_transaction();

  // A held take is invisible to everyone until the transaction resolves.
  const auto held = space.take_if_exists(any_named("acct", 1), txn);
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(space.read_if_exists(any_named("acct", 1)).has_value());

  // Provisional writes are visible only inside the transaction.
  space.write(make_tuple("acct", std::int64_t{90}), txn);
  EXPECT_FALSE(space.read_if_exists(any_named("acct", 1)).has_value());
  EXPECT_TRUE(space.read_if_exists(any_named("acct", 1), txn).has_value());

  EXPECT_TRUE(space.abort(txn));
  EXPECT_FALSE(space.abort(txn));  // already resolved
  // Abort restored the held original and dropped the provisional write.
  const auto restored = space.read_if_exists(any_named("acct", 1));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->fields[0], Value(std::int64_t{100}));

  const std::uint64_t txn2 = space.begin_transaction();
  space.write(make_tuple("acct", std::int64_t{42}), txn2);
  EXPECT_TRUE(space.commit(txn2));
  EXPECT_EQ(space.read_all(any_named("acct", 1)).size(), 2u);

  const std::vector<Tuple> final_state = space.snapshot();
  space.shutdown();
  const ReplayReport report =
      replay_against_oracle(log, config, final_state);
  EXPECT_TRUE(report.equivalent) << report.divergence;
}

TEST(ThreadedSpaceEngine, CommitServesParkedWaiter) {
  ThreadedSpaceEngine space(threaded_config(2));
  std::optional<Tuple> got;
  std::thread waiter([&] {
    got = space.take(any_named("deal", 1), ThreadedSpaceEngine::kBlockForever);
  });
  ASSERT_TRUE(eventually([&] { return space.blocked_operations() == 1; }));

  const std::uint64_t txn = space.begin_transaction();
  space.write(make_tuple("deal", std::int64_t{5}), txn);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(space.blocked_operations(), 1u);  // provisional: not served yet
  EXPECT_TRUE(space.commit(txn));
  waiter.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], Value(std::int64_t{5}));
}

TEST(ThreadedSpaceEngine, NotifyCountsMatchesAndCancelStops) {
  ThreadedSpaceEngine space(threaded_config(4));
  std::atomic<std::uint64_t> hits{0};
  const std::uint64_t reg =
      space.notify(any_named("alarm", 1),
                   [&hits](const Tuple&) { hits.fetch_add(1); });
  space.write(make_tuple("alarm", std::int64_t{1}));
  space.write(make_tuple("other", std::int64_t{1}));
  space.write(make_tuple("alarm", std::int64_t{2}));
  EXPECT_TRUE(eventually([&] { return hits.load() == 2; }));
  EXPECT_TRUE(space.cancel_notify(reg));
  EXPECT_FALSE(space.cancel_notify(reg));
  space.write(make_tuple("alarm", std::int64_t{3}));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(hits.load(), 2u);
}

TEST(ThreadedSpaceEngine, MetricsExposeInboxDepthAndAppliedOps) {
  obs::Registry registry;
  ThreadedSpaceEngine space(threaded_config(2));
  space.bind_metrics(registry, "tspace");
  space.write(make_tuple("m", std::int64_t{1}));
  space.write(make_tuple("m", std::int64_t{2}));

  const auto snap = registry.snapshot();
  auto value = [&](const std::string& name) -> double {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value;
    }
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    ADD_FAILURE() << "metric not found: " << name;
    return -1.0;
  };
  EXPECT_EQ(value("tspace.size"), 2.0);
  EXPECT_EQ(value("tspace.blocked"), 0.0);
  const double applied = value("tspace.shard0.ops_applied") +
                         value("tspace.shard1.ops_applied");
  EXPECT_EQ(applied, 2.0);
  EXPECT_GE(value("tspace.shard0.inbox_peak") +
                value("tspace.shard1.inbox_peak"),
            1.0);
}

TEST(ThreadedSpaceEngine, InboxPeakIsMonotoneUnderConcurrentProducers) {
  // inbox_peak is a CAS-max watermark: concurrent producers hammer one
  // shard while this thread samples the metric. Every sample must be
  // >= the previous one (a plain store instead of the CAS-max loop loses
  // the race and shows up here as a dip), and the final value can never
  // exceed the ring capacity.
  obs::Registry registry;
  ThreadedSpaceEngine space(threaded_config(1, /*inbox=*/64));
  space.bind_metrics(registry, "tspace");

  auto peak = [&] {
    const auto snap = registry.snapshot();
    for (const auto& g : snap.gauges) {
      if (g.name == "tspace.shard0.inbox_peak") return g.value;
    }
    return -1.0;
  };

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&space, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        space.write(make_tuple("m-" + std::to_string(p), std::int64_t{i}));
      }
    });
  }
  double last = 0.0;
  for (int s = 0; s < 200; ++s) {
    const double now = peak();
    EXPECT_GE(now, last) << "watermark regressed at sample " << s;
    last = std::max(last, now);
    std::this_thread::sleep_for(100us);
  }
  for (std::thread& t : producers) t.join();

  ASSERT_TRUE(eventually([&] {
    return space.size() ==
           static_cast<std::size_t>(kProducers) * kPerProducer;
  }));
  const double final_peak = peak();
  EXPECT_GE(final_peak, 1.0);   // floor: at a push instant depth >= 1
  EXPECT_GE(final_peak, last);  // still monotone after the run
  EXPECT_LE(final_peak, 64.0);  // bounded by ring capacity
}

}  // namespace
}  // namespace tb::space
