#include "src/space/engine.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/sim/process.hpp"
#include "src/space/ops.hpp"
#include "src/space/shard_store.hpp"
#include "heap_probe.hpp"

namespace tb::space {
namespace {

using namespace tb::sim::literals;

Template any_named(const std::string& name, std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(name, std::move(fields));
}

class SpaceTest : public ::testing::Test {
 protected:
  sim::Simulator sim_{1};
  SpaceEngine space_{sim_};
};

TEST_F(SpaceTest, WriteThenReadIfExists) {
  space_.write(Tuple("t", {Value(1)}));
  auto got = space_.read_if_exists(any_named("t", 1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], Value(1));
  EXPECT_EQ(space_.size(), 1u);  // read is non-destructive
}

TEST_F(SpaceTest, TakeRemoves) {
  space_.write(Tuple("t", {Value(1)}));
  auto got = space_.take_if_exists(any_named("t", 1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_FALSE(space_.take_if_exists(any_named("t", 1)).has_value());
}

TEST_F(SpaceTest, TakeMovesStoredBuffersOutReadCopies) {
  // Zero-copy contract: write moves the tuple's heap buffers into the store
  // and take moves them back out — the bytes are never reallocated. Strings
  // long enough to defeat the small-string optimization, so data() identity
  // proves the move.
  std::string text(64, 'x');
  std::vector<std::uint8_t> blob(256, 0xAB);
  const char* text_data = text.data();
  const std::uint8_t* blob_data = blob.data();

  // make_tuple moves the values in (initializer lists would copy). Qualified:
  // ADL on the std arguments would otherwise find std::make_tuple.
  Tuple tuple = space::make_tuple("t", std::move(text), std::move(blob));
  ASSERT_EQ(tuple.fields[0].as_string().data(), text_data);
  space_.write(std::move(tuple));

  // A read returns a copy: fresh buffers, entry untouched.
  auto read = space_.read_if_exists(any_named("t", 2));
  ASSERT_TRUE(read.has_value());
  EXPECT_NE(read->fields[0].as_string().data(), text_data);
  EXPECT_NE(read->fields[1].as_bytes().data(), blob_data);
  EXPECT_EQ(space_.size(), 1u);

  // The take receives the original buffers, untouched by the read.
  auto taken = space_.take_if_exists(any_named("t", 2));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->fields[0].as_string().data(), text_data);
  EXPECT_EQ(taken->fields[1].as_bytes().data(), blob_data);
  EXPECT_EQ(taken->fields[0].as_string(), std::string(64, 'x'));
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(SpaceTest, StoredBytesTracksWritesAndTakes) {
  EXPECT_EQ(space_.stored_bytes(), 0u);
  space_.write(Tuple("t", {Value(std::string(100, 'a'))}));
  // name (1) + string payload (100)
  EXPECT_EQ(space_.stored_bytes(), 101u);
  space_.write(Tuple("u", {Value(7)}));
  EXPECT_EQ(space_.stored_bytes(), 101u + 9u);
  (void)space_.take_if_exists(any_named("t", 1));
  EXPECT_EQ(space_.stored_bytes(), 9u);
  (void)space_.take_if_exists(any_named("u", 1));
  EXPECT_EQ(space_.stored_bytes(), 0u);
}

TEST_F(SpaceTest, OldestMatchWinsTotalOrder) {
  space_.write(Tuple("t", {Value(1)}));
  space_.write(Tuple("t", {Value(2)}));
  space_.write(Tuple("t", {Value(3)}));
  EXPECT_EQ(space_.take_if_exists(any_named("t", 1))->fields[0], Value(1));
  EXPECT_EQ(space_.take_if_exists(any_named("t", 1))->fields[0], Value(2));
  EXPECT_EQ(space_.take_if_exists(any_named("t", 1))->fields[0], Value(3));
}

TEST_F(SpaceTest, AssociativeMatchSkipsNonMatching) {
  space_.write(Tuple("t", {Value(1)}));
  space_.write(Tuple("t", {Value(2)}));
  Template exact_two(std::string("t"), {FieldPattern::exact(Value(2))});
  EXPECT_EQ(space_.take_if_exists(exact_two)->fields[0], Value(2));
  EXPECT_EQ(space_.size(), 1u);
}

TEST_F(SpaceTest, BlockedTakeCompletesOnWrite) {
  std::optional<Tuple> result;
  bool completed = false;
  space_.take_async(any_named("t", 1), kLeaseForever, [&](auto r) {
    result = std::move(r);
    completed = true;
  });
  EXPECT_EQ(space_.blocked_operations(), 1u);
  sim_.run_until(10_ms);
  EXPECT_FALSE(completed);
  space_.write(Tuple("t", {Value(9)}));
  sim_.run_until(20_ms);
  ASSERT_TRUE(completed);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->fields[0], Value(9));
  EXPECT_EQ(space_.size(), 0u);  // consumed before storage
}

TEST_F(SpaceTest, BlockedTakeTimesOut) {
  bool completed = false;
  std::optional<Tuple> result;
  space_.take_async(any_named("t", 1), 50_ms, [&](auto r) {
    result = std::move(r);
    completed = true;
  });
  sim_.run_until(100_ms);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(space_.blocked_operations(), 0u);
}

TEST_F(SpaceTest, CompetingTakesServedFifo) {
  std::vector<int> winners;
  for (int i = 0; i < 3; ++i) {
    space_.take_async(any_named("t", 1), kLeaseForever,
                      [&winners, i](auto r) {
                        if (r) winners.push_back(i);
                      });
  }
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(1_ms);
  // Exactly one take wins per write, in FIFO order.
  EXPECT_EQ(winners, (std::vector<int>{0}));
  space_.write(Tuple("t", {Value(2)}));
  sim_.run_until(2_ms);
  EXPECT_EQ(winners, (std::vector<int>{0, 1}));
}

TEST_F(SpaceTest, BlockedReadsAllSeeTheWrite) {
  int reads = 0;
  for (int i = 0; i < 3; ++i) {
    space_.read_async(any_named("t", 1), kLeaseForever, [&](auto r) {
      if (r) ++reads;
    });
  }
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(1_ms);
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(space_.size(), 1u);  // reads leave the tuple in place
}

TEST_F(SpaceTest, ReadThenTakeWaitersBothServed) {
  std::vector<std::string> log;
  space_.read_async(any_named("t", 1), kLeaseForever,
                    [&](auto r) { if (r) log.push_back("read"); });
  space_.take_async(any_named("t", 1), kLeaseForever,
                    [&](auto r) { if (r) log.push_back("take"); });
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(1_ms);
  EXPECT_EQ(log, (std::vector<std::string>{"read", "take"}));
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(SpaceTest, LeaseExpiryRemovesTuple) {
  space_.write(Tuple("t", {Value(1)}), 100_ms);
  sim_.run_until(50_ms);
  EXPECT_EQ(space_.size(), 1u);
  sim_.run_until(150_ms);
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_EQ(space_.stats().expirations, 1u);
}

TEST_F(SpaceTest, ExpiredTupleNotMatchedAtBoundary) {
  space_.write(Tuple("t", {Value(1)}), 100_ms);
  sim_.run_until(100_ms);
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(SpaceTest, RenewExtendsLease) {
  Lease lease = space_.write(Tuple("t", {Value(1)}), 100_ms);
  sim_.run_until(50_ms);
  auto renewed = space_.renew(lease.id, 200_ms);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_EQ(renewed->expires_at, 250_ms);
  sim_.run_until(150_ms);
  EXPECT_EQ(space_.size(), 1u);  // would have expired without renewal
  sim_.run_until(300_ms);
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(SpaceTest, RenewGoneTupleFails) {
  Lease lease = space_.write(Tuple("t", {Value(1)}), 10_ms);
  sim_.run_until(20_ms);
  EXPECT_FALSE(space_.renew(lease.id, 100_ms).has_value());
}

// At t == expires_at the entry is already gone to every lookup, even while
// its wheel event is still queued behind other events at that instant. The
// probe is scheduled before the write, so it runs ahead of the expiry event.
TEST_F(SpaceTest, RenewAtDeadlineBeforeExpiryEventFails) {
  std::uint64_t id = 0;
  std::optional<Lease> renewed;
  bool probed = false;
  sim_.schedule_at(10_ms, [&] {
    EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
    renewed = space_.renew(id, 20_ms);
    probed = true;
  });
  id = space_.write(Tuple("t", {Value(1)}), 10_ms).id;
  sim_.run_until(30_ms);
  ASSERT_TRUE(probed);
  EXPECT_FALSE(renewed.has_value());  // no resurrection
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_EQ(space_.stats().renewals, 0u);
  EXPECT_EQ(space_.stats().expirations, 1u);
}

TEST_F(SpaceTest, CancelAtDeadlineBeforeExpiryEventFails) {
  std::uint64_t id = 0;
  bool cancelled = true;
  sim_.schedule_at(10_ms, [&] { cancelled = space_.cancel(id); });
  id = space_.write(Tuple("t", {Value(1)}), 10_ms).id;
  sim_.run_until(30_ms);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_EQ(space_.stats().cancellations, 0u);
  EXPECT_EQ(space_.stats().expirations, 1u);  // counted as what it was
}

// The removal listener reports an entry's id once, when it leaves for good,
// on every path; a transactional take reports only when it commits.
TEST_F(SpaceTest, RemovalListenerReportsEveryRemovalPath) {
  std::vector<std::uint64_t> removed;
  space_.set_removal_listener(
      [&removed](std::uint64_t id) { removed.push_back(id); });
  auto expect_removed = [&removed](std::vector<std::uint64_t> ids) {
    EXPECT_EQ(removed, ids);
    removed.clear();
  };

  const std::uint64_t taken = space_.write(Tuple("t", {Value(1)})).id;
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1)).has_value());
  expect_removed({taken});

  const std::uint64_t a = space_.write(Tuple("b", {Value(1)})).id;
  const std::uint64_t b = space_.write(Tuple("b", {Value(2)})).id;
  EXPECT_EQ(space_.take_all(any_named("b", 1)).size(), 2u);
  expect_removed({a, b});

  const std::uint64_t by_id = space_.write(Tuple("t", {Value(2)})).id;
  ASSERT_TRUE(space_.take_by_id(by_id).has_value());
  expect_removed({by_id});

  const std::uint64_t cancelled = space_.write(Tuple("t", {Value(3)})).id;
  ASSERT_TRUE(space_.cancel(cancelled));
  expect_removed({cancelled});

  const std::uint64_t expiring =
      space_.write(Tuple("t", {Value(4)}), 10_ms).id;
  sim_.run_until(20_ms);
  expect_removed({expiring});

  // A parked take consumes the write before it is stored: reported inside
  // write(), before the id is returned.
  space_.take_async(any_named("t", 1), kLeaseForever, [](auto) {});
  const std::uint64_t consumed = space_.write(Tuple("t", {Value(5)})).id;
  expect_removed({consumed});
  sim_.run_until(30_ms);

  // Transactional takes: an abort restores the entry (no report), a commit
  // makes the removal permanent.
  const std::uint64_t held = space_.write(Tuple("t", {Value(6)})).id;
  std::uint64_t txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  ASSERT_TRUE(space_.abort(txn));
  expect_removed({});
  txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  expect_removed({});
  ASSERT_TRUE(space_.commit(txn));
  expect_removed({held});
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(SpaceTest, CancelRemovesTuple) {
  Lease lease = space_.write(Tuple("t", {Value(1)}));
  EXPECT_TRUE(space_.cancel(lease.id));
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_FALSE(space_.cancel(lease.id));
}

TEST_F(SpaceTest, NotifyFiresOnMatchingWrite) {
  std::vector<Tuple> events;
  space_.notify(any_named("alarm", 1), kLeaseForever,
                [&](const Tuple& t) { events.push_back(t); });
  space_.write(Tuple("alarm", {Value(1)}));
  space_.write(Tuple("other", {Value(2)}));
  space_.write(Tuple("alarm", {Value(3)}));
  sim_.run_until(1_ms);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].fields[0], Value(1));
  EXPECT_EQ(events[1].fields[0], Value(3));
}

TEST_F(SpaceTest, NotifyFiresEvenWhenTakeConsumes) {
  int events = 0;
  space_.notify(any_named("t", 1), kLeaseForever,
                [&](const Tuple&) { ++events; });
  space_.take_async(any_named("t", 1), kLeaseForever, [](auto) {});
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(1_ms);
  EXPECT_EQ(events, 1);
}

TEST_F(SpaceTest, NotifyLeaseExpires) {
  int events = 0;
  space_.notify(any_named("t", 1), 50_ms, [&](const Tuple&) { ++events; });
  sim_.run_until(100_ms);
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(200_ms);
  EXPECT_EQ(events, 0);
  EXPECT_EQ(space_.notify_registrations(), 0u);
}

TEST_F(SpaceTest, CancelNotifyStopsEvents) {
  int events = 0;
  const std::uint64_t reg = space_.notify(
      any_named("t", 1), kLeaseForever, [&](const Tuple&) { ++events; });
  EXPECT_TRUE(space_.cancel_notify(reg));
  EXPECT_FALSE(space_.cancel_notify(reg));
  space_.write(Tuple("t", {Value(1)}));
  sim_.run_until(1_ms);
  EXPECT_EQ(events, 0);
}

TEST_F(SpaceTest, CallbackMayIssueNewOperations) {
  // Reentrancy: a take callback writing a response must not corrupt state.
  std::optional<Tuple> final_result;
  space_.take_async(any_named("req", 1), kLeaseForever, [&](auto r) {
    ASSERT_TRUE(r.has_value());
    space_.write(Tuple("resp", {r->fields[0]}));
  });
  space_.take_async(any_named("resp", 1), kLeaseForever,
                    [&](auto r) { final_result = std::move(r); });
  space_.write(Tuple("req", {Value(42)}));
  sim_.run_until(1_ms);
  ASSERT_TRUE(final_result.has_value());
  EXPECT_EQ(final_result->fields[0], Value(42));
}

TEST_F(SpaceTest, IndexedAndLinearModesAgree) {
  SpaceConfig no_index;
  no_index.use_type_index = false;
  sim::Simulator sim2(1);
  SpaceEngine linear(sim2, no_index);

  for (int i = 0; i < 50; ++i) {
    Tuple t(i % 2 == 0 ? "even" : "odd", {Value(i)});
    space_.write(t);
    linear.write(t);
  }
  Template evens = any_named("even", 1);
  for (int i = 0; i < 25; ++i) {
    auto a = space_.take_if_exists(evens);
    auto b = linear.take_if_exists(evens);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
  EXPECT_FALSE(space_.take_if_exists(evens).has_value());
  EXPECT_FALSE(linear.take_if_exists(evens).has_value());
}

TEST_F(SpaceTest, IndexReducesScanSteps) {
  SpaceConfig no_index;
  no_index.use_type_index = false;
  sim::Simulator sim2(1);
  SpaceEngine linear(sim2, no_index);

  for (int i = 0; i < 100; ++i) {
    space_.write(Tuple("noise", {Value(i), Value(i)}));
    linear.write(Tuple("noise", {Value(i), Value(i)}));
  }
  space_.write(Tuple("needle", {Value(1)}));
  linear.write(Tuple("needle", {Value(1)}));

  const auto indexed_before = space_.stats().scan_steps;
  const auto linear_before = linear.stats().scan_steps;
  ASSERT_TRUE(space_.read_if_exists(any_named("needle", 1)).has_value());
  ASSERT_TRUE(linear.read_if_exists(any_named("needle", 1)).has_value());
  EXPECT_EQ(space_.stats().scan_steps - indexed_before, 1u);
  EXPECT_EQ(linear.stats().scan_steps - linear_before, 101u);
}

TEST_F(SpaceTest, WildcardNameTemplateWorksWithIndexOn) {
  space_.write(Tuple("a", {Value(1)}));
  space_.write(Tuple("b", {Value(2)}));
  Template nameless(std::nullopt, {FieldPattern::typed(ValueType::kInt)});
  // Falls back to the full scan; oldest first.
  EXPECT_EQ(space_.take_if_exists(nameless)->name, "a");
  EXPECT_EQ(space_.take_if_exists(nameless)->name, "b");
}

TEST_F(SpaceTest, CoroutineAdapters) {
  std::optional<Tuple> got;
  sim::spawn([&]() -> sim::Task<void> {
    got = co_await take(space_, any_named("t", 1), 1_s);
  });
  sim_.schedule_at(100_ms, [&] { space_.write(Tuple("t", {Value(5)})); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], Value(5));
}

TEST_F(SpaceTest, CoroutineReadTimesOut) {
  bool done = false;
  std::optional<Tuple> got;
  sim::spawn([&]() -> sim::Task<void> {
    got = co_await read(space_, any_named("missing", 1), 50_ms);
    done = true;
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sim_.now(), 50_ms);
}

TEST_F(SpaceTest, StatsAccumulate) {
  space_.write(Tuple("t", {Value(1)}));
  space_.read_if_exists(any_named("t", 1));
  space_.take_if_exists(any_named("t", 1));
  space_.take_if_exists(any_named("t", 1));  // miss
  EXPECT_EQ(space_.stats().writes, 1u);
  EXPECT_EQ(space_.stats().reads, 1u);
  EXPECT_EQ(space_.stats().takes, 1u);
  EXPECT_EQ(space_.stats().misses, 1u);
  EXPECT_EQ(space_.stats().peak_size, 1u);
}

TEST_F(SpaceTest, ZeroTimeoutTakeActsAsIfExists) {
  bool completed = false;
  std::optional<Tuple> result;
  space_.take_async(any_named("t", 1), sim::Time::zero(), [&](auto r) {
    completed = true;
    result = std::move(r);
  });
  sim_.run_until(1_ms);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(result.has_value());
}

TEST_F(SpaceTest, ReadAllReturnsMatchesOldestFirst) {
  for (int i = 0; i < 5; ++i) space_.write(space::make_tuple("t", std::int64_t{i}));
  space_.write(space::make_tuple("other", std::int64_t{9}));
  const auto all = space_.read_all(any_named("t", 1));
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(all[i].fields[0], Value(std::int64_t{i}));
  EXPECT_EQ(space_.size(), 6u);  // non-destructive
}

TEST_F(SpaceTest, ReadAllRespectsMax) {
  for (int i = 0; i < 5; ++i) space_.write(space::make_tuple("t", std::int64_t{i}));
  EXPECT_EQ(space_.read_all(any_named("t", 1), 2).size(), 2u);
}

TEST_F(SpaceTest, ReadAllSkipsExpired) {
  space_.write(space::make_tuple("t", 1), 50_ms);
  space_.write(space::make_tuple("t", 2));
  sim_.run_until(100_ms);
  const auto all = space_.read_all(any_named("t", 1));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].fields[0], Value(2));
}

TEST_F(SpaceTest, ReadAllWorksWithoutNameConstraint) {
  space_.write(space::make_tuple("a", 1));
  space_.write(space::make_tuple("b", 2));
  Template nameless(std::nullopt, {FieldPattern::typed(ValueType::kInt)});
  EXPECT_EQ(space_.read_all(nameless).size(), 2u);
}

TEST_F(SpaceTest, TakeAllDrainsOldestFirst) {
  for (int i = 0; i < 4; ++i) space_.write(space::make_tuple("t", std::int64_t{i}));
  const auto taken = space_.take_all(any_named("t", 1));
  ASSERT_EQ(taken.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(taken[i].fields[0], Value(std::int64_t{i}));  // write order
  }
  EXPECT_EQ(space_.size(), 0u);
  EXPECT_TRUE(space_.take_all(any_named("t", 1)).empty());
}

TEST_F(SpaceTest, TakeAllRespectsMaxOldestFirst) {
  for (int i = 0; i < 4; ++i) space_.write(space::make_tuple("t", std::int64_t{i}));
  const auto taken = space_.take_all(any_named("t", 1), 3);
  ASSERT_EQ(taken.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(taken[i].fields[0], Value(std::int64_t{i}));
  }
  EXPECT_EQ(space_.size(), 1u);
  // The survivor is the newest tuple.
  EXPECT_EQ(space_.take_if_exists(any_named("t", 1))->fields[0],
            Value(std::int64_t{3}));
}

TEST_F(SpaceTest, TakeAllSkipsNonMatchingAndExpired) {
  space_.write(space::make_tuple("t", std::int64_t{0}), 50_ms);  // will expire
  space_.write(space::make_tuple("t", std::string("skip")));
  space_.write(space::make_tuple("t", std::int64_t{1}));
  space_.write(space::make_tuple("t", std::int64_t{2}));
  sim_.run_until(100_ms);
  Template ints(std::string("t"), {FieldPattern::typed(ValueType::kInt)});
  const auto taken = space_.take_all(ints);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].fields[0], Value(std::int64_t{1}));
  EXPECT_EQ(taken[1].fields[0], Value(std::int64_t{2}));
  EXPECT_EQ(space_.size(), 1u);  // the string tuple survives
}

TEST_F(SpaceTest, ReadAllAndTakeAllOrderMatchWithoutIndex) {
  // The unindexed path walks the id-ordered entry map; order and results
  // must match the indexed path exactly.
  SpaceConfig config;
  config.use_type_index = false;
  SpaceEngine flat(sim_, config);
  for (int i = 0; i < 4; ++i) flat.write(space::make_tuple("t", std::int64_t{i}));
  const auto read = flat.read_all(any_named("t", 1));
  ASSERT_EQ(read.size(), 4u);
  const auto taken = flat.take_all(any_named("t", 1));
  ASSERT_EQ(taken.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read[i].fields[0], Value(std::int64_t{i}));
    EXPECT_EQ(taken[i].fields[0], Value(std::int64_t{i}));
  }
  EXPECT_EQ(flat.size(), 0u);
}

TEST_F(SpaceTest, RejectsNonPositiveLease) {
  EXPECT_THROW(space_.write(Tuple("t", {}), sim::Time::zero()),
               util::PreconditionError);
}

// --- type chains (shard_store.hpp) -----------------------------------------
// Commit publication and abort restoration store ids older than their
// chain's tail, so they are linked into the middle of it. Each case ends by
// draining type "t" through named takes, read_all and take_all, which must
// return ids oldest first and agree exactly across the index and shard
// layouts. String-valued "t" tuples sit between the ints in every chain, so
// take_all erases the entry Scan just returned with survivors around it.

Template t_ints() {
  return Template(std::string("t"), {FieldPattern::typed(ValueType::kInt)});
}

Template t_exact(std::int64_t v) {
  return Template(std::string("t"), {FieldPattern::exact(Value(v))});
}

/// Writes ("t", i) for i in [from, to), with a string-valued "t" after
/// every fifth int; `in_txn(i)` puts a write under `txn`.
template <class InTxn>
void write_ts(SpaceEngine& space, int from, int to, std::uint64_t txn,
              InTxn in_txn) {
  for (int i = from; i < to; ++i) {
    space.write(space::make_tuple("t", std::int64_t{i}), kLeaseForever,
                in_txn(i) ? txn : kNoTxn);
    if (i % 5 == 2) space.write(space::make_tuple("t", std::string("skip")));
  }
}

/// What draining "t" returned, as the ints' values.
struct Drained {
  std::vector<std::int64_t> read_all, takes, take_all;
  bool operator==(const Drained&) const = default;
};

std::vector<std::int64_t> values_of(const std::vector<Tuple>& tuples) {
  std::vector<std::int64_t> out;
  for (const Tuple& t : tuples) out.push_back(t.fields[0].as_int());
  return out;
}

Drained drain_ts(SpaceEngine& space) {
  // Ids from the slab's merge walk, which does not use the chains; it must
  // come out oldest first.
  std::map<std::int64_t, std::uint64_t> id_of;
  std::size_t skips = 0;
  const auto snapshot = space.snapshot_with_ids();
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  for (const auto& [id, t] : snapshot) {
    if (t.fields[0].is(ValueType::kInt)) {
      id_of[t.fields[0].as_int()] = id;
    } else {
      ++skips;
    }
  }
  Drained out;
  out.read_all = values_of(space.read_all(t_ints()));
  for (int i = 0; i < 2; ++i) {
    if (auto t = space.take_if_exists(t_ints())) {
      out.takes.push_back(t->fields[0].as_int());
    }
  }
  out.take_all = values_of(space.take_all(t_ints()));

  EXPECT_EQ(out.read_all.size(), id_of.size());
  for (std::size_t i = 1; i < out.read_all.size(); ++i) {
    EXPECT_LT(id_of.at(out.read_all[i - 1]), id_of.at(out.read_all[i]));
  }
  std::vector<std::int64_t> taken = out.takes;
  taken.insert(taken.end(), out.take_all.begin(), out.take_all.end());
  EXPECT_EQ(taken, out.read_all);  // takes are oldest first too
  EXPECT_EQ(space.read_all(any_named("t", 1)).size(), skips);
  return out;
}

/// Runs `scenario` then drains "t" under every index/shard layout; all must
/// agree with the linear-scan single-shard store. Returns its drain.
template <class Scenario>
Drained drain_every_layout(Scenario scenario) {
  std::vector<Drained> drained;
  for (const bool index : {false, true}) {
    for (const int shards : {1, 4}) {
      std::string layout = index ? "indexed" : "linear";
      layout += ", shards=" + std::to_string(shards);
      SCOPED_TRACE(layout);
      sim::Simulator sim(1);
      SpaceConfig config;
      config.use_type_index = index;
      config.shard_count = shards;
      SpaceEngine space(sim, config);
      scenario(space);
      drained.push_back(drain_ts(space));
      EXPECT_EQ(drained.back(), drained.front());
    }
  }
  return drained.front();
}

std::vector<std::int64_t> iota_values(std::size_t n) {
  std::vector<std::int64_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(TypeChain, CommitLinksOlderWritesBetweenNewerOnes) {
  const Drained drained = drain_every_layout([](SpaceEngine& space) {
    // Ints 0, 4 and 15 commit after every newer write: 0 goes before the
    // chain's head, 4 is found from the head, 15 from the tail.
    const std::uint64_t txn = space.begin_transaction();
    const auto in_txn = [](int i) { return i == 0 || i == 4 || i == 15; };
    write_ts(space, 0, 20, txn, in_txn);
    ASSERT_TRUE(space.commit(txn));
  });
  EXPECT_EQ(drained.read_all, iota_values(20));
  EXPECT_EQ(drained.takes, (std::vector<std::int64_t>{0, 1}));
}

TEST(TypeChain, AbortRelinksTakenEntriesInPlace) {
  const Drained drained = drain_every_layout([](SpaceEngine& space) {
    write_ts(space, 0, 20, kNoTxn, [](int) { return false; });
    const std::uint64_t txn = space.begin_transaction();
    // The oldest, then one near the head and one near the tail.
    const auto oldest = space.take_if_exists(t_ints(), txn);
    ASSERT_TRUE(oldest.has_value());
    ASSERT_EQ(oldest->fields[0].as_int(), 0);
    ASSERT_TRUE(space.take_if_exists(t_exact(3), txn).has_value());
    ASSERT_TRUE(space.take_if_exists(t_exact(16), txn).has_value());
    write_ts(space, 20, 22, kNoTxn, [](int) { return false; });
    ASSERT_TRUE(space.abort(txn));
  });
  EXPECT_EQ(drained.read_all, iota_values(22));
  EXPECT_EQ(drained.takes, (std::vector<std::int64_t>{0, 1}));
}

// A shard's first chunk holds 64 slots: 100 ints and their 20 strings fill
// it, so commit publication and abort restoration below land in a full
// chunk.
TEST(TypeChain, CommitIntoAFullChunkSplitsItInOrder) {
  const Drained drained = drain_every_layout([](SpaceEngine& space) {
    const std::uint64_t txn = space.begin_transaction();
    const auto in_txn = [](int i) { return i == 5 || i == 6 || i == 70; };
    write_ts(space, 0, 100, txn, in_txn);
    ASSERT_TRUE(space.commit(txn));
  });
  EXPECT_EQ(drained.read_all, iota_values(100));
  EXPECT_EQ(drained.takes, (std::vector<std::int64_t>{0, 1}));
}

TEST(TypeChain, AbortRestoresIntoFullChunksInOrder) {
  const Drained drained = drain_every_layout([](SpaceEngine& space) {
    write_ts(space, 0, 100, kNoTxn, [](int) { return false; });
    const std::uint64_t txn = space.begin_transaction();
    for (const std::int64_t v : {0, 3, 50, 63, 99}) {
      ASSERT_TRUE(space.take_if_exists(t_exact(v), txn).has_value());
    }
    write_ts(space, 100, 110, kNoTxn, [](int) { return false; });
    ASSERT_TRUE(space.abort(txn));
  });
  EXPECT_EQ(drained.read_all, iota_values(110));
  EXPECT_EQ(drained.takes, (std::vector<std::int64_t>{0, 1}));
}

TEST(TypeChain, TakeAllEmptiesTheChainAndLeavesItReusable) {
  // take_all erases every entry of the chain while Scan walks it; the
  // emptied chain is kept and must serve later writes in order.
  const Drained drained = drain_every_layout([](SpaceEngine& space) {
    write_ts(space, 0, 10, kNoTxn, [](int) { return false; });
    ASSERT_EQ(space.take_all(any_named("t", 1)).size(), 12u);
    write_ts(space, 10, 13, kNoTxn, [](int) { return false; });
  });
  EXPECT_EQ(drained.read_all, (std::vector<std::int64_t>{10, 11, 12}));
}

// --- shard-store leases -----------------------------------------------------

// The wheel timer alone holds an entry's deadline. Once it has fired and
// before the engine reclaims the entry, the entry is due: hidden at any
// finite `now` past its deadline, still visible under kAllVisible (the
// threaded engine's rule, and the lookup that reclaims it).
TEST(ShardEntries, FiredButUnreclaimedEntryHiddenOnlyAtAFiniteNow) {
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "type index" : "linear scan");
    sim::TimerWheel wheel;
    ShardEntries store(indexed, wheel);
    ShardEntries* const shards[] = {&store};
    const auto put = [&](std::uint64_t id, std::int64_t deadline) {
      Tuple tuple("t", {Value(static_cast<std::int64_t>(id))});
      const std::uint64_t key = type_key(tuple.name, tuple.arity());
      store.store(id, key, std::move(tuple), deadline);
    };
    put(1, 100);          // fires below
    put(2, 1'000);        // still armed
    put(3, kNoDeadline);  // no timer
    EXPECT_EQ(store.deadline(store.at(store.find(1)).entry), 100);
    EXPECT_EQ(store.deadline(store.at(store.find(2)).entry), 1'000);
    EXPECT_EQ(store.deadline(store.at(store.find(3)).entry), kNoDeadline);

    std::vector<std::uint64_t> fired;
    wheel.advance(150, [&fired](std::uint64_t payload, std::int64_t) {
      fired.push_back(payload);
    });
    ASSERT_EQ(fired, (std::vector<std::uint64_t>{1}));
    ASSERT_EQ(store.size(), 3u);  // fired, not yet reclaimed
    EXPECT_EQ(store.deadline(store.at(store.find(1)).entry), kAllVisible);

    const Template tmpl = any_named("t", 1);  // Scan keeps a pointer to it
    const auto ids = [&](std::int64_t now) {
      std::vector<std::uint64_t> out;
      std::uint64_t steps = 0;
      Scan scan(shards, tmpl, now, &steps);
      while (const ShardEntries::Hit hit = scan.next()) {
        out.push_back(hit.slot->id);
      }
      return out;
    };
    EXPECT_EQ(ids(150), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(ids(kAllVisible), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_FALSE(ShardEntries::find_live(shards, 1, 150));
    EXPECT_TRUE(ShardEntries::find_live(shards, 1, kAllVisible));
    EXPECT_TRUE(ShardEntries::find_live(shards, 2, 150));
    EXPECT_FALSE(ShardEntries::find_live(shards, 2, 1'000));  // at deadline

    store.erase(store.find(1));  // the reclamation: a stale-id cancel
    EXPECT_EQ(ids(kAllVisible), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(wheel.armed(), 1u);
  }
}

// --- shard-store memory -----------------------------------------------------

TEST(ShardStoreMemory, SlotIsTheIdAndA72ByteEntry) {
  // Tuple 56 B + lease timer 8 B + two 4 B chain links = 72 B, after the
  // 8 B id: 80 B a slot, 64 slots a chunk. Each word more costs 8 B per
  // stored entry; a smaller slot means the layout comment is stale.
  EXPECT_EQ(sizeof(Entry), 72u);
  EXPECT_EQ(sizeof(Slot), 80u);
}

TEST(ShardStoreMemory, HeapPerIndexedEntry) {
#if !defined(TB_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and its own allocator";
#else
  // A (k<i % 1024>, int, int) entry costs an 80 B slab slot and a 48 B
  // field vector; the name fits the string's inline buffer. The chunks'
  // headers, the chunk table and the type index add about 2 B per entry.
  // As std::map nodes it was ~290 B with a 48 B id-set node per entry,
  // ~241 B with 40 B variant Values (a 96 B field vector), ~193 B with a
  // 96 B Entry (a 144 B node) and ~177 B with an 80 B Entry (a 128 B node).
  constexpr int kEntries = 50'000;
  sim::TimerWheel wheel;
  ShardEntries store(/*use_type_index=*/true, wheel);
  const std::size_t before = mallinfo2().uordblks;
  for (int i = 0; i < kEntries; ++i) {
    const std::int64_t v = i;
    // Built with += : GCC 12's -Wrestrict misfires on "k" + std::string.
    std::string name = "k";
    name += std::to_string(i % 1024);
    Tuple tuple = space::make_tuple(std::move(name), v, v);
    const std::uint64_t key = type_key(tuple.name, tuple.arity());
    store.store(static_cast<std::uint64_t>(i) + 1, key, std::move(tuple),
                kNoDeadline);
  }
  const std::size_t after = mallinfo2().uordblks;
  ASSERT_EQ(store.size(), static_cast<std::size_t>(kEntries));
  const double per_entry = static_cast<double>(after - before) / kEntries;
  RecordProperty("heap_bytes_per_entry", std::to_string(per_entry));
  EXPECT_LE(per_entry, 135.0);
#endif
}

// --- shard-store slab -------------------------------------------------------

/// The type of the entry stored under `id` in the slab tests below: two
/// interleaved chains.
std::string name_of(std::uint64_t id) { return id % 3 == 0 ? "t" : "u"; }

/// Stores (name_of(id), id) under `id`, forever.
void put(ShardEntries& store, std::uint64_t id) {
  Tuple tuple(name_of(id), {Value(static_cast<std::int64_t>(id))});
  const std::uint64_t key = type_key(tuple.name, tuple.arity());
  store.store(id, key, std::move(tuple), kNoDeadline);
}

/// Ids a Scan returns: of type `name`, or merged across shards.
std::vector<std::uint64_t> scan_ids(std::span<ShardEntries* const> shards,
                                    const std::string* name) {
  const Template tmpl = any_named(name != nullptr ? *name : "", 1);
  std::vector<std::uint64_t> out;
  std::uint64_t steps = 0;
  std::unique_ptr<Scan> scan =
      name != nullptr ? std::make_unique<Scan>(shards, tmpl, kAllVisible,
                                               &steps)
                      : std::make_unique<Scan>(shards, kAllVisible);
  while (const ShardEntries::Hit hit = scan->next()) {
    out.push_back(hit.slot->id);
  }
  return out;
}

/// The named scans (type chains, or linear walks), the merge and find_live
/// all agree with `live`, oldest first; ids up to `max_id` not in it are
/// absent.
void expect_slab_holds(std::span<ShardEntries* const> shards,
                       const std::set<std::uint64_t>& live,
                       std::uint64_t max_id) {
  const std::vector<std::uint64_t> all(live.begin(), live.end());
  EXPECT_EQ(scan_ids(shards, nullptr), all);
  for (const std::string name : {"t", "u"}) {
    std::vector<std::uint64_t> of_type;
    for (const std::uint64_t id : all) {
      if (name_of(id) == name) of_type.push_back(id);
    }
    EXPECT_EQ(scan_ids(shards, &name), of_type) << "type " << name;
  }
  for (std::uint64_t id = 1; id <= max_id; ++id) {
    const ShardEntries::Hit hit = ShardEntries::find_live(shards, id, 0);
    ASSERT_EQ(static_cast<bool>(hit), live.count(id) == 1) << "id " << id;
    if (!hit) continue;
    EXPECT_EQ(hit.slot->id, id);
    EXPECT_EQ(hit.slot->entry.tuple.fields[0].as_int(),
              static_cast<std::int64_t>(id));
    EXPECT_EQ(hit.slot->entry.tuple.name, name_of(id));
  }
}

// Commit publication and abort restoration store ids older than a shard's
// newest. A full chunk takes one by squeezing out its tombstones, or, with
// none, by splitting in two; either way every walk stays in id order and
// the moved slots' chain links follow them.
TEST(ShardSlab, OlderIdsSqueezeOrSplitAFullChunkAndKeepEveryOrder) {
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "type index" : "linear scan");
    sim::TimerWheel wheel;
    ShardEntries store(indexed, wheel);
    ShardEntries* const shards[] = {&store};
    std::set<std::uint64_t> live;
    const auto add = [&](std::uint64_t id) {
      put(store, id);
      live.insert(id);
    };
    const auto remove = [&](std::uint64_t id) {
      const ShardEntries::Hit hit = ShardEntries::find_live(shards, id, 0);
      ASSERT_TRUE(hit);
      store.erase(hit.ref);
      live.erase(id);
    };
    for (std::uint64_t id = 2; id <= 256; id += 2) add(id);  // two chunks
    ASSERT_EQ(store.allocated_slots(), 128u);
    expect_slab_holds(shards, live, 260);

    remove(10);
    add(33);  // full first chunk with a tombstone: squeezed, not split
    EXPECT_EQ(store.allocated_slots(), 128u);
    expect_slab_holds(shards, live, 260);

    add(3);  // full again, no tombstone: split
    EXPECT_EQ(store.allocated_slots(), 192u);
    add(1);    // before every id
    add(129);  // after the split-off upper half's last id
    add(255);  // inside the full last chunk: split
    EXPECT_EQ(store.allocated_slots(), 256u);
    expect_slab_holds(shards, live, 260);

    // Erasing unlinks through the fixed links; a broken one would cut or
    // cross a chain here.
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> ids(live.begin(), live.end());
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(ids.size() / 2);
    for (const std::uint64_t id : ids) remove(id);
    expect_slab_holds(shards, live, 260);
    EXPECT_EQ(store.size(), live.size());
  }
}

// Erasing tombstones slots; a chunk goes only with its last live slot. When
// the last chunk is full and tombstones exceed 1/8 of the live count, the
// next fresh write packs the shard first.
TEST(ShardSlab, FindLiveAfterCompaction) {
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "type index" : "linear scan");
    sim::TimerWheel wheel;
    ShardEntries store(indexed, wheel);
    ShardEntries* const shards[] = {&store};
    std::set<std::uint64_t> live;
    for (std::uint64_t id = 1; id <= 640; ++id) {
      put(store, id);
      if (id % 10 == 0) live.insert(id);
    }
    for (std::uint64_t id = 1; id <= 640; ++id) {
      if (id % 10 != 0) store.erase(store.find(id));
    }
    EXPECT_EQ(store.allocated_slots(), 640u);  // every chunk keeps 6 or 7
    expect_slab_holds(shards, live, 700);

    put(store, 641);  // 64 live in 640 slots: packed into one chunk first
    live.insert(641);
    EXPECT_EQ(store.allocated_slots(), 128u);
    expect_slab_holds(shards, live, 700);

    for (std::uint64_t id = 10; id <= 640; id += 10) {
      store.erase(store.find(id));  // empties the packed chunk: freed
      live.erase(id);
    }
    EXPECT_EQ(store.allocated_slots(), 64u);
    expect_slab_holds(shards, live, 700);
    store.erase(store.find(641));
    EXPECT_EQ(store.allocated_slots(), 0u);
    EXPECT_EQ(store.size(), 0u);
  }
}

// A long write/take churn at a fixed live size: tombstones are packed away,
// so the slab never holds more than twice the live entries plus one chunk
// per shard.
TEST(ShardSlab, ChurnAtFixedSizeKeepsTombstonesBounded) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kLive = 2'000;
  sim::TimerWheel wheel;
  std::vector<ShardEntries> owned;
  owned.reserve(kShards);
  std::vector<ShardEntries*> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(&owned.emplace_back(/*use_type_index=*/true, wheel));
  }
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  std::size_t peak = 0;
  const auto write = [&] {
    const std::uint64_t id = next_id++;
    // Built with += : GCC 12's -Wrestrict misfires on "k" + std::string.
    std::string name = "k";
    name += std::to_string(rng() % 8);
    Tuple tuple(std::move(name), {Value(static_cast<std::int64_t>(id))});
    const std::uint64_t key = type_key(tuple.name, tuple.arity());
    shards[static_cast<std::size_t>(shard_route(key, kShards))]->store(
        id, key, std::move(tuple), kNoDeadline);
    live.push_back(id);
  };
  for (std::size_t i = 0; i < kLive; ++i) write();
  for (int step = 0; step < 200'000; ++step) {
    write();
    const std::size_t victim = rng() % live.size();
    const ShardEntries::Hit hit =
        ShardEntries::find_live(shards, live[victim], kAllVisible);
    ASSERT_TRUE(hit);
    ASSERT_EQ(hit.slot->id, live[victim]);
    shards[static_cast<std::size_t>(hit.shard)]->erase(hit.ref);
    live[victim] = live.back();
    live.pop_back();
    std::size_t allocated = 0;
    for (const ShardEntries* shard : shards) {
      allocated += shard->allocated_slots();
    }
    peak = std::max(peak, allocated);
    ASSERT_LE(allocated, 2 * kLive + kShards * ShardEntries::kChunkSlots)
        << "step " << step;
  }
  RecordProperty("peak_allocated_slots", std::to_string(peak));
  std::sort(live.begin(), live.end());
  std::vector<std::uint64_t> merged;
  Scan scan(shards, kAllVisible);
  while (const ShardEntries::Hit hit = scan.next()) {
    merged.push_back(hit.slot->id);
  }
  EXPECT_EQ(merged, live);
}

// Under ASan a tombstone's entry is poisoned: reading a taken entry through
// the handle that found it is reported, not silently served.
TEST(ShardSlabDeathTest, StaleHandleReadIsReportedUnderAsan) {
#if !defined(TB_TEST_ASAN)
  GTEST_SKIP() << "needs TB_SANITIZE=address";
#else
  const auto read_taken = [] {
    sim::TimerWheel wheel;
    ShardEntries store(/*use_type_index=*/true, wheel);
    ShardEntries* const shards[] = {&store};
    put(store, 1);
    put(store, 2);  // keeps the chunk: slot 0 becomes a tombstone
    const ShardEntries::Hit hit = ShardEntries::find_live(shards, 1, 0);
    store.erase(hit.ref);
    const volatile std::size_t arity = hit.slot->entry.tuple.fields.size();
    (void)arity;
  };
  EXPECT_DEATH(read_taken(), "use-after-poison");
#endif
}

TEST(ShardStoreMemory, FewEntryEngineAllocatesNoMoreThanTheMapDid) {
#if !defined(TB_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and its own allocator";
#else
  sim::TimerWheel wheel;
  std::size_t before = mallinfo2().uordblks;
  {
    const ShardEntries store(/*use_type_index=*/true, wheel);
    EXPECT_EQ(mallinfo2().uordblks - before, 0u);  // nothing before a store
  }
  // fig7_bitwire's shape: a 1-shard engine that sees one write and one
  // exact take at a time. One unmeasured round first, so the measured one
  // starts from a heap whose free lists already hold each size it asks for
  // (without it, which free chunk serves a request moves the figures by a
  // few hundred bytes). The std::map store measured, 64-bit glibc 2.36:
  // 3,408 B once built (the engine object), 3,408-3,456 B after the 40
  // pairs and at the peak. The slab holds no more once a take has emptied
  // the shard; its peak holds one chunk more (5,136 B and its malloc
  // header).
  sim::Simulator sim(1);
  SpaceConfig config;
  config.shard_count = 1;
  const auto pairs = [](SpaceEngine& space, std::size_t* peak,
                        std::size_t base) {
    for (std::int64_t seq = 0; seq < 40; ++seq) {
      const std::vector<std::uint8_t> blob(64, static_cast<std::uint8_t>(seq));
      space.write(space::make_tuple("entry", seq, blob), 10_s);
      *peak = std::max(*peak, mallinfo2().uordblks - base);
      std::vector<FieldPattern> fields;
      fields.push_back(FieldPattern::exact(Value(seq)));
      fields.push_back(FieldPattern::exact(Value(blob)));
      ASSERT_TRUE(space.take_if_exists(
          Template(std::string("entry"), std::move(fields))));
    }
  };
  {
    std::size_t unmeasured = 0;
    SpaceEngine space(sim, config);
    pairs(space, &unmeasured, 0);
  }
  before = mallinfo2().uordblks;
  auto space = std::make_unique<SpaceEngine>(sim, config);
  const std::size_t built = mallinfo2().uordblks - before;
  std::size_t peak = built;
  pairs(*space, &peak, before);
  const std::size_t after = mallinfo2().uordblks - before;
  RecordProperty("built_bytes", std::to_string(built));
  RecordProperty("after_bytes", std::to_string(after));
  RecordProperty("peak_bytes", std::to_string(peak));
  EXPECT_LE(built, 3'408u);
  EXPECT_LE(after, 3'456u);
  EXPECT_LE(peak, 3'456u + sizeof(Slot) * ShardEntries::kChunkSlots + 32);
#endif
}

}  // namespace
}  // namespace tb::space
