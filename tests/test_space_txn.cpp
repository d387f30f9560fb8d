// JavaSpaces-style transactions: isolation, commit/abort, holds, timeouts.
#include "src/space/engine.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

namespace tb::space {
namespace {

using namespace tb::sim::literals;

Template any_named(const std::string& name, std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(name, std::move(fields));
}

class TxnTest : public ::testing::Test {
 protected:
  sim::Simulator sim_{1};
  SpaceEngine space_{sim_};
};

TEST_F(TxnTest, ProvisionalWriteInvisibleOutside) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(TxnTest, ProvisionalWriteVisibleInside) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  auto seen = space_.read_if_exists(any_named("t", 1), txn);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->fields[0], Value(1));
}

TEST_F(TxnTest, CommitPublishes) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  EXPECT_TRUE(space_.commit(txn));
  auto seen = space_.read_if_exists(any_named("t", 1));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(space_.size(), 1u);
  EXPECT_EQ(space_.open_transactions(), 0u);
}

TEST_F(TxnTest, AbortDiscardsWrites) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  EXPECT_TRUE(space_.abort(txn));
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  EXPECT_EQ(space_.stats().aborts, 1u);
}

TEST_F(TxnTest, ResolvedTransactionIdIsDead) {
  const std::uint64_t txn = space_.begin_transaction();
  EXPECT_TRUE(space_.commit(txn));
  EXPECT_FALSE(space_.commit(txn));
  EXPECT_FALSE(space_.abort(txn));
  EXPECT_THROW(space_.write(make_tuple("t", 1), kLeaseForever, txn),
               util::PreconditionError);
}

TEST_F(TxnTest, TakenEntryHeldInvisibly) {
  space_.write(make_tuple("t", 1));
  const std::uint64_t txn = space_.begin_transaction();
  auto taken = space_.take_if_exists(any_named("t", 1), txn);
  ASSERT_TRUE(taken.has_value());
  // Nobody sees it while held — not even another transaction.
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  const std::uint64_t other = space_.begin_transaction();
  EXPECT_FALSE(space_.take_if_exists(any_named("t", 1), other).has_value());
  space_.abort(other);
  space_.commit(txn);
  // Commit makes the take permanent.
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(TxnTest, AbortRestoresHeldEntry) {
  const Lease original = space_.write(make_tuple("t", 7));
  const std::uint64_t txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  EXPECT_EQ(space_.size(), 0u);
  space_.abort(txn);
  auto restored = space_.read_if_exists(any_named("t", 1));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->fields[0], Value(7));
  // The restored entry keeps its original lease identity.
  EXPECT_TRUE(space_.cancel(original.id));
}

TEST_F(TxnTest, AbortRestorationRespectsLeaseExpiry) {
  space_.write(make_tuple("t", 1), 100_ms);
  const std::uint64_t txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  sim_.run_until(200_ms);  // lease runs out while held
  space_.abort(txn);
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(TxnTest, TakeOwnProvisionalWriteUnwritesIt) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  auto taken = space_.take_if_exists(any_named("t", 1), txn);
  ASSERT_TRUE(taken.has_value());
  space_.commit(txn);
  // Write + take inside the same transaction nets to nothing.
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(TxnTest, NotifyFiresAtCommitNotAtWrite) {
  int events = 0;
  space_.notify(any_named("t", 1), kLeaseForever,
                [&](const Tuple&) { ++events; });
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  sim_.run_until(10_ms);
  EXPECT_EQ(events, 0);
  space_.commit(txn);
  sim_.run_until(20_ms);
  EXPECT_EQ(events, 1);
}

TEST_F(TxnTest, NotifyDoesNotFireOnAbort) {
  int events = 0;
  space_.notify(any_named("t", 1), kLeaseForever,
                [&](const Tuple&) { ++events; });
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  space_.abort(txn);
  sim_.run_until(10_ms);
  EXPECT_EQ(events, 0);
}

TEST_F(TxnTest, AbortRestorationDoesNotRefireNotify) {
  int events = 0;
  space_.notify(any_named("t", 1), kLeaseForever,
                [&](const Tuple&) { ++events; });
  space_.write(make_tuple("t", 1));  // fires once
  const std::uint64_t txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  space_.abort(txn);  // restoration must stay silent
  sim_.run_until(10_ms);
  EXPECT_EQ(events, 1);
}

TEST_F(TxnTest, CommitServesBlockedTakes) {
  std::optional<Tuple> got;
  space_.take_async(any_named("t", 1), kLeaseForever,
                    [&](std::optional<Tuple> r) { got = std::move(r); });
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 5), kLeaseForever, txn);
  sim_.run_until(10_ms);
  EXPECT_FALSE(got.has_value());  // still provisional
  space_.commit(txn);
  sim_.run_until(20_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], Value(5));
}

TEST_F(TxnTest, AbortRestorationServesBlockedTakes) {
  space_.write(make_tuple("t", 9));
  const std::uint64_t txn = space_.begin_transaction();
  ASSERT_TRUE(space_.take_if_exists(any_named("t", 1), txn).has_value());
  std::optional<Tuple> got;
  space_.take_async(any_named("t", 1), kLeaseForever,
                    [&](std::optional<Tuple> r) { got = std::move(r); });
  space_.abort(txn);
  sim_.run_until(10_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->fields[0], Value(9));
}

TEST_F(TxnTest, TimeoutAutoAborts) {
  const std::uint64_t txn = space_.begin_transaction(100_ms);
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  space_.write(make_tuple("held", 2));
  ASSERT_TRUE(space_.take_if_exists(any_named("held", 1), txn).has_value());
  sim_.run_until(200_ms);
  EXPECT_EQ(space_.open_transactions(), 0u);
  EXPECT_EQ(space_.stats().aborts, 1u);
  // Writes gone, held entry restored.
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  EXPECT_TRUE(space_.read_if_exists(any_named("held", 1)).has_value());
}

TEST_F(TxnTest, CommitBeforeTimeoutCancelsIt) {
  const std::uint64_t txn = space_.begin_transaction(100_ms);
  space_.write(make_tuple("t", 1), kLeaseForever, txn);
  space_.commit(txn);
  sim_.run_until(200_ms);
  EXPECT_EQ(space_.stats().aborts, 0u);
  EXPECT_TRUE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(TxnTest, ProvisionalLeaseRunsFromWrite) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), 100_ms, txn);
  sim_.run_until(200_ms);  // lease dies while provisional
  space_.commit(txn);
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(TxnTest, CommittedEntryKeepsRemainingLease) {
  const std::uint64_t txn = space_.begin_transaction();
  space_.write(make_tuple("t", 1), 300_ms, txn);
  sim_.run_until(100_ms);
  space_.commit(txn);
  sim_.run_until(250_ms);
  EXPECT_TRUE(space_.read_if_exists(any_named("t", 1)).has_value());
  sim_.run_until(400_ms);
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(TxnTest, TwoTransactionsAreIsolated) {
  const std::uint64_t a = space_.begin_transaction();
  const std::uint64_t b = space_.begin_transaction();
  space_.write(make_tuple("t", 1), kLeaseForever, a);
  // b can't see a's write.
  EXPECT_FALSE(space_.read_if_exists(any_named("t", 1), b).has_value());
  space_.commit(a);
  // Now it's public and b can take it.
  EXPECT_TRUE(space_.take_if_exists(any_named("t", 1), b).has_value());
  space_.abort(b);
  // b's abort restores it.
  EXPECT_TRUE(space_.read_if_exists(any_named("t", 1)).has_value());
}

TEST_F(TxnTest, ManyWritesCommitInOrder) {
  const std::uint64_t txn = space_.begin_transaction();
  for (int i = 0; i < 5; ++i) {
    space_.write(make_tuple("seq", std::int64_t{i}), kLeaseForever, txn);
  }
  space_.commit(txn);
  for (int i = 0; i < 5; ++i) {
    auto t = space_.take_if_exists(any_named("seq", 1));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->fields[0], Value(std::int64_t{i}));  // FIFO preserved
  }
}

TEST_F(TxnTest, StatsCountResolutions) {
  const std::uint64_t a = space_.begin_transaction();
  const std::uint64_t b = space_.begin_transaction();
  space_.commit(a);
  space_.abort(b);
  EXPECT_EQ(space_.stats().commits, 1u);
  EXPECT_EQ(space_.stats().aborts, 1u);
}

}  // namespace
}  // namespace tb::space
