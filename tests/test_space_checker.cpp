// The replay checker's batching harness (DESIGN.md §11): how a log is cut
// into batches must not change its report. Each seed's threaded
// differential log (threaded_logs.hpp), clean and in 30 seeded corrupted
// variants, is checked twice through each oracle — SpaceEngine and the
// naive model in naive_space.hpp: once as one batch, and once in seeded
// random watermark steps, some of them fed one record at a time as a live
// federation feeds it. Both runs must give
// byte-identical reports: verdict, divergence string, ops_replayed,
// oracle_stats and notify deliveries.
//
// A step may end anywhere except between a lease's arming and its expiry:
// there the expiry cannot replay, and the checker reports that instead
// (test_space_oplog's ExpiryPastTheCheckedPrefixDiverges).
//
// 32 seeds x shard_count {1, 4, 16} run under the threaded label; the
// tier-1 registration runs TB_CHECKER_SEEDS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "naive_space.hpp"
#include "src/space/oplog.hpp"
#include "threaded_logs.hpp"

namespace tb::space {
namespace {

constexpr int kSeeds = 32;
constexpr int kVariants = 30;

using Kind = OpRecord::Kind;

/// Corrupts one seeded record of a ticket-ordered log: a changed result,
/// flag or tuple, or a dropped record.
void corrupt(std::vector<OpRecord>& records, std::mt19937_64& rng) {
  if (records.empty()) return;
  const std::size_t i = rng() % records.size();
  OpRecord& r = records[i];
  const Tuple bogus = make_tuple("corrupt", std::int64_t{-1});
  switch (r.kind) {
    case Kind::kWrite:
      if (!r.tuple.fields.empty()) {
        r.tuple.fields[0] = Value(std::int64_t{-7});
        return;
      }
      break;
    case Kind::kReadIfExists:
    case Kind::kTakeIfExists:
    case Kind::kBlockingRead:
    case Kind::kBlockingTake: {
      OpRecord::Match& m = r.match();
      if (m.result.has_value()) {
        m.result.reset();
      } else {
        m.result = bogus;
      }
      if (r.kind == Kind::kBlockingRead || r.kind == Kind::kBlockingTake) {
        m.timed_out = !m.result.has_value();
      }
      return;
    }
    case Kind::kReadAll:
    case Kind::kTakeAll:
    case Kind::kSnapshot: {
      OpRecord::Match& m = r.match();
      if (m.results.empty()) {
        m.results.push_back(bogus);
      } else {
        m.results.pop_back();
      }
      return;
    }
    case Kind::kCommit:
    case Kind::kAbort:
    case Kind::kNotifyCancel:
    case Kind::kRenew:
    case Kind::kCancelLease:
      r.ok = !r.ok;
      return;
    case Kind::kBeginTxn:
    case Kind::kNotifyReg:
    case Kind::kLeaseExpire:
    case Kind::kTakeExact:  // only a federated node logs one
      break;
  }
  records.erase(records.begin() + static_cast<std::ptrdiff_t>(i));
}

/// Whether a batch may start at each record: not when an expiry at or
/// after it names an entry last armed, or written, before it
/// (detail::plan_leases would call that expiry stranded).
std::vector<bool> lease_safe_cuts(const std::vector<OpRecord>& records) {
  std::vector<bool> safe(records.size() + 1, true);
  std::unordered_map<std::uint64_t, std::size_t> armed;  // target -> index
  for (std::size_t e = 0; e < records.size(); ++e) {
    const OpRecord& r = records[e];
    if (r.kind == Kind::kWrite && r.txn == kNoTxn) armed[r.ticket] = e;
    if (r.kind == Kind::kRenew && r.ok) armed[r.target] = e;
    if (r.kind != Kind::kLeaseExpire) continue;
    // The newest record at or below the target's ticket, or its arming.
    std::size_t p = 0;
    bool any = false;
    for (std::size_t k = e; k-- > 0;) {
      if (records[k].ticket <= r.target) {
        p = k;
        any = true;
        break;
      }
    }
    const auto it = armed.find(r.target);
    if (it != armed.end()) {
      p = any ? std::max(p, it->second) : it->second;
      any = true;
      armed.erase(it);
    }
    for (std::size_t k = any ? p + 1 : 0; k <= e; ++k) safe[k] = false;
  }
  return safe;
}

/// Checks `records` as one batch.
template <class Oracle>
ReplayReport one_batch(const std::vector<OpRecord>& records, Oracle& oracle,
                       sim::Simulator& sim,
                       const std::vector<Tuple>& final_state) {
  std::vector<const OpRecord*> batch;
  for (const OpRecord& r : records) batch.push_back(&r);
  ReplayChecker<Oracle> checker(sim, oracle);
  checker.check(batch);
  return checker.finish(final_state);
}

/// Checks `records` in random steps, each ending at a lease-safe cut.
/// About half the steps whose every inner cut is safe hand the checker a
/// copy of one record at a time, as a live federation does; the rest check
/// a sub-range of the pointer view as one batch. Returns the report and
/// counts the steps.
template <class Oracle>
ReplayReport in_steps(const std::vector<OpRecord>& records, Oracle& oracle,
                      sim::Simulator& sim,
                      const std::vector<Tuple>& final_state,
                      std::mt19937_64& rng, std::size_t& steps) {
  const std::vector<bool> safe = lease_safe_cuts(records);
  std::vector<const OpRecord*> view;
  for (const OpRecord& r : records) view.push_back(&r);
  ReplayChecker<Oracle> checker(sim, oracle);
  std::size_t next = 0;
  while (next < records.size()) {
    std::size_t end = std::min(records.size(), next + 1 + rng() % 48);
    while (!safe[end]) ++end;  // the log's end is always safe
    const bool singly =
        rng() % 2 == 0 && std::all_of(safe.begin() + next + 1,
                                      safe.begin() + end,
                                      [](bool cut) { return cut; });
    if (singly) {
      for (; next < end; ++next) checker.check(OpRecord(records[next]));
    } else {
      checker.check(std::vector<const OpRecord*>(view.begin() + next,
                                                 view.begin() + end));
      next = end;
    }
    ++steps;
  }
  return checker.finish(final_state);
}

void expect_identical(const ReplayReport& a, const ReplayReport& b) {
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.divergence, b.divergence);
  EXPECT_EQ(a.ops_replayed, b.ops_replayed);
  EXPECT_TRUE(a.oracle_stats == b.oracle_stats);
  EXPECT_EQ(a.notify_deliveries, b.notify_deliveries);
}

struct Tally {
  std::size_t reports = 0;
  std::size_t diverged = 0;
  std::size_t batches = 0;
};

void check_seed(std::uint64_t seed, int shard_count, Tally& tally) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(shard_count));
  OpLog log;
  const difflog::RecordedRun run =
      difflog::record_threaded_run(seed, shard_count, log);
  std::vector<OpRecord> clean;
  for (const OpRecord* r : log.by_ticket()) clean.push_back(*r);

  std::mt19937_64 rng(seed * 1'000'003 +
                      static_cast<std::uint64_t>(shard_count));
  for (int variant = 0; variant <= kVariants; ++variant) {
    SCOPED_TRACE("variant=" + std::to_string(variant));
    std::vector<OpRecord> records = clean;
    if (variant > 0) corrupt(records, rng);
    const std::uint64_t step_seed = rng();

    SpaceConfig config = run.config;
    config.execution_mode = ExecutionMode::kDeterministic;
    for (int oracle_kind = 0; oracle_kind < 2; ++oracle_kind) {
      SCOPED_TRACE(oracle_kind == 0 ? "oracle=SpaceEngine"
                                    : "oracle=NaiveSpace");
      std::mt19937_64 steps_rng(step_seed);
      std::size_t steps = 0;
      ReplayReport whole;
      ReplayReport stepped;
      if (oracle_kind == 0) {
        sim::Simulator sim_a;
        SpaceEngine a(sim_a, config);
        whole = one_batch(records, a, sim_a, run.final_state);
        sim::Simulator sim_b;
        SpaceEngine b(sim_b, config);
        stepped =
            in_steps(records, b, sim_b, run.final_state, steps_rng, steps);
      } else {
        sim::Simulator sim_a;
        NaiveSpace a(sim_a);
        whole = one_batch(records, a, sim_a, run.final_state);
        sim::Simulator sim_b;
        NaiveSpace b(sim_b);
        stepped =
            in_steps(records, b, sim_b, run.final_state, steps_rng, steps);
      }
      if (variant == 0) {
        EXPECT_TRUE(whole.equivalent) << whole.divergence;
      }
      expect_identical(whole, stepped);
      ++tally.reports;
      tally.diverged += whole.equivalent ? 0 : 1;
      tally.batches += steps;
    }
  }
}

void sweep(int shard_count) {
  const int seeds = difflog::seed_count("TB_CHECKER_SEEDS", kSeeds);
  Tally tally;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(seeds);
       ++seed) {
    check_seed(seed, shard_count, tally);
    if (::testing::Test::HasFailure()) return;
  }
  // The harness has teeth: corrupted variants mostly diverge, and logs are
  // cut into many batches.
  const std::size_t corrupted = tally.reports * kVariants / (kVariants + 1);
  EXPECT_GE(tally.diverged * 10, corrupted * 8)
      << tally.diverged << " of " << corrupted << " corrupted reports diverged";
  EXPECT_GE(tally.batches, tally.reports * 4);
  ::testing::Test::RecordProperty("reports", std::to_string(tally.reports));
  ::testing::Test::RecordProperty("diverged", std::to_string(tally.diverged));
  ::testing::Test::RecordProperty("batches", std::to_string(tally.batches));
}

TEST(ReplayCheckerBatching, SingleShardLogs) { sweep(1); }
TEST(ReplayCheckerBatching, FourShardLogs) { sweep(4); }
TEST(ReplayCheckerBatching, SixteenShardLogs) { sweep(16); }

}  // namespace
}  // namespace tb::space
