// Differential oracle harness (DESIGN.md §11, ISSUE 6): a seed-driven
// fuzzer drives the real-thread ThreadedSpaceEngine with concurrent client
// threads — writes (forever and µs-range finite leases), renewals racing
// expiry, lease cancels, if-exists and bulk matches (named and wildcard,
// Zipf-skewed keys), blocking takes with short timeouts, transactions, and
// notify churn, and mid-run consistent-cut snapshots — while every
// operation is recorded in an OpLog at its linearization ticket. The log
// is then replayed in ticket order (expiry-at-ticket, see oplog.hpp)
// through two oracles: the single-threaded deterministic SpaceEngine, and
// the naive linear-scan model in naive_space.hpp, which shares no code with
// either engine — the engines share ShardStore, so a bug there would
// otherwise replay identically through both. Any per-op result mismatch,
// lost wakeup, mis-ordered wildcard merge, lease reclaimed at the wrong
// instant, or final-state difference fails the seed.
//
// 32 seeds x shard_count {1, 4, 16} run under ctest (label: threaded); the
// CI thread-sanitizer job runs the same binary under TSan, and the nightly
// workflow sweeps TB_DIFF_SEEDS=192 (6x) under TSan as a long soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "naive_space.hpp"
#include "src/space/oplog.hpp"
#include "threaded_logs.hpp"

namespace tb::space {
namespace {

constexpr int kSeeds = 32;

/// Seed count, overridable for the nightly long-soak sweep
/// (TB_DIFF_SEEDS=192 runs 6x the default).
int seed_count() { return difflog::seed_count("TB_DIFF_SEEDS", kSeeds); }

void run_differential_seed(std::uint64_t seed, int shard_count) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(shard_count));
  OpLog log;
  const difflog::RecordedRun run =
      difflog::record_threaded_run(seed, shard_count, log);
  const std::vector<Tuple>& final_state = run.final_state;
  const SpaceEngine::Stats& threaded_stats = run.stats;

  sim::Simulator naive_sim;
  NaiveSpace naive(naive_sim);
  const ReplayReport engine_report =
      replay_against_oracle(log, run.config, final_state);
  const ReplayReport naive_report =
      replay_log(log, naive_sim, naive, final_state);

  for (const ReplayReport* report : {&engine_report, &naive_report}) {
    SCOPED_TRACE(report == &engine_report ? "oracle=SpaceEngine"
                                          : "oracle=NaiveSpace");
    EXPECT_TRUE(report->equivalent) << report->divergence;
    if (!report->equivalent) continue;

    // Notify deliveries: the threaded callbacks and the oracle replay must
    // have observed the same per-registration counts.
    const auto oracle_count = [report](std::uint64_t reg) -> std::uint64_t {
      const auto it = report->notify_deliveries.find(reg);
      return it == report->notify_deliveries.end() ? 0 : it->second;
    };
    EXPECT_EQ(run.named_hits, oracle_count(run.named_reg));
    EXPECT_EQ(run.wild_hits, oracle_count(run.wild_reg));

    // Aggregate op counts must agree with the oracle's replay of the same
    // linearization (peaks and scan_steps are runtime-specific and
    // excluded).
    const SpaceEngine::Stats& oracle = report->oracle_stats;
    EXPECT_EQ(threaded_stats.writes, oracle.writes);
    EXPECT_EQ(threaded_stats.reads, oracle.reads);
    EXPECT_EQ(threaded_stats.takes, oracle.takes);
    EXPECT_EQ(threaded_stats.misses, oracle.misses);
    EXPECT_EQ(threaded_stats.notifications, oracle.notifications);
    EXPECT_EQ(threaded_stats.commits, oracle.commits);
    EXPECT_EQ(threaded_stats.aborts, oracle.aborts);
    // Lease machinery: every threaded reclamation, renewal hit, and cancel
    // hit must have replayed through the oracle's clock at the same ticket.
    EXPECT_EQ(threaded_stats.expirations, oracle.expirations);
    EXPECT_EQ(threaded_stats.renewals, oracle.renewals);
    EXPECT_EQ(threaded_stats.cancellations, oracle.cancellations);
  }
}

TEST(SpaceDifferential, ThreadedMatchesOracleSingleShard) {
  const int seeds = seed_count();
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(seeds);
       ++seed) {
    run_differential_seed(seed, /*shard_count=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SpaceDifferential, ThreadedMatchesOracleFourShards) {
  const int seeds = seed_count();
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(seeds);
       ++seed) {
    run_differential_seed(seed, /*shard_count=*/4);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SpaceDifferential, ThreadedMatchesOracleSixteenShards) {
  const int seeds = seed_count();
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(seeds);
       ++seed) {
    run_differential_seed(seed, /*shard_count=*/16);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The naive model, except that writing a tuple named "boom" throws.
class ThrowingSpace : public NaiveSpace {
 public:
  using NaiveSpace::NaiveSpace;
  Lease write(Tuple tuple, sim::Time lease, std::uint64_t txn) {
    if (tuple.name == "boom") throw std::runtime_error("boom");
    return NaiveSpace::write(std::move(tuple), lease, txn);
  }
};

// A throw inside the oracle names the record being applied, not op[0]. The
// log is appended out of ticket order, so the report's index is the
// ticket-sorted one.
TEST(SpaceDifferential, OracleThrowNamesTheRecordBeingApplied) {
  constexpr std::size_t kRecords = 40;
  std::mt19937_64 rng(13);
  const std::size_t k = 1 + static_cast<std::size_t>(rng() % (kRecords - 1));
  std::vector<OpRecord> records(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    records[i].ticket = 10 * (i + 1);
    records[i].kind = OpRecord::Kind::kWrite;
    records[i].tuple =
        make_tuple(i == k ? "boom" : "ok", static_cast<std::int64_t>(i));
  }
  std::shuffle(records.begin(), records.end(), rng);
  OpLog log;
  for (OpRecord& record : records) log.append(std::move(record));

  sim::Simulator sim;
  ThrowingSpace oracle(sim);
  const ReplayReport report = replay_log(log, sim, oracle, {});
  EXPECT_FALSE(report.equivalent);
  EXPECT_EQ(report.divergence, "op[" + std::to_string(k) + "] ticket " +
                                   std::to_string(10 * (k + 1)) +
                                   " (write): oracle replay threw: boom");
}

}  // namespace
}  // namespace tb::space
