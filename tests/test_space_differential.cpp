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
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "naive_space.hpp"
#include "src/space/oplog.hpp"
#include "src/space/threaded.hpp"

namespace tb::space {
namespace {

using namespace std::chrono_literals;

constexpr int kSeeds = 32;
constexpr int kClients = 4;
constexpr int kOpsPerClient = 120;
constexpr int kKeyCount = 8;

/// Seed count, overridable for the nightly long-soak sweep
/// (TB_DIFF_SEEDS=192 runs 6x the default).
int seed_count() {
  const char* env = std::getenv("TB_DIFF_SEEDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return kSeeds;
}

Template any_named(const std::string& name, std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(name, std::move(fields));
}

Template wildcard(std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(std::nullopt, std::move(fields));
}

/// Zipf-ish key skew: key k drawn with weight 1/(k+1); a few hot names get
/// most of the traffic (and therefore most of the cross-thread contention),
/// the tail keeps the sharded routing honest.
int zipf_key(std::mt19937_64& rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> weights(kKeyCount);
    double total = 0.0;
    for (int k = 0; k < kKeyCount; ++k) {
      weights[static_cast<std::size_t>(k)] = 1.0 / (k + 1);
      total += weights[static_cast<std::size_t>(k)];
    }
    std::vector<double> out(kKeyCount);
    double acc = 0.0;
    for (int k = 0; k < kKeyCount; ++k) {
      acc += weights[static_cast<std::size_t>(k)] / total;
      out[static_cast<std::size_t>(k)] = acc;
    }
    return out;
  }();
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double u = uni(rng);
  for (int k = 0; k < kKeyCount; ++k) {
    if (u <= cdf[static_cast<std::size_t>(k)]) return k;
  }
  return kKeyCount - 1;
}

std::string key_name(int key) { return "k" + std::to_string(key); }

void client_worker(ThreadedSpaceEngine& space, std::uint64_t seed, int tid,
                   std::uint64_t wild_reg, std::atomic<bool>& reg_cancelled) {
  std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(tid) + 1);
  std::uniform_int_distribution<int> pct(0, 99);
  std::int64_t counter = tid * 1'000'000;
  // Ids of this client's finite-lease writes: renew/cancel targets. Entries
  // may have expired, been taken, or been cancelled by the time they are
  // renewed — exactly the races the oracle must reproduce.
  std::vector<std::uint64_t> leased;

  for (int op = 0; op < kOpsPerClient; ++op) {
    const int key = zipf_key(rng);
    const int roll = pct(rng);
    // Arity 2 on a minority of writes/templates exercises distinct
    // (name, arity) type keys — and therefore distinct shards — per name.
    const bool arity2 = pct(rng) < 25;
    const std::size_t arity = arity2 ? 2u : 1u;
    const bool wild = pct(rng) < 15;
    const Template tmpl =
        wild ? wildcard(arity) : any_named(key_name(key), arity);

    if (roll < 34) {
      if (arity2) {
        space.write(make_tuple(key_name(key), ++counter, std::int64_t{tid}));
      } else {
        space.write(make_tuple(key_name(key), ++counter));
      }
    } else if (roll < 44) {
      // Finite lease in the same µs band as the op rate: some entries are
      // matched or renewed while live, some expire mid-run, some are
      // reclaimed only when their shard worker next wakes.
      const auto lease =
          std::chrono::microseconds(50 + 200 * (pct(rng) % 4));
      const Lease l = space.write(make_tuple(key_name(key), ++counter),
                                  sim::Time::us(lease.count()), kNoTxn);
      leased.push_back(l.id);
    } else if (roll < 50 && !leased.empty()) {
      // Renew racing expiry: the target may already be gone (expired,
      // taken, cancelled) — the recorded hit/miss must replay identically.
      const std::uint64_t id =
          leased[static_cast<std::size_t>(pct(rng)) % leased.size()];
      const sim::Time extension = pct(rng) < 20
                                      ? kLeaseForever
                                      : sim::Time::us(100 + 150 * (pct(rng) % 3));
      (void)space.renew(id, extension);
    } else if (roll < 54 && !leased.empty()) {
      const std::uint64_t id =
          leased[static_cast<std::size_t>(pct(rng)) % leased.size()];
      (void)space.cancel(id);
    } else if (roll < 64) {
      (void)space.read_if_exists(tmpl);
    } else if (roll < 72) {
      (void)space.take_if_exists(tmpl);
    } else if (roll < 76) {
      (void)space.read_all(tmpl, 4);
    } else if (roll < 80) {
      (void)space.take_all(tmpl, 4);
    } else if (roll < 82) {
      // Mid-run consistent cut while every other client keeps mutating:
      // the threaded engine logs the cut it returned (kSnapshot), and the
      // replay checks the oracle reproduces that exact cut at the same
      // ticket — the sequence-point snapshot must be a real linearization
      // point, not a fuzzy union of per-shard states.
      (void)space.snapshot();
    } else if (roll < 90) {
      // Short-timeout blocking take on a (usually hot) named key: racing
      // writers may serve it, otherwise the timeout path linearizes a
      // cancellation ticket the oracle must reproduce.
      const auto timeout =
          std::chrono::microseconds(100 + 200 * (pct(rng) % 4));
      (void)space.take(any_named(key_name(key), 1), timeout);
    } else {
      const std::uint64_t txn = space.begin_transaction();
      const int body = 1 + pct(rng) % 3;
      for (int i = 0; i < body; ++i) {
        if (pct(rng) < 60) {
          space.write(make_tuple(key_name(zipf_key(rng)), ++counter), txn);
        } else {
          (void)space.take_if_exists(any_named(key_name(zipf_key(rng)), 1),
                                     txn);
        }
      }
      if (pct(rng) < 70) {
        space.commit(txn);
      } else {
        space.abort(txn);
      }
    }

    // One seed-dependent mid-run notify cancellation: the count observed by
    // the threaded callbacks must still equal the oracle's delivery count
    // up to the cancellation ticket.
    if (tid == 0 && op == kOpsPerClient / 2 && seed % 2 == 1 &&
        !reg_cancelled.exchange(true)) {
      space.cancel_notify(wild_reg);
    }
  }
}

void run_differential_seed(std::uint64_t seed, int shard_count) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(shard_count));
  OpLog log;
  const SpaceConfig config{.use_type_index = true,
                           .shard_count = shard_count,
                           .execution_mode = ExecutionMode::kThreaded,
                           .inbox_capacity = 64};
  ThreadedSpaceEngine space(config, &log);

  std::atomic<std::uint64_t> named_hits{0};
  std::atomic<std::uint64_t> wild_hits{0};
  const std::uint64_t named_reg = space.notify(
      any_named(key_name(0), 1),
      [&named_hits](const Tuple&) { named_hits.fetch_add(1); });
  const std::uint64_t wild_reg = space.notify(
      wildcard(1), [&wild_hits](const Tuple&) { wild_hits.fetch_add(1); });

  std::atomic<bool> reg_cancelled{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&space, seed, tid, wild_reg, &reg_cancelled] {
      client_worker(space, seed, tid, wild_reg, reg_cancelled);
    });
  }
  for (std::thread& t : clients) t.join();

  // Shut down BEFORE snapshotting: shard workers may still reclaim expired
  // entries (drawing kLeaseExpire tickets) after the clients are gone, and
  // the replay's final-state check needs the snapshot to postdate every
  // logged reclamation.
  space.shutdown();
  const std::vector<Tuple> final_state = space.snapshot();
  const ThreadedSpaceEngine::Stats threaded_stats = space.stats();

  sim::Simulator naive_sim;
  NaiveSpace naive(naive_sim);
  const ReplayReport engine_report =
      replay_against_oracle(log, config, final_state);
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
    EXPECT_EQ(named_hits.load(), oracle_count(named_reg));
    EXPECT_EQ(wild_hits.load(), oracle_count(wild_reg));

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
