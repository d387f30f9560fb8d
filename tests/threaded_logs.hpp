// Seed-driven threaded differential logs (DESIGN.md §11), shared by the
// differential sweep (test_space_differential) and the replay checker's
// batching sweep (test_space_checker). Concurrent client threads drive the
// real-thread ThreadedSpaceEngine — writes (forever and µs-range finite
// leases), renewals racing expiry, lease cancels, if-exists and bulk
// matches (named and wildcard, Zipf-skewed keys), blocking takes with short
// timeouts, transactions, notify churn and mid-run consistent-cut
// snapshots — while every operation is recorded in an OpLog at its
// linearization ticket.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/space/oplog.hpp"
#include "src/space/threaded.hpp"

namespace tb::space::difflog {

constexpr int kClients = 4;
constexpr int kOpsPerClient = 120;
constexpr int kKeyCount = 8;

/// A seed count: `fallback`, unless the environment variable `env` holds a
/// positive override.
inline int seed_count(const char* env, int fallback) {
  const char* value = std::getenv(env);
  if (value != nullptr) {
    const int n = std::atoi(value);
    if (n > 0) return n;
  }
  return fallback;
}

inline Template any_named(const std::string& name, std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(name, std::move(fields));
}

inline Template wildcard(std::size_t arity) {
  std::vector<FieldPattern> fields(arity, FieldPattern::any());
  return Template(std::nullopt, std::move(fields));
}

/// Zipf-ish key skew: key k drawn with weight 1/(k+1); a few hot names get
/// most of the traffic (and therefore most of the cross-thread contention),
/// the tail keeps the sharded routing honest.
inline int zipf_key(std::mt19937_64& rng) {
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

inline std::string key_name(int key) { return "k" + std::to_string(key); }

inline void client_worker(ThreadedSpaceEngine& space, std::uint64_t seed,
                          int tid, std::uint64_t wild_reg,
                          std::atomic<bool>& reg_cancelled) {
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

/// What a recorded run leaves besides its log.
struct RecordedRun {
  SpaceConfig config;
  std::vector<Tuple> final_state;  ///< snapshot() after shutdown()
  SpaceEngine::Stats stats;        ///< the threaded engine's
  std::uint64_t named_reg = 0;     ///< notify registrations and the
  std::uint64_t wild_reg = 0;      ///< deliveries their callbacks saw
  std::uint64_t named_hits = 0;
  std::uint64_t wild_hits = 0;
};

/// Runs one seed's clients against a `shard_count`-shard threaded engine,
/// recording into `log`.
inline RecordedRun record_threaded_run(std::uint64_t seed, int shard_count,
                                       OpLog& log) {
  RecordedRun run;
  run.config = SpaceConfig{.use_type_index = true,
                           .shard_count = shard_count,
                           .execution_mode = ExecutionMode::kThreaded,
                           .inbox_capacity = 64};
  ThreadedSpaceEngine space(run.config, &log);

  std::atomic<std::uint64_t> named_hits{0};
  std::atomic<std::uint64_t> wild_hits{0};
  run.named_reg = space.notify(
      any_named(key_name(0), 1),
      [&named_hits](const Tuple&) { named_hits.fetch_add(1); });
  run.wild_reg = space.notify(
      wildcard(1), [&wild_hits](const Tuple&) { wild_hits.fetch_add(1); });

  std::atomic<bool> reg_cancelled{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  const std::uint64_t wild_reg = run.wild_reg;
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
  run.final_state = space.snapshot();
  run.stats = space.stats();
  run.named_hits = named_hits.load();
  run.wild_hits = wild_hits.load();
  return run;
}

}  // namespace tb::space::difflog
