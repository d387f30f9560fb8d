#include "src/fed/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "co_gtest.hpp"
#include "heap_probe.hpp"
#include "src/cosim/federation.hpp"
#include "src/mw/loopback.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/process.hpp"
#include "src/space/oplog.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace tb::fed {
namespace {

using namespace tb::sim::literals;

std::string blob_name(int i) { return "blob-" + std::to_string(i % 3); }

space::Tuple blob_job(int i) {
  return space::make_tuple(
      blob_name(i), static_cast<std::int64_t>(i),
      std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(i)));
}

space::Template blob_template(int i) {
  return space::Template(
      blob_name(i), {space::FieldPattern::typed(space::ValueType::kInt),
                     space::FieldPattern::typed(space::ValueType::kBytes)});
}

class FedClusterTest : public ::testing::Test {
 protected:
  template <typename Fn>
  void drive(sim::Simulator& sim, Fn&& body) {
    bool done = false;
    sim::spawn([&]() -> sim::Task<void> {
      co_await body();
      done = true;
    });
    sim.run();
    ASSERT_TRUE(done);
  }

  /// Writes `jobs` blob-carrying tuples over three names through a router,
  /// then takes the first half back by name, so the node logs hold writes
  /// and result-only takes.
  void write_then_take_half(sim::Simulator& sim, SimCluster& cluster,
                            int jobs) {
    auto router = cluster.make_router();
    drive(sim, [&]() -> sim::Task<void> {
      for (int i = 0; i < jobs; ++i) {
        const bool ok =
            co_await router->write(blob_job(i), space::kLeaseForever);
        CO_ASSERT_TRUE(ok);
      }
      for (int i = 0; i < jobs / 2; ++i) {
        std::optional<space::Tuple> got =
            co_await router->take(blob_template(i), sim::Time::zero());
        CO_ASSERT_TRUE(got.has_value());
      }
    });
  }
};

space::Template named_template(std::string name) {
  return space::Template(std::move(name),
                         {space::FieldPattern::typed(space::ValueType::kInt)});
}

space::Template wildcard_template() {
  return space::Template(std::nullopt,
                         {space::FieldPattern::typed(space::ValueType::kInt)});
}

// Acceptance leg 1: every write of a given name lands on exactly one node —
// the one the routing table owns the type_key to — proven from the node
// engines' contents and op counters.
TEST_F(FedClusterTest, NamedOpsRouteToExactlyOneNode) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4});
  auto router = cluster.make_router();

  constexpr int kNames = 8;
  constexpr int kPerName = 5;
  drive(sim, [&]() -> sim::Task<void> {
    for (int n = 0; n < kNames; ++n) {
      for (int i = 0; i < kPerName; ++i) {
        const bool ok = co_await router->write(
            space::make_tuple("job-" + std::to_string(n),
                              static_cast<std::int64_t>(i)),
            space::kLeaseForever);
        CO_ASSERT_TRUE(ok);
      }
    }
  });

  // Each name is stored on exactly one node, and it is the table owner.
  const RoutingTable& table = cluster.routing().current();
  std::map<std::string, std::uint32_t> seen_on;
  std::uint64_t named_ops = 0;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    named_ops += cluster.core(i).stats().named_ops;
    for (const space::Tuple& tuple : cluster.core(i).space().snapshot()) {
      ++stored;
      auto [it, inserted] = seen_on.emplace(tuple.name, cluster.node_id(i));
      EXPECT_TRUE(inserted || it->second == cluster.node_id(i))
          << tuple.name << " spread across nodes";
      EXPECT_EQ(table.owner_of(space::type_key(tuple.name, tuple.arity())),
                cluster.node_id(i));
    }
  }
  EXPECT_EQ(seen_on.size(), static_cast<std::size_t>(kNames));
  EXPECT_EQ(stored, static_cast<std::size_t>(kNames * kPerName));
  EXPECT_EQ(named_ops, static_cast<std::uint64_t>(kNames * kPerName));
  EXPECT_EQ(router->stats().routed_writes,
            static_cast<std::uint64_t>(kNames * kPerName));
}

// Wildcard take drains in global-ticket order: the federation-wide oldest
// first, interleaved across nodes exactly as written.
TEST_F(FedClusterTest, WildcardTakeMergesInTicketOrder) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();

  constexpr int kJobs = 24;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      // Names cycle so consecutive writes land on different nodes.
      const bool ok = co_await router->write(
          space::make_tuple("job-" + std::to_string(i % 6),
                            static_cast<std::int64_t>(i)),
          space::kLeaseForever);
      CO_ASSERT_TRUE(ok);
    }
    for (int i = 0; i < kJobs; ++i) {
      std::optional<space::Tuple> job =
          co_await router->take(wildcard_template(), sim::Time::zero());
      CO_ASSERT_TRUE(job.has_value());
      // Writes were issued one at a time, so ticket order == issue order.
      CO_ASSERT_EQ(job->fields[0].as_int(), i);
    }
    std::optional<space::Tuple> empty =
        co_await router->take(wildcard_template(), sim::Time::zero());
    CO_ASSERT_FALSE(empty.has_value());
  });
  EXPECT_GT(router->stats().wildcard_matches, 0u);
  EXPECT_EQ(router->stats().directed_takes, static_cast<std::uint64_t>(kJobs));
}

// Wildcard read peeks without consuming and sees the same winner.
TEST_F(FedClusterTest, WildcardReadIsNonDestructive) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await router->write(space::make_tuple("job-" + std::to_string(i),
                                               static_cast<std::int64_t>(i)),
                             space::kLeaseForever);
    }
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::optional<space::Tuple> oldest =
          co_await router->read(wildcard_template(), sim::Time::zero());
      CO_ASSERT_TRUE(oldest.has_value());
      CO_ASSERT_EQ(oldest->fields[0].as_int(), 0);
    }
  });
}

// A router holding a stale table gets a typed kFailedPrecondition from the
// no-longer-owner, refreshes, and completes against the new owner — no
// blind retransmit, no dropped op.
TEST_F(FedClusterTest, StaleRouterRefreshesOnMisroute) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4});
  auto router = cluster.make_router();

  // Find a name owned by node 4 so dropping node 4 from the table moves it.
  const RoutingTable& initial = cluster.routing().current();
  std::string moving_name;
  for (int n = 0; moving_name.empty(); ++n) {
    std::string candidate = "mis-" + std::to_string(n);
    if (initial.owner_of(space::type_key(candidate, 1)) == 4) {
      moving_name = std::move(candidate);
    }
  }

  const std::vector<std::uint32_t> shrunk{1, 2, 3};
  drive(sim, [&]() -> sim::Task<void> {
    // Warm the router's table at epoch 1.
    const bool warm = co_await router->write(
        space::make_tuple(moving_name, std::int64_t{0}), space::kLeaseForever);
    CO_ASSERT_TRUE(warm);
    CO_ASSERT_EQ(router->table_epoch(), 1u);

    // Authority shrinks the ring: node 4 no longer owns anything.
    cluster.routing().publish(table_from_members(2, shrunk, 64));
    cluster.refresh_ownership();

    // The router still routes to node 4, which rejects with its new epoch;
    // the router refreshes and lands the write on the new owner.
    const util::Status moved = co_await router->write_status(
        space::make_tuple(moving_name, std::int64_t{1}), space::kLeaseForever);
    CO_ASSERT_TRUE(moved.ok());
    CO_ASSERT_EQ(router->table_epoch(), 2u);

    // The tuple is takeable through the fresh route.
    std::optional<space::Tuple> taken = co_await router->take(
        named_template(moving_name), sim::Time::zero());
    CO_ASSERT_TRUE(taken.has_value());
  });

  EXPECT_GE(router->stats().misroute_refreshes, 1u);
  const mw::NodeCore::Stats& old_owner = cluster.core(3).stats();
  EXPECT_GE(old_owner.misroute_rejects, 1u);
}

// Satellite: an unknown frame kind gets a typed kUnimplemented reply with
// the request id preserved — the session survives.
TEST_F(FedClusterTest, UnknownFrameAnsweredUnimplemented) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1});
  mw::SpaceClient& channel = cluster.channel(cluster.node_id(0));

  drive(sim, [&]() -> sim::Task<void> {
    mw::Message future_frame;
    future_frame.type = mw::MsgType::kUnknownFrame;  // encodes past our max
    std::optional<mw::Message> reply =
        co_await channel.rpc_async(std::move(future_frame));
    CO_ASSERT_TRUE(reply.has_value());
    CO_ASSERT_EQ(reply->type, mw::MsgType::kError);
    CO_ASSERT_EQ(static_cast<util::StatusCode>(reply->status),
                 util::StatusCode::kUnimplemented);

    // Same session still serves normal traffic afterwards.
    const auto wrote = co_await channel.write_async(
        space::make_tuple("alive", std::int64_t{1}), space::kLeaseForever);
    CO_ASSERT_TRUE(wrote.ok);
  });
  EXPECT_EQ(cluster.core(0).stats().unknown_frames, 1u);
}

// Acceptance leg 2: the 4-node run drains in exactly the order the 1-node
// run drains — the scatter/merge is equivalent to one big space.
TEST_F(FedClusterTest, FourNodeDrainMatchesSingleNodeOrder) {
  cosim::FederationConfig config;
  config.producers = 1;
  config.consumers = 1;
  config.jobs = 60;
  config.job_names = 7;

  config.nodes = 1;
  cosim::FederationReport single = cosim::run_federation_scenario(config);
  config.nodes = 4;
  cosim::FederationReport four = cosim::run_federation_scenario(config);

  ASSERT_TRUE(single.drained);
  ASSERT_TRUE(four.drained);
  EXPECT_EQ(single.consumed, static_cast<std::uint64_t>(config.jobs));
  EXPECT_EQ(four.consumed, static_cast<std::uint64_t>(config.jobs));
  EXPECT_EQ(single.drain_order, four.drain_order);
  EXPECT_TRUE(single.oracle.equivalent) << single.oracle.divergence;
  EXPECT_TRUE(four.oracle.equivalent) << four.oracle.divergence;
  // Spread proof: more than one node did named work.
  int serving = 0;
  for (std::uint64_t ops : four.named_ops_per_node) serving += ops > 0;
  EXPECT_GT(serving, 1);
}

// Acceptance leg 3: kill the primary mid-run; the StandbyGuard promotes the
// replication standby and the merged per-node OpLogs replay through the
// deterministic oracle with zero acked writes lost.
TEST_F(FedClusterTest, KillPrimaryLosesNoAckedWrite) {
  cosim::FederationConfig config;
  config.nodes = 4;
  config.producers = 2;
  config.consumers = 2;
  config.jobs = 150;
  config.job_names = 8;
  config.produce_gap = sim::Time::ms(2);
  config.kill_at = sim::Time::ms(120);

  cosim::FederationReport report = cosim::run_federation_scenario(config);

  ASSERT_TRUE(report.promoted);
  EXPECT_GT(report.promoted_at, config.kill_at);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.residual_tuples, 0u);
  // Every acked job was taken. The consumer-side count may trail by at most
  // one swallowed take ack per consumer (applied + replicated by the dying
  // primary, ack lost in the crash) — those jobs are gone legitimately and
  // the oracle below balances them.
  EXPECT_GE(report.consumed + static_cast<std::uint64_t>(config.consumers),
            report.acked_writes);
  EXPECT_TRUE(report.oracle.equivalent) << report.oracle.divergence;
  EXPECT_GT(report.oracle.ops_replayed, 0u);
  EXPECT_GT(report.heartbeats_consumed, 0u);
}

// Quiescent promotion: everything the primary acked is takeable from the
// promoted standby, in order.
TEST_F(FedClusterTest, PromotionPreservesPrimaryState) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 2, .with_standby = true});
  auto router = cluster.make_router();

  // A name owned by the primary (node 1).
  const RoutingTable& table = cluster.routing().current();
  std::string primary_name;
  for (int n = 0; primary_name.empty(); ++n) {
    std::string candidate = "p-" + std::to_string(n);
    if (table.owner_of(space::type_key(candidate, 1)) == cluster.primary_id()) {
      primary_name = std::move(candidate);
    }
  }

  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      const bool ok = co_await router->write(
          space::make_tuple(primary_name, static_cast<std::int64_t>(i)),
          space::kLeaseForever);
      CO_ASSERT_TRUE(ok);
    }
    // The standby applied the stream as it came: promotion re-routes only.
    CO_ASSERT_EQ(cluster.standby_core().space().size(), 10u);
    CO_ASSERT_EQ(cluster.kill_primary(), 0u);
    for (int i = 0; i < 10; ++i) {
      std::optional<space::Tuple> got = co_await router->take(
          named_template(primary_name), sim::Time::zero());
      CO_ASSERT_TRUE(got.has_value());
      CO_ASSERT_EQ(got->fields[0].as_int(), i);
    }
  });

  EXPECT_GT(cluster.core(0).stats().replication_forwards, 0u);
  EXPECT_GE(router->stats().misroute_refreshes, 1u);

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const space::ReplayReport verdict = space::replay_against_oracle(
      merged, space::SpaceConfig{}, cluster.merged_final_state());
  EXPECT_TRUE(verdict.equivalent) << verdict.divergence;
}

// The cluster checks every record as it is logged and holds none of them:
// merge_oplogs hands over the checker, whose prefix covers every write and
// every take, and the end-of-run replay finishes it.
TEST_F(FedClusterTest, MergeOplogsMovesEveryRecord) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3, .with_standby = true});
  write_then_take_half(sim, cluster, 24);
  constexpr std::size_t kLogged = 24 + 12;  // every write and every take

  EXPECT_TRUE(cluster.oracle_report().equivalent)
      << cluster.oracle_report().divergence;
  EXPECT_EQ(cluster.oracle_report().ops_replayed, kLogged);
  EXPECT_EQ(*cluster.ticket_counter(), kLogged);

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  EXPECT_EQ(merged.size(), 0u);
  ASSERT_NE(merged.checked_prefix(), nullptr);
  EXPECT_EQ(merged.checked_prefix()->checker().checked(), kLogged);
  EXPECT_EQ(merged.checked_prefix()->oracle().size(), 12u);

  const space::ReplayReport verdict = space::replay_against_oracle(
      merged, space::SpaceConfig{}, cluster.merged_final_state());
  EXPECT_TRUE(verdict.equivalent) << verdict.divergence;
  EXPECT_EQ(verdict.ops_replayed, kLogged);
  EXPECT_EQ(verdict.oracle_stats.writes, 24u);
  EXPECT_EQ(verdict.oracle_stats.takes, 12u);
}

/// The index of the ring node that owns `name` at arity 2.
std::size_t owner_index(SimCluster& cluster, const std::string& name) {
  const std::uint32_t owner =
      cluster.routing().current().owner_of(space::type_key(name, 2));
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    if (cluster.node_id(i) == owner) return i;
  }
  ADD_FAILURE() << "no owner for " << name;
  return 0;
}

space::Template blob_with_id(int i, std::int64_t id) {
  return space::Template(
      blob_name(i), {space::FieldPattern::exact(space::Value(id)),
                     space::FieldPattern::typed(space::ValueType::kBytes)});
}

// A take record holds only its result, and the checker still checks it: a
// job corrupted where it is stored, behind the log's back, diverges on
// exactly the ticket and kind of the take that returns it, as soon as that
// take is logged.
TEST_F(FedClusterTest, CorruptTakeResultDivergesOnItsTicket) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();
  constexpr int kJobs = 24;
  std::uint64_t take_ticket = 0;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(co_await router->write(blob_job(i), space::kLeaseForever));
    }
    space::SpaceEngine& owner =
        cluster.core(owner_index(cluster, blob_name(0))).space();
    const auto found = owner.peek_oldest(blob_template(0));
    CO_ASSERT_TRUE(found.has_value());
    std::optional<space::Tuple> job = owner.take_by_id(found->first);
    CO_ASSERT_TRUE(job.has_value());
    job->fields[0] = space::Value(std::int64_t{-1});
    owner.write(std::move(*job), space::kLeaseForever);
    CO_ASSERT_TRUE(cluster.oracle_report().equivalent);

    std::optional<space::Tuple> got =
        co_await router->take(blob_with_id(0, -1), sim::Time::zero());
    CO_ASSERT_TRUE(got.has_value());
    take_ticket = *cluster.ticket_counter();
  });
  const std::string expected = "op[" + std::to_string(take_ticket - 1) +
                               "] ticket " + std::to_string(take_ticket) +
                               " (take_exact): oracle <none> != recorded ";
  const std::string online = cluster.oracle_report().divergence;
  EXPECT_FALSE(cluster.oracle_report().equivalent);
  EXPECT_EQ(online.rfind(expected, 0), 0u) << online;

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const space::ReplayReport verdict = space::replay_against_oracle(
      merged, space::SpaceConfig{}, cluster.merged_final_state());
  EXPECT_FALSE(verdict.equivalent);
  EXPECT_EQ(verdict.divergence, online);
  EXPECT_EQ(verdict.ops_replayed, static_cast<std::size_t>(kJobs + 1));
}

// Seed-pinned: a tuple planted straight into one node's engine mid-run,
// with no record, is flagged by the online checker at the ticket of the
// take that consumes it, before the run ends; the run goes on, and the
// end-of-run replay reports the same divergence.
TEST_F(FedClusterTest, PlantedTupleDivergesAtTheTakeThatConsumesIt) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4, .with_standby = true});
  auto router = cluster.make_router();
  constexpr int kJobs = 30;
  std::uint64_t consumed_at = 0;
  std::string flagged;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(co_await router->write(blob_job(i), space::kLeaseForever));
    }
    cluster.core(owner_index(cluster, blob_name(1)))
        .space()
        .write(space::make_tuple(blob_name(1), std::int64_t{999},
                                 std::vector<std::uint8_t>(16, 9)),
               space::kLeaseForever);
    // Drain blob-1: its ten logged jobs first, then the planted one.
    for (int i = 0;; ++i) {
      std::optional<space::Tuple> got =
          co_await router->take(blob_template(1), sim::Time::zero());
      CO_ASSERT_TRUE(got.has_value());
      if (got->fields[0].as_int() == 999) {
        CO_ASSERT_EQ(i, kJobs / 3);
        break;
      }
      CO_ASSERT_TRUE(cluster.oracle_report().equivalent);
    }
    consumed_at = *cluster.ticket_counter();
    flagged = cluster.oracle_report().divergence;
    // The run goes on: drain the rest.
    for (int name : {0, 2}) {
      while ((co_await router->take(blob_template(name), sim::Time::zero()))
                 .has_value()) {
      }
    }
  });
  ASSERT_GT(consumed_at, 0u);
  EXPECT_GT(*cluster.ticket_counter(), consumed_at);
  const std::string expected = "op[" + std::to_string(consumed_at - 1) +
                               "] ticket " + std::to_string(consumed_at) +
                               " (take_exact): oracle <none> != recorded ";
  EXPECT_EQ(flagged.rfind(expected, 0), 0u) << flagged;

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const std::vector<space::Tuple> final_state = cluster.merged_final_state();
  EXPECT_TRUE(final_state.empty());
  const space::ReplayReport verdict =
      space::replay_against_oracle(merged, space::SpaceConfig{}, final_state);
  EXPECT_FALSE(verdict.equivalent);
  EXPECT_EQ(verdict.divergence, flagged);
  EXPECT_EQ(verdict.ops_replayed, *cluster.ticket_counter());
}

// The watermark is the ticket just drawn, so a ticket drawn with no record
// (here drawn behind the nodes' backs) is a divergence on the next record.
TEST_F(FedClusterTest, TicketDrawnWithNoRecordDivergesOnTheNext) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 2});
  auto router = cluster.make_router();
  drive(sim, [&]() -> sim::Task<void> {
    CO_ASSERT_TRUE(co_await router->write(blob_job(0), space::kLeaseForever));
    ++*cluster.ticket_counter();
    CO_ASSERT_TRUE(cluster.oracle_report().equivalent);
    CO_ASSERT_TRUE(co_await router->write(blob_job(1), space::kLeaseForever));
  });
  EXPECT_EQ(cluster.oracle_report().divergence,
            "op[1] ticket 3 (write): tickets 2..2 were drawn with no record");
}

// The online checker's gauges: every record is checked in the event that
// logs it, so between events the checked count is every record logged,
// and the oracle holds exactly the federation's live entries.
TEST_F(FedClusterTest, OracleGaugesCountEveryRecordBetweenEvents) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3, .with_standby = true});
  auto router = cluster.make_router();
  obs::Registry registry;
  cluster.bind_metrics(registry);
  auto gauge = [&registry](const char* name) {
    const obs::Snapshot snap = registry.snapshot();
    const obs::Snapshot::GaugeSample* sample =
        snap.find_gauge(std::string("fed.oracle.") + name);
    return sample == nullptr ? -1.0 : sample->value;
  };
  auto expect_gauges = [&](double checked, double live) {
    EXPECT_EQ(gauge("checked_records"), checked);
    EXPECT_EQ(gauge("live_entries"), live);
  };
  expect_gauges(0, 0);

  constexpr int kJobs = 18;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(co_await router->write(blob_job(i), space::kLeaseForever));
      expect_gauges(i + 1, i + 1);
    }
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(
          (co_await router->take(blob_template(i), sim::Time::zero()))
              .has_value());
      expect_gauges(kJobs + i + 1, kJobs - i - 1);
    }
  });
  expect_gauges(2 * kJobs, 0);
}

// The evidence does not grow with the run. One cluster, shaped like a
// fed_replicated round (4 nodes, 4 producer/consumer router pairs, 16-256 B
// blobs over 256 names), runs ten times the ops of its first span; at the
// end of each span every job is taken, and the heap the run holds then
// (the checker's oracle and side tables, the nodes' maps and sessions)
// stays within 5% of what it held after the first span.
#if defined(TB_TEST_HAS_MALLINFO2)
void expect_flat_heap_over_ten_spans(bool with_standby) {
  constexpr int kPairs = 4;
  constexpr int kJobsPerRound = 100;  // per pair
  constexpr int kRoundsPerSpan = 70;  // 56k records, a fed_replicated round
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4, .with_standby = with_standby});
  std::vector<std::unique_ptr<FederatedClient>> routers;
  for (int p = 0; p < kPairs; ++p) routers.push_back(cluster.make_router());

  std::int64_t seq = 0;
  auto pair_round = [&](FederatedClient& router,
                        std::int64_t first) -> sim::Task<void> {
    for (std::int64_t i = first; i < first + kJobsPerRound; ++i) {
      const std::string name = "job-" + std::to_string(i * 7 % 256);
      std::vector<std::uint8_t> blob(
          16 + static_cast<std::size_t>(i * 97 % 241),
          static_cast<std::uint8_t>(i));
      CO_ASSERT_TRUE(co_await router.write(
          space::make_tuple(name, i, std::move(blob)), space::kLeaseForever));
    }
    for (std::int64_t i = first; i < first + kJobsPerRound; ++i) {
      const space::Template job(
          "job-" + std::to_string(i * 7 % 256),
          {space::FieldPattern::exact(space::Value(i)),
           space::FieldPattern::typed(space::ValueType::kBytes)});
      CO_ASSERT_TRUE(
          (co_await router.take(job, sim::Time::zero())).has_value());
    }
  };
  auto run_span = [&] {
    for (int round = 0; round < kRoundsPerSpan; ++round) {
      int done = 0;
      for (auto& router : routers) {
        sim::spawn([&, first = seq]() -> sim::Task<void> {
          co_await pair_round(*router, first);
          ++done;
        });
        seq += kJobsPerRound;
      }
      sim.run();
      ASSERT_EQ(done, kPairs);
    }
    // Every job of the span was taken, and the standby applied every
    // frame: it holds nothing, live or held back.
    if (with_standby) {
      ASSERT_EQ(cluster.standby_core().standby_buffer_size(), 0u);
      ASSERT_EQ(cluster.standby_core().space().size(), 0u);
    }
  };

  const std::size_t before = mallinfo2().uordblks;
  run_span();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const std::size_t one_span = mallinfo2().uordblks - before;
  for (int span = 1; span < 10; ++span) {
    run_span();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  const std::size_t ten_spans = mallinfo2().uordblks - before;

  const std::uint64_t records = 2ull * kPairs * kJobsPerRound * kRoundsPerSpan;
  EXPECT_TRUE(cluster.oracle_report().equivalent)
      << cluster.oracle_report().divergence;
  EXPECT_EQ(cluster.oracle_report().ops_replayed, 10 * records);
  EXPECT_EQ(cluster.merged_final_state().size(), 0u);
  ::testing::Test::RecordProperty("heap_bytes_one_span",
                                  std::to_string(one_span));
  ::testing::Test::RecordProperty("heap_bytes_ten_spans",
                                  std::to_string(ten_spans));
  EXPECT_LE(static_cast<double>(ten_spans),
            1.05 * static_cast<double>(one_span))
      << "one span " << one_span << " B, ten spans " << ten_spans << " B";
  if (with_standby) {
    cluster.kill_primary();
    EXPECT_TRUE(cluster.oracle_report().equivalent)
        << cluster.oracle_report().divergence;
    EXPECT_EQ(cluster.standby_core().space().size(), 0u);
    EXPECT_EQ(cluster.merged_final_state().size(), 0u);
  }
}
#endif

TEST_F(FedClusterTest, EvidenceHeapStaysFlatOverTenTimesTheOps) {
#if !defined(TB_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and its own allocator";
#else
  expect_flat_heap_over_ten_spans(/*with_standby=*/false);
#endif
}

// The same run with a replication standby behind the primary: the standby
// applies the stream as it arrives, so it holds the primary's live state,
// not the stream. Holding the stream, it grew by about 300 B per record.
TEST_F(FedClusterTest, StandbyHeapStaysFlatOverTenTimesTheOps) {
#if !defined(TB_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and its own allocator";
#else
  expect_flat_heap_over_ten_spans(/*with_standby=*/true);
#endif
}

// Seed-pinned regression: the engine-id <-> ticket maps hold live entries
// only. Entries leaving by a named take, a lease expiry, a cancel or a
// parked take consuming the write used to leave their mappings behind.
TEST_F(FedClusterTest, TicketMappingsDropOnEveryRemovalPath) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1});
  auto router = cluster.make_router();
  mw::SpaceClient& direct = cluster.channel(cluster.node_id(0));
  obs::Registry registry;
  cluster.core(0).bind_metrics(registry, "mw.node");
  auto gauge = [&registry](const char* name) {
    const obs::Snapshot snap = registry.snapshot();
    const obs::Snapshot::GaugeSample* sample =
        snap.find_gauge(std::string("mw.node.") + name);
    return sample == nullptr ? -1.0 : sample->value;
  };

  constexpr int kJobs = 40;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(co_await router->write(blob_job(i), space::kLeaseForever));
    }
    CO_ASSERT_EQ(gauge("ticket_mappings"), kJobs);
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(
          (co_await router->take(blob_template(i), sim::Time::zero()))
              .has_value());
    }
    CO_ASSERT_EQ(gauge("ticket_mappings"), 0.0);

    // Lease expiry.
    CO_ASSERT_TRUE(co_await router->write(blob_job(0), 5_ms));
    co_await sim::delay(sim, 50_ms);
    CO_ASSERT_EQ(gauge("ticket_mappings"), 0.0);

    // Cancel.
    const mw::SpaceClient::WriteResult wrote =
        co_await direct.write(blob_job(1), space::kLeaseForever);
    CO_ASSERT_TRUE(wrote.ok);
    CO_ASSERT_EQ(gauge("ticket_mappings"), 1.0);
    CO_ASSERT_TRUE(co_await direct.cancel(wrote.lease.id));
    CO_ASSERT_EQ(gauge("ticket_mappings"), 0.0);

    // A parked take consumes the write before it is stored.
    bool served = false;
    sim::spawn([&]() -> sim::Task<void> {
      served = (co_await router->take(blob_template(2), 1_s)).has_value();
    });
    co_await sim::delay(sim, 20_ms);
    CO_ASSERT_TRUE(co_await router->write(blob_job(2), space::kLeaseForever));
    co_await sim::delay(sim, 20_ms);
    CO_ASSERT_TRUE(served);
    CO_ASSERT_EQ(gauge("ticket_mappings"), 0.0);
  });
  EXPECT_EQ(cluster.core(0).space().size(), 0u);
  // Every write and every take is still on the record (the node logs
  // writes and takes only, so expiries and cancels leave no record).
  EXPECT_EQ(gauge("oplog_records"), 2.0 * kJobs + 3 + 1);
  EXPECT_EQ(gauge("standby_buffered"), 0.0);
}

// The standby applies the stream as it arrives: after ten writes and five
// takes its engine holds the five live jobs, nothing is held behind a gap,
// and the promotion has nothing left to apply.
TEST_F(FedClusterTest, StandbyBufferedGaugeTracksTheStream) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1, .with_standby = true});
  obs::Registry registry;
  cluster.standby_core().bind_metrics(registry, "mw.standby");
  write_then_take_half(sim, cluster, 10);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_gauge("mw.standby.standby_buffered"), nullptr);
  EXPECT_EQ(snap.find_gauge("mw.standby.standby_buffered")->value, 0.0);
  EXPECT_EQ(cluster.standby_core().stats().replicated_buffered, 15u);
  EXPECT_EQ(cluster.standby_core().standby_buffer_size(), 0u);
  EXPECT_EQ(cluster.standby_core().space().size(), 5u);
  EXPECT_EQ(cluster.kill_primary(), 0u);
  EXPECT_EQ(
      registry.snapshot().find_gauge("mw.standby.standby_buffered")->value,
      0.0);
}

// Seed-pinned regression: a finite lease does not outlive failover. The
// primary expires a 50 ms job long before the 100 ms kill; the standby
// armed the same lease when the write's frame arrived, so the promoted
// node holds nothing. A standby that armed the lease at promotion brought
// the job back for another 50 ms.
TEST_F(FedClusterTest, FiniteLeaseDoesNotOutliveFailover) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1, .with_standby = true});
  auto router = cluster.make_router();
  drive(sim, [&]() -> sim::Task<void> {
    CO_ASSERT_TRUE(co_await router->write(blob_job(0), 50_ms));
    co_await sim::delay(sim, 100_ms);
    CO_ASSERT_EQ(cluster.core(0).space().snapshot().size(), 0u);
    cluster.kill_primary();
    CO_ASSERT_EQ(cluster.standby_core().space().snapshot().size(), 0u);
    CO_ASSERT_FALSE(
        (co_await router->take(blob_template(0), sim::Time::zero()))
            .has_value());
  });
  EXPECT_TRUE(cluster.merged_final_state().empty());
}

// --- The warm standby against the sort-and-replay it replaces -------------
//
// A standby NodeCore driven with hand-built replication frames, as the
// primary's stream channel sends them: request ids 1, 2, 3, ... in ticket
// order.
class StandbyRig {
 public:
  StandbyRig() : link_(hub_.create_client()) {
    core_.set_ticketing(std::make_shared<std::uint64_t>(0),
                        [](space::OpRecord) {});
  }

  void send(mw::Message frame, std::uint64_t request_id,
            mw::LoopbackClient* link = nullptr) {
    frame.request_id = request_id;
    (link == nullptr ? link_ : *link).send(codec_.encode(frame));
  }
  void run() { sim_.run(); }
  mw::NodeCore& core() { return core_; }
  mw::LoopbackHub& hub() { return hub_; }
  const mw::Codec& codec() const { return codec_; }

 private:
  sim::Simulator sim_{1};
  space::SpaceEngine engine_{sim_};
  mw::BinaryCodec codec_;
  mw::LoopbackHub hub_{sim_, 1_ms};
  mw::NodeCore core_{engine_, hub_, codec_};
  mw::LoopbackClient& link_;
};

mw::Message replicate_write(std::uint64_t ticket, space::Tuple tuple) {
  mw::Message frame;
  frame.type = mw::MsgType::kReplicateWriteRequest;
  frame.handle = ticket;
  frame.tuple = std::move(tuple);
  frame.duration_ns = INT64_MAX;
  return frame;
}

mw::Message replicate_take(std::uint64_t ticket, const space::Tuple& taken) {
  mw::Message frame;
  frame.type = mw::MsgType::kReplicateTakeRequest;
  frame.handle = ticket;
  frame.tmpl = space::Template::exact_of(taken);
  return frame;
}

/// A random stream over two names and four values, so equal-valued tuples
/// repeat, with tickets rising by 1-3 (other nodes draw the rest). About
/// half the records are takes; a take names a value whether or not one is
/// live, so some come before the write they would remove.
std::vector<mw::Message> random_stream(std::uint64_t seed, int records) {
  util::Xoshiro256 rng(seed);
  std::vector<mw::Message> stream;
  std::uint64_t ticket = 0;
  for (int i = 0; i < records; ++i) {
    ticket += rng.uniform(1, 3);
    const char* name = rng.bernoulli(0.5) ? "a" : "b";
    const auto value = static_cast<std::int64_t>(rng.uniform(0, 3));
    space::Tuple tuple = space::make_tuple(name, value);
    stream.push_back(rng.bernoulli(0.55)
                         ? replicate_write(ticket, std::move(tuple))
                         : replicate_take(ticket, tuple));
  }
  return stream;
}

/// What the buffering standby's promotion left: sort the whole stream by
/// ticket, then write each write and remove each take's oldest match
/// (peek_oldest + take_by_id) from an engine that already holds
/// `preexisting`.
std::vector<std::pair<std::uint64_t, space::Tuple>> reference_promotion(
    std::vector<mw::Message> stream,
    const std::vector<space::Tuple>& preexisting = {}) {
  sim::Simulator sim{1};
  space::SpaceEngine engine(sim);
  for (const space::Tuple& tuple : preexisting) {
    engine.write(tuple, space::kLeaseForever);
  }
  std::sort(stream.begin(), stream.end(),
            [](const mw::Message& a, const mw::Message& b) {
              return a.handle < b.handle;
            });
  std::map<std::uint64_t, std::uint64_t> ticket_of_id;
  for (mw::Message& frame : stream) {
    if (frame.type == mw::MsgType::kReplicateWriteRequest) {
      const space::Lease lease =
          engine.write(std::move(*frame.tuple), space::kLeaseForever);
      ticket_of_id[lease.id] = frame.handle;
    } else if (auto found = engine.peek_oldest(*frame.tmpl)) {
      engine.take_by_id(found->first);
    }
  }
  std::vector<std::pair<std::uint64_t, space::Tuple>> state;
  for (auto& [id, tuple] : engine.snapshot_with_ids()) {
    if (const auto it = ticket_of_id.find(id); it != ticket_of_id.end()) {
      state.emplace_back(it->second, std::move(tuple));
    }
  }
  std::sort(state.begin(), state.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return state;
}

constexpr int kStreamRecords = 240;
constexpr std::uint64_t kStreamSeeds = 16;

// In order, each frame is applied as it arrives: the standby's engine
// holds the replay's state before any promotion, which applies nothing.
TEST(WarmStandby, InOrderStreamIsLiveBeforePromotion) {
  for (std::uint64_t seed = 1; seed <= kStreamSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<mw::Message> stream = random_stream(seed, kStreamRecords);
    const auto expected = reference_promotion(stream);
    StandbyRig rig;
    for (std::size_t i = 0; i < stream.size(); ++i) rig.send(stream[i], i + 1);
    rig.run();
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
    EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
    EXPECT_EQ(rig.core().stats().replicated_buffered, stream.size());
    EXPECT_EQ(rig.core().promote(), 0u);
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
  }
}

// One frame delivered late: the five frames past it wait until it arrives,
// and then all six apply in order.
TEST(WarmStandby, LateFrameHoldsTheFramesPastIt) {
  for (std::uint64_t seed = 1; seed <= kStreamSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<mw::Message> stream = random_stream(seed, kStreamRecords);
    const auto expected = reference_promotion(stream);
    StandbyRig rig;
    const std::size_t late = 60 + seed;
    for (std::size_t i = 0; i <= late + 5; ++i) {
      if (i != late) rig.send(stream[i], i + 1);
    }
    rig.run();
    EXPECT_EQ(rig.core().standby_buffer_size(), 5u);
    EXPECT_EQ(rig.core().ticketed_snapshot(),
              reference_promotion({stream.begin(), stream.begin() + late}));
    rig.send(stream[late], late + 1);
    for (std::size_t i = late + 6; i < stream.size(); ++i) {
      rig.send(stream[i], i + 1);
    }
    rig.run();
    EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
    EXPECT_EQ(rig.core().promote(), 0u);
  }
}

// A request id never sent (a shed or timed-out frame) is a gap that never
// closes: everything past it is held, and the promotion applies it.
TEST(WarmStandby, SkippedRequestIdIsAppliedAtPromotion) {
  for (std::uint64_t seed = 1; seed <= kStreamSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<mw::Message> stream = random_stream(seed, kStreamRecords);
    const auto expected = reference_promotion(stream);
    StandbyRig rig;
    const std::size_t skip_after = 60 + seed;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rig.send(stream[i], i < skip_after ? i + 1 : i + 2);
    }
    rig.run();
    const std::size_t held = stream.size() - skip_after;
    EXPECT_EQ(rig.core().standby_buffer_size(), held);
    EXPECT_EQ(
        rig.core().ticketed_snapshot(),
        reference_promotion({stream.begin(), stream.begin() + skip_after}));
    EXPECT_EQ(rig.core().promote(), held);
    EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
  }
}

// Frames shuffled within windows of 8, and about one in ten sent again
// after 72 more frames, when the 64-entry response cache no longer holds
// its reply: the standby applies each frame once, in request-id order.
TEST(WarmStandby, ShuffledStreamWithLateRetransmitsAppliesEachFrameOnce) {
  constexpr std::size_t kWindow = 8;
  constexpr std::size_t kResendAfter = 72;
  for (std::uint64_t seed = 1; seed <= kStreamSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<mw::Message> stream = random_stream(seed, kStreamRecords);
    const auto expected = reference_promotion(stream);
    util::Xoshiro256 rng(seed + 1000);
    std::vector<std::size_t> order(stream.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t w = 0; w < order.size(); w += kWindow) {
      for (std::size_t j = std::min(w + kWindow, order.size()) - 1; j > w;
           --j) {
        std::swap(order[j], order[w + rng.uniform(0, j - w)]);
      }
    }
    std::vector<std::size_t> sends;
    std::size_t resent = 0;
    for (std::size_t p = 0; p < order.size(); ++p) {
      sends.push_back(order[p]);
      if (p >= kResendAfter && rng.bernoulli(0.1)) {
        sends.push_back(order[p - kResendAfter]);
        ++resent;
      }
    }
    StandbyRig rig;
    for (const std::size_t i : sends) rig.send(stream[i], i + 1);
    rig.run();
    EXPECT_GT(resent, 0u);
    EXPECT_EQ(rig.core().stats().duplicates_replayed, 0u);
    EXPECT_EQ(rig.core().stats().replicated_buffered, stream.size());
    EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
    EXPECT_EQ(rig.core().promote(), 0u);
  }
}

// An entry the standby's engine already holds is older than the whole
// stream, so an applied take finds it first, as the replay's would.
TEST(WarmStandby, PreexistingEntryIsTakenFirst) {
  const std::vector<space::Tuple> preexisting = {
      space::make_tuple("a", std::int64_t{0}),
      space::make_tuple("b", std::int64_t{2})};
  for (std::uint64_t seed = 1; seed <= kStreamSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<mw::Message> stream = random_stream(seed, kStreamRecords);
    const auto expected = reference_promotion(stream, preexisting);
    StandbyRig rig;
    for (const space::Tuple& tuple : preexisting) {
      rig.core().space().write(tuple, space::kLeaseForever);
    }
    for (std::size_t i = 0; i < stream.size(); ++i) rig.send(stream[i], i + 1);
    rig.run();
    EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
    EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
    EXPECT_EQ(rig.core().promote(), 0u);
  }
}

// A write frame without a positive lease is refused: the engine takes no
// such write.
TEST(WarmStandby, WriteWithoutLeaseIsRefused) {
  StandbyRig rig;
  mw::Message frame = replicate_write(1, space::make_tuple("x", 1));
  frame.duration_ns = 0;
  rig.send(frame, 1);
  rig.run();
  EXPECT_EQ(rig.core().stats().replicated_buffered, 0u);
  EXPECT_EQ(rig.core().standby_buffer_size(), 0u);
  EXPECT_EQ(rig.core().space().size(), 0u);
  EXPECT_EQ(rig.core().promote(), 0u);
}

// Seed-pinned regression: a replication frame from a second session is
// refused and changes nothing. Only the primary's stream is in ticket
// order; a buffering standby kept the stray write and promoted it.
TEST(WarmStandby, StraySessionChangesNothing) {
  const std::vector<mw::Message> stream = random_stream(1, kStreamRecords);
  const auto expected = reference_promotion(stream);
  StandbyRig rig;
  mw::LoopbackClient& stray = rig.hub().create_client();
  std::vector<mw::Message> replies;
  stray.on_message().connect([&](std::span<const std::uint8_t> bytes) {
    std::optional<mw::Message> reply = rig.codec().decode(bytes);
    ASSERT_TRUE(reply.has_value());
    replies.push_back(std::move(*reply));
  });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rig.send(stream[i], i + 1);
    if (i == 100) {
      rig.send(replicate_write(stream[i].handle + 1,
                               space::make_tuple("a", std::int64_t{1})),
               1, &stray);
    }
  }
  rig.run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(static_cast<util::StatusCode>(replies[0].status),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.core().stats().replicated_buffered, stream.size());
  rig.core().promote();
  EXPECT_EQ(rig.core().ticketed_snapshot(), expected);
}

// Seed-pinned regression: a retransmit that arrives after the standby's
// 64-entry response cache evicted its reply is a duplicate, and the
// standby once stored it a second time, so promotion wrote the tuple
// twice. Here writes 1 and 2 are resent after 64 more frames, after take 3
// removed write 2: the standby holds one "x" and no "y".
TEST(WarmStandby, RetransmitPastTheResponseCacheIsNotAppliedTwice) {
  const space::Tuple x = space::make_tuple("x", std::int64_t{1});
  const space::Tuple y = space::make_tuple("y", std::int64_t{2});
  StandbyRig rig;
  rig.send(replicate_write(1, x), 1);
  rig.send(replicate_write(2, y), 2);
  rig.send(replicate_take(3, y), 3);
  for (std::uint64_t id = 4; id <= 66; ++id) {
    const auto z = static_cast<std::int64_t>(id);
    rig.send(replicate_write(id, space::make_tuple("z", z)), id);
  }
  rig.run();
  rig.send(replicate_write(1, x), 1);
  rig.send(replicate_write(2, y), 2);
  rig.run();
  EXPECT_EQ(rig.core().stats().duplicates_replayed, 0u);
  EXPECT_EQ(rig.core().promote(), 0u);
  const std::vector<space::Tuple> state = rig.core().space().snapshot();
  EXPECT_EQ(std::count(state.begin(), state.end(), x), 1);
  EXPECT_EQ(std::count(state.begin(), state.end(), y), 0);
  EXPECT_EQ(state.size(), 1u + 63u);
}

// Router metrics: every Stats field is exported under its own name.
TEST_F(FedClusterTest, RouterMetricsMirrorStats) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();
  auto rival = cluster.make_router();
  obs::Registry registry;
  router->bind_metrics(registry, "fed.r");
  int won = 0;
  auto take_one = [](FederatedClient& taker, int& wins) -> sim::Task<void> {
    std::optional<space::Tuple> got =
        co_await taker.take(wildcard_template(), sim::Time::zero());
    wins += got.has_value();
  };
  const space::Template unmatched(
      std::nullopt, {space::FieldPattern::typed(space::ValueType::kString)});

  constexpr int kJobs = 12;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      CO_ASSERT_TRUE(co_await router->write(
          space::make_tuple("job-" + std::to_string(i % 4),
                            static_cast<std::int64_t>(i)),
          space::kLeaseForever));
    }
    CO_ASSERT_TRUE(
        (co_await router->read(named_template("job-0"), sim::Time::zero()))
            .has_value());
    // Two routers race for the same oldest wildcard match.
    for (int r = 0; r < 4; ++r) {
      sim::spawn(take_one(*rival, won));
      std::optional<space::Tuple> got =
          co_await router->take(wildcard_template(), sim::Time::zero());
      won += got.has_value();
    }
    co_await sim::delay(sim, 50_ms);
    // A blocking wildcard with nothing to match polls until its deadline.
    std::optional<space::Tuple> none =
        co_await router->read(unmatched, 20_ms);
    CO_ASSERT_FALSE(none.has_value());
  });
  EXPECT_EQ(won, 8);

  const FederatedClient::Stats& stats = router->stats();
  const obs::Snapshot snap = registry.snapshot();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"fed.r.routed_writes", stats.routed_writes},
      {"fed.r.routed_matches", stats.routed_matches},
      {"fed.r.wildcard_matches", stats.wildcard_matches},
      {"fed.r.peeks_sent", stats.peeks_sent},
      {"fed.r.directed_takes", stats.directed_takes},
      {"fed.r.directed_take_misses", stats.directed_take_misses},
      {"fed.r.misroute_refreshes", stats.misroute_refreshes},
      {"fed.r.table_fetches", stats.table_fetches},
      {"fed.r.polls", stats.polls},
  };
  for (const auto& [name, value] : expected) {
    ASSERT_NE(snap.find_counter(name), nullptr) << name;
    EXPECT_EQ(snap.counter_value(name), value) << name;
  }
  EXPECT_EQ(stats.routed_writes, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.routed_matches, 1u);
  EXPECT_EQ(stats.wildcard_matches, 5u);
  EXPECT_GT(stats.peeks_sent, 0u);
  EXPECT_GT(stats.directed_takes, 0u);
  EXPECT_GT(stats.polls, 0u);
}

}  // namespace
}  // namespace tb::fed
