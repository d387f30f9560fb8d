#include "src/fed/cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "co_gtest.hpp"
#include "naive_space.hpp"
#include "src/cosim/federation.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/process.hpp"
#include "src/space/oplog.hpp"
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
// the one the routing table owns the type_key to — proven from the per-node
// OpLogs and op counters.
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

  // Each name appears in exactly one node's log, and it is the table owner.
  const RoutingTable& table = cluster.routing().current();
  std::map<std::string, std::uint32_t> seen_on;
  std::uint64_t named_ops = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    named_ops += cluster.core(i).stats().named_ops;
    for (const space::OpRecord* record : cluster.core(i).oplog().by_ticket()) {
      if (record->kind != space::OpRecord::Kind::kWrite) continue;
      auto [it, inserted] =
          seen_on.emplace(record->tuple.name, cluster.node_id(i));
      EXPECT_TRUE(inserted || it->second == cluster.node_id(i))
          << record->tuple.name << " spread across nodes";
      EXPECT_EQ(table.owner_of(space::type_key(record->tuple.name,
                                               record->tuple.arity())),
                cluster.node_id(i));
    }
  }
  EXPECT_EQ(seen_on.size(), static_cast<std::size_t>(kNames));
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
    const std::size_t applied = cluster.kill_primary();
    CO_ASSERT_EQ(applied, 10u);
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

// merge_oplogs moves the evidence: the node logs end empty, nothing is lost,
// every record keeps its address, and a logged write's payload buffer is the
// same allocation afterwards.
TEST_F(FedClusterTest, MergeOplogsMovesEveryRecord) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3, .with_standby = true});
  write_then_take_half(sim, cluster, 24);

  std::size_t logged = 0;
  std::uint64_t write_ticket = 0;
  const std::uint8_t* blob = nullptr;
  std::map<std::uint64_t, const space::OpRecord*> address_of;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    logged += cluster.core(i).oplog().size();
    for (const space::OpRecord* record : cluster.core(i).oplog().by_ticket()) {
      address_of[record->ticket] = record;
      if (blob == nullptr && record->kind == space::OpRecord::Kind::kWrite) {
        write_ticket = record->ticket;
        blob = record->tuple.fields[1].as_bytes().data();
      }
    }
  }
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(logged, 24u + 12u);  // every write and every take, once

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_EQ(cluster.core(i).oplog().size(), 0u);
  }
  EXPECT_EQ(cluster.standby_core().oplog().size(), 0u);
  EXPECT_EQ(merged.size(), logged);

  const space::OpRecord* moved = nullptr;
  std::size_t same_address = 0;
  for (const space::OpRecord* record : merged.by_ticket()) {
    if (record->ticket == write_ticket) moved = record;
    same_address += address_of.at(record->ticket) == record;
  }
  EXPECT_EQ(same_address, logged);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->tuple.fields[1].as_bytes().data(), blob);

  const space::ReplayReport verdict = space::replay_against_oracle(
      merged, space::SpaceConfig{}, cluster.merged_final_state());
  EXPECT_TRUE(verdict.equivalent) << verdict.divergence;
  EXPECT_EQ(verdict.ops_replayed, logged);
}

// A take record holds only its result, and the replay still checks it:
// corrupting one record's result makes both oracles diverge on exactly that
// record's ticket and kind.
TEST_F(FedClusterTest, CorruptTakeResultDivergesOnItsTicket) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  write_then_take_half(sim, cluster, 24);
  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const std::vector<space::Tuple> final_state = cluster.merged_final_state();

  space::OpLog corrupt;
  std::size_t bad_index = 0;
  std::uint64_t bad_ticket = 0;
  const std::vector<const space::OpRecord*> records = merged.by_ticket();
  for (std::size_t i = 0; i < records.size(); ++i) {
    space::OpRecord copy = *records[i];
    if (copy.kind == space::OpRecord::Kind::kTakeExact) {
      EXPECT_FALSE(copy.has_match());
      ASSERT_EQ(copy.tuple.arity(), 2u);
      if (bad_ticket == 0) {
        copy.tuple.fields[0] = space::Value(std::int64_t{-1});
        bad_index = i;
        bad_ticket = copy.ticket;
      }
    }
    corrupt.append(std::move(copy));
  }
  ASSERT_NE(bad_ticket, 0u);
  const std::string expected = "op[" + std::to_string(bad_index) +
                               "] ticket " + std::to_string(bad_ticket) +
                               " (take_exact): ";

  const space::ReplayReport clean =
      space::replay_against_oracle(merged, space::SpaceConfig{}, final_state);
  EXPECT_TRUE(clean.equivalent) << clean.divergence;

  const space::ReplayReport engine =
      space::replay_against_oracle(corrupt, space::SpaceConfig{}, final_state);
  sim::Simulator naive_sim;
  space::NaiveSpace naive(naive_sim);
  const space::ReplayReport reference =
      space::replay_log(corrupt, naive_sim, naive, final_state);
  for (const space::ReplayReport* report : {&engine, &reference}) {
    EXPECT_FALSE(report->equivalent);
    EXPECT_EQ(report->divergence.rfind(expected, 0), 0u)
        << report->divergence;
  }
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

// The standby's gauge counts the replication records awaiting promotion.
TEST_F(FedClusterTest, StandbyBufferedGaugeTracksTheStream) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1, .with_standby = true});
  obs::Registry registry;
  cluster.standby_core().bind_metrics(registry, "mw.standby");
  write_then_take_half(sim, cluster, 10);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_gauge("mw.standby.standby_buffered"), nullptr);
  EXPECT_EQ(snap.find_gauge("mw.standby.standby_buffered")->value, 15.0);
  EXPECT_EQ(cluster.standby_core().standby_buffer_size(), 15u);
  EXPECT_EQ(cluster.kill_primary(), 15u);
  EXPECT_EQ(
      registry.snapshot().find_gauge("mw.standby.standby_buffered")->value,
      0.0);
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
