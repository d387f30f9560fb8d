#include "src/cosim/federation.hpp"

#include <memory>
#include <string>
#include <utility>

#include "src/sim/process.hpp"
#include "src/sim/simulator.hpp"
#include "src/svc/space_api.hpp"
#include "src/util/assert.hpp"

namespace tb::cosim {

namespace {

/// Shared mutable run state the scenario coroutines cooperate through.
struct Drill {
  FederationReport report;
  bool expect_promotion = false;
  bool producers_done = false;
  bool primary_crashed = false;
  bool done = false;
  int producers_active = 0;
  int consumers_active = 0;
};

std::string job_name_of(const FederationConfig& config, int producer, int seq) {
  // Round-robin the name space per producer so every node's shard sees
  // traffic regardless of how the ring splits the names.
  const int bucket = (producer + seq) % (config.job_names < 1 ? 1 : config.job_names);
  return "job-" + std::to_string(bucket);
}

space::Template wildcard_job_template() {
  // Built on a default (nameless) Template: a std::nullopt name argument
  // makes GCC 12 at -O1 warn -Wmaybe-uninitialized on the optional's
  // destructor inside the consume coroutine.
  space::Template tmpl;
  tmpl.fields = {space::FieldPattern::typed(space::ValueType::kInt),
                 space::FieldPattern::typed(space::ValueType::kInt)};
  return tmpl;
}

std::uint64_t encode_job(const space::Tuple& job) {
  return static_cast<std::uint64_t>(job.fields[0].as_int()) * 1'000'000ull +
         static_cast<std::uint64_t>(job.fields[1].as_int());
}

sim::Task<void> produce(fed::FederatedClient& router,
                        const FederationConfig& config, int producer_index,
                        int jobs, Drill& drill) {
  for (int seq = 0; seq < jobs; ++seq) {
    space::Tuple job = space::make_tuple(
        job_name_of(config, producer_index, seq),
        static_cast<std::int64_t>(producer_index),
        static_cast<std::int64_t>(seq));
    const util::Status wrote =
        co_await router.write_status(std::move(job), space::kLeaseForever);
    if (wrote.ok()) {
      ++drill.report.acked_writes;
    } else {
      ++drill.report.failed_writes;
    }
    if (config.produce_gap > sim::Time::zero()) {
      co_await sim::delay(router.simulator(), config.produce_gap);
    }
  }
  if (--drill.producers_active == 0) drill.producers_done = true;
}

sim::Task<void> consume(fed::FederatedClient& router,
                        const FederationConfig& config, Drill& drill) {
  (void)config;
  while (true) {
    // `settled` must be sampled before the take: a nullopt only proves the
    // cluster empty if every producer had already been acked (and, in a
    // drill, the standby promoted — tuples on a dark primary are invisible
    // until its slot is replayed back into service) when the take began.
    const bool settled =
        drill.producers_done &&
        (!drill.expect_promotion || drill.report.promoted);
    std::optional<space::Tuple> job =
        co_await router.take(wildcard_job_template(), sim::Time::ms(25));
    if (job.has_value()) {
      ++drill.report.consumed;
      drill.report.drain_order.push_back(encode_job(*job));
      continue;
    }
    if (settled) break;
  }
  if (--drill.consumers_active == 0) {
    drill.report.makespan = router.simulator().now();
    drill.done = true;
  }
}

/// The primary's liveness signal into the control space; stops beating the
/// instant the crash lands (a crashed host does not say goodbye).
sim::Task<void> beat(svc::LocalSpaceApi& control,
                     const FederationConfig& config, std::uint32_t primary,
                     Drill& drill) {
  while (!drill.primary_crashed && !drill.done) {
    co_await control.write(svc::StandbyGuard::heartbeat(primary),
                           config.guard.heartbeat_lease);
    co_await sim::delay(control.simulator(), config.guard.tick);
  }
}

sim::Task<void> crash_at(fed::SimCluster& cluster, sim::Time when,
                         Drill& drill) {
  co_await sim::delay(cluster.simulator(), when);
  drill.primary_crashed = true;
  cluster.crash_primary();
}

}  // namespace

FederationReport run_federation_scenario(const FederationConfig& config) {
  TB_REQUIRE(config.nodes >= 1);
  TB_REQUIRE(config.producers >= 1);
  TB_REQUIRE(config.consumers >= 1);

  sim::Simulator sim;
  fed::ClusterConfig cluster_config = config.cluster;
  cluster_config.nodes = config.nodes;
  const bool drill = config.kill_at > sim::Time::zero();
  cluster_config.with_standby = drill;
  if (drill && cluster_config.client.rpc_timeout == space::kLeaseForever) {
    // Requests in flight to the crashed primary are swallowed, never
    // answered; the run can only make progress past the crash window if
    // the routers' RPCs expire. Must exceed any server-side blocking wait
    // the routers issue (the wildcard peeks are non-blocking, so the op
    // service path bounds this).
    cluster_config.client.rpc_timeout = sim::Time::sec(1);
  }
  fed::SimCluster cluster(sim, cluster_config);

  Drill state;
  state.expect_promotion = drill;
  state.producers_active = config.producers;
  state.consumers_active = config.consumers;

  std::vector<std::unique_ptr<fed::FederatedClient>> routers;
  for (int i = 0; i < config.producers + config.consumers; ++i) {
    routers.push_back(cluster.make_router());
  }

  // Failover drill plumbing: heartbeats and the guard live in a local
  // control space beside the cluster (in a deployment this is any space
  // node the standby can reach; here locality keeps detection timing a
  // pure function of the guard config).
  space::SpaceEngine control_engine(sim);
  svc::LocalSpaceApi control(control_engine);
  std::unique_ptr<svc::StandbyGuard> guard;
  if (drill) {
    guard = std::make_unique<svc::StandbyGuard>(
        control, cluster.primary_id(), config.guard, [&cluster, &state] {
          cluster.promote_standby();
          state.report.promoted = true;
          state.report.promoted_at = cluster.simulator().now();
        });
    guard->start();
    sim::spawn(beat(control, config, cluster.primary_id(), state));
    sim::spawn(crash_at(cluster, config.kill_at, state));
  }

  const int base_jobs = config.jobs / config.producers;
  int extra = config.jobs % config.producers;
  for (int p = 0; p < config.producers; ++p) {
    const int quota = base_jobs + (extra-- > 0 ? 1 : 0);
    sim::spawn(produce(*routers[p], config, p, quota, state));
  }
  for (int c = 0; c < config.consumers; ++c) {
    sim::spawn(consume(*routers[config.producers + c], config, state));
  }

  sim.run_until(config.run_deadline);

  FederationReport report = std::move(state.report);
  if (!state.done) report.makespan = sim.now();
  report.named_ops_per_node.resize(cluster.node_count(), 0);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const mw::NodeCore::Stats& stats = cluster.core(i).stats();
    report.named_ops_per_node[i] = stats.named_ops;
    report.misroute_rejects += stats.misroute_rejects;
    report.wildcard_ops += stats.peeks;
  }
  for (const auto& router : routers) {
    report.misroute_refreshes += router->stats().misroute_refreshes;
  }
  if (guard) report.heartbeats_consumed = guard->stats().heartbeats_consumed;

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  std::vector<space::Tuple> final_state = cluster.merged_final_state();
  report.residual_tuples = final_state.size();
  report.drained = state.done && report.residual_tuples == 0;
  report.oracle = space::replay_against_oracle(merged, cluster_config.space,
                                               final_state);
  return report;
}

}  // namespace tb::cosim
