// §2.1 scalability: "the overall system performance [is] clearly
// proportional to the number of consumers".
//
// Producers (FPU-less nodes) push FFT requests into the space; consumers
// (FPU nodes) crunch them. Sweeps the consumer count in two regimes:
// compute-bound (big crunch time — scaling should be near-linear until the
// producer count caps concurrency) and space-bound (tiny crunch — scaling
// flattens immediately, showing where the model stops paying off).
#include <cstdio>

#include <memory>
#include <vector>

#include "src/cosim/federation.hpp"
#include "src/cosim/report.hpp"
#include "src/obs/report.hpp"
#include "src/sim/process.hpp"
#include "src/svc/worker_pool.hpp"
#include "src/util/strings.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

double run_pool(int consumers, sim::Time crunch, int producers,
                int shard_count = 1) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim, space::SpaceConfig{.shard_count = shard_count});
  svc::LocalSpaceApi api(space);
  std::vector<std::unique_ptr<svc::FftConsumer>> pool;
  svc::ConsumerConfig cc;
  cc.compute_time = crunch;
  for (int i = 0; i < consumers; ++i) {
    pool.push_back(std::make_unique<svc::FftConsumer>(api, "c", cc));
    pool.back()->start();
  }
  int finished = 0;
  sim::Time all_done;
  for (int p = 0; p < producers; ++p) {
    svc::ProducerConfig pc;
    pc.jobs = 8;
    pc.fft_size = 256;
    pc.job_id_base = 1'000 * (p + 1);
    pc.submit_gap = sim::Time::zero();
    sim::spawn([&, pc]() -> sim::Task<void> {
      svc::FftProducer producer(api, pc);
      (void)co_await producer.run();
      if (++finished == producers) all_done = sim.now();
    });
  }
  sim.run_until(3600_s);
  return all_done.seconds();
}

cosim::FederationReport run_federation(int nodes, int jobs,
                                       sim::Time kill_at = sim::Time::zero()) {
  cosim::FederationConfig config;
  config.nodes = nodes;
  config.producers = 4;
  config.consumers = 4;
  config.jobs = jobs;
  config.kill_at = kill_at;
  return cosim::run_federation_scenario(config);
}

}  // namespace

int main() {
  const bool short_mode = obs::bench_short_mode();
  obs::BenchReport bench("consumer_scaling");
  bench.add_param("producers", obs::JsonValue(std::int64_t{8}));
  bench.add_param("jobs_per_producer", obs::JsonValue(std::int64_t{8}));
  std::printf("Consumer scaling (paper section 2.1): 8 producers x 8 "
              "FFT-256 jobs\n\n");

  const std::vector<int> sweep = short_mode ? std::vector<int>{1, 2, 8}
                                            : std::vector<int>{1, 2, 4, 8, 16};
  for (sim::Time crunch : {100_ms, 1_ms}) {
    std::printf("crunch time per job: %s\n", crunch.to_string().c_str());
    const std::string regime = crunch == 100_ms ? "crunch100ms" : "crunch1ms";
    cosim::TablePrinter table({"consumers", "makespan (s)", "speedup"});
    double base = 0.0;
    for (int consumers : sweep) {
      const double makespan = run_pool(consumers, crunch, 8);
      if (base == 0.0) base = makespan;
      table.add_row({std::to_string(consumers),
                     util::format_double(makespan, 3),
                     util::format_double(base / makespan, 2) + "x"});
      if (consumers == 1 || consumers == 8) {
        bench.add_key_metric(
            regime + ".makespan_s." + std::to_string(consumers) + "consumers",
            makespan, obs::Better::kLower, {.unit = "s"});
      }
    }
    std::printf("%s\n", table.render().c_str());
    bench.add_table(regime, table.headers(), table.rows());
  }
  // Shard-count sweep (DESIGN.md §10) in the space-bound regime, where the
  // engine's matching cost is what the makespan measures. Simulated time is
  // shard-invariant — the engine does the same simulated work — so the
  // makespan column doubles as a determinism check (every row identical).
  std::printf("shard-count sweep: 8 consumers, 1 ms crunch\n");
  cosim::TablePrinter shard_table({"shards", "makespan (s)"});
  for (int shards : {1, 4, 16}) {
    const double makespan = run_pool(8, 1_ms, 8, shards);
    shard_table.add_row(
        {std::to_string(shards), util::format_double(makespan, 3)});
    bench.add_key_metric("shards.makespan_s." + std::to_string(shards) +
                             "shards",
                         makespan, obs::Better::kLower, {.unit = "s"});
  }
  std::printf("%s\n", shard_table.render().c_str());
  bench.add_table("shard_sweep", shard_table.headers(), shard_table.rows());

  // Node-count axis (DESIGN.md §16): the same workload over a federated
  // cluster of 1/2/4 space nodes, producers and consumers routing through
  // fed::FederatedClient. Simulated makespan grows with node count (the
  // wildcard scatter pays one peek round per node), but the drain order is
  // ticket-driven and must be byte-identical across node counts — that
  // equality is the federation determinism gate.
  const int fed_jobs = short_mode ? 96 : 240;
  bench.add_param("federation_jobs", obs::JsonValue(std::int64_t{fed_jobs}));
  std::printf("federation node-count sweep: 4 producers, 4 consumers, %d "
              "jobs\n", fed_jobs);
  cosim::TablePrinter fed_table({"nodes", "makespan (s)", "wildcard peeks",
                                 "drain order"});
  std::vector<std::uint64_t> reference_order;
  bool drain_identical = true;
  for (int nodes : {1, 2, 4}) {
    const cosim::FederationReport report = run_federation(nodes, fed_jobs);
    if (reference_order.empty()) reference_order = report.drain_order;
    const bool same = report.drain_order == reference_order;
    drain_identical = drain_identical && same && report.drained;
    fed_table.add_row({std::to_string(nodes),
                       util::format_double(report.makespan.seconds(), 3),
                       std::to_string(report.wildcard_ops),
                       same ? "identical" : "DIVERGED"});
    bench.add_key_metric("federation.makespan_s." + std::to_string(nodes) +
                             "nodes",
                         report.makespan.seconds(), obs::Better::kLower,
                         {.unit = "s"});
  }
  std::printf("%s\n", fed_table.render().c_str());
  bench.add_table("federation_sweep", fed_table.headers(), fed_table.rows());
  bench.add_key_metric("federation.drain_identical_across_nodes",
                       drain_identical ? 1.0 : 0.0, obs::Better::kHigher);

  // Kill-a-node chaos soak: crash the primary mid-drain, let the standby
  // guard promote the replication standby, and verify the cluster still
  // drains with zero acked writes lost (the cluster's online oracle check
  // stays clean against the merged final state). The boolean is the gate; promotion latency is
  // simulated time — deterministic — reported for trend-watching.
  const int soak_jobs = short_mode ? 120 : 480;
  std::printf("kill-a-node soak: 4 nodes + standby, %d jobs, primary "
              "crashes at t=120ms\n", soak_jobs);
  const cosim::FederationReport soak =
      run_federation(4, soak_jobs, sim::Time::ms(120));
  const bool zero_loss = soak.promoted && soak.drained &&
                         soak.residual_tuples == 0 && soak.oracle.equivalent;
  cosim::TablePrinter soak_table({"acked", "consumed", "residual",
                                  "promoted at (s)", "oracle"});
  soak_table.add_row({std::to_string(soak.acked_writes),
                      std::to_string(soak.consumed),
                      std::to_string(soak.residual_tuples),
                      util::format_double(soak.promoted_at.seconds(), 3),
                      soak.oracle.equivalent ? "equivalent" : "DIVERGED"});
  std::printf("%s\n", soak_table.render().c_str());
  bench.add_table("kill_a_node_soak", soak_table.headers(), soak_table.rows());
  bench.add_key_metric("federation.killnode.zero_loss_ok",
                       zero_loss ? 1.0 : 0.0, obs::Better::kHigher);
  bench.add_key_metric("federation.killnode.promoted_at_s",
                       soak.promoted_at.seconds(), obs::Better::kLower,
                       {.unit = "s", .gate = false});
  bench.add_key_metric("federation.killnode.makespan_s",
                       soak.makespan.seconds(), obs::Better::kLower,
                       {.unit = "s", .gate = false});

  std::printf("scaling is proportional while consumers are the bottleneck "
              "and caps at the number of concurrent producers.\n");
  std::printf("bench report: %s\n", bench.write().c_str());
  return 0;
}
