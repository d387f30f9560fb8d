// Federated-cluster scenario (DESIGN.md §16): the acceptance drill for the
// node/router split, packaged for tests and benches.
//
// N space nodes on one sim kernel (fed::SimCluster), P producers writing
// jobs spread across several tuple names through their own FederatedClient
// routers, C consumers draining the cluster with wildcard takes (scatter +
// min-ticket merge). Optionally a kill-the-primary failover drill: at
// `kill_at` the primary goes dark mid-run; a svc::StandbyGuard watching the
// primary's heartbeats in a control space detects the silence and promotes
// the replication standby, after which the run continues against the
// promoted node. The report carries per-node op counters (named-op routing
// exactness), the drained job order, and the differential-oracle verdict
// over every node's records, checked while the run ran — the "no acked
// write lost" proof.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fed/cluster.hpp"
#include "src/space/oplog.hpp"
#include "src/svc/failover.hpp"

namespace tb::cosim {

struct FederationConfig {
  int nodes = 4;
  int producers = 2;
  int consumers = 2;
  int jobs = 200;       ///< total acked jobs the producers aim for
  int job_names = 6;    ///< distinct tuple names the jobs spread across
  sim::Time produce_gap = sim::Time::ms(1);  ///< pause between a producer's writes

  /// Failover drill: crash the primary at this instant (zero = clean run).
  /// Implies a standby node; detection runs through svc::StandbyGuard over
  /// heartbeats in a local control space, so promotion happens one guard
  /// grace window after the crash, not instantaneously.
  sim::Time kill_at = sim::Time::zero();
  svc::FailoverConfig guard;  ///< heartbeat tick / grace for the drill

  sim::Time run_deadline = sim::Time::sec(300);  ///< hard stop for the drain
  fed::ClusterConfig cluster;  ///< nodes/with_standby are overridden
};

struct FederationReport {
  std::uint64_t acked_writes = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t consumed = 0;
  /// Tuples still live cluster-wide after the run. 0 = fully drained.
  /// `consumed` can trail `acked_writes` by up to the number of consumers
  /// in a kill run — a directed take the dying primary applied and
  /// replicated but whose ack was swallowed by the crash removed the job
  /// without teaching the consumer; the oracle still balances.
  std::uint64_t residual_tuples = 0;
  bool drained = false;  ///< consumers finished and nothing was left behind

  /// Jobs in consumption order, encoded producer * 1e6 + seq — two runs
  /// that drain the same workload must agree on this sequence (the global
  /// ticket order makes wildcard takes deterministic across node counts).
  std::vector<std::uint64_t> drain_order;

  /// Named ops served per ring node (index = node index). The routing-
  /// exactness check: each job name's writes land on exactly one node.
  std::vector<std::uint64_t> named_ops_per_node;
  std::uint64_t misroute_rejects = 0;   ///< summed over nodes
  std::uint64_t misroute_refreshes = 0; ///< summed over routers
  std::uint64_t wildcard_ops = 0;       ///< peeks served, summed over nodes

  bool promoted = false;
  sim::Time promoted_at;
  std::uint64_t heartbeats_consumed = 0;

  space::ReplayReport oracle;  ///< every node's records vs merged final state
  sim::Time makespan;
};

/// Runs the scenario to completion (drain or deadline) and finishes the
/// cluster's online differential oracle against the merged final state.
FederationReport run_federation_scenario(const FederationConfig& config);

}  // namespace tb::cosim
