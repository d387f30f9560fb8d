// N-node federated tuplespace on one sim kernel (DESIGN.md §16).
//
// The test/bench harness the node/router split exists for: each node is a
// full stack — its own SpaceEngine, LoopbackHub and mw::NodeCore — and the
// cluster wires the federation seams around them: the shared global ticket
// counter, the ownership filters fed from a SharedRoutingSource, the
// per-node router channels a FederatedClient resolves through, and (when
// configured) a standby node receiving the primary's replication stream.
//
// kill_primary() is the failover drill: the primary goes dark (crashed-host
// semantics), and the routing table is republished one epoch up with the
// standby, which applied the replication stream as it arrived, holding the
// primary's ring slot.
//
// The cluster checks its own evidence while it runs: it owns a
// space::EngineChecker (a deterministic SpaceEngine oracle on a private
// ticket-clock simulator, never this cluster's), and every node hands it
// each op record in the event that draws the record's ticket. A node logs
// an op right after drawing its ticket, so the last ticket drawn is the
// watermark: the checker applies the record, moving its tuple into the
// oracle, and frees it. The evidence is the oracle's live entries, not
// the run's history, and a divergence is flagged at the op that caused it
// (oracle_report()). merge_oplogs() hands the checker on inside an OpLog
// and merged_final_state() gives the state it must end in;
// space::replay_against_oracle then finishes the check that proves no
// acked write was lost.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fed/client.hpp"
#include "src/fed/routing.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/space/oplog.hpp"

namespace tb::fed {

struct ClusterConfig {
  int nodes = 4;
  /// Provision a standby fed by the primary's (first node's) replication
  /// stream; kill_primary() requires it.
  bool with_standby = false;
  sim::Time one_way_delay = sim::Time::us(200);
  mw::ServerConfig server{};   ///< per-node template; node_id is overridden
  space::SpaceConfig space{};  ///< per-node engine config
  mw::ClientConfig client{};   ///< router/replication channel config
};

class SimCluster {
 public:
  SimCluster(sim::Simulator& sim, ClusterConfig config = {});

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  sim::Simulator& simulator() { return *sim_; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Ring nodes carry ids 1..N; the standby is N+1.
  mw::NodeCore& core(std::size_t index) { return nodes_[index]->core; }
  const mw::NodeCore& core(std::size_t index) const {
    return nodes_[index]->core;
  }
  std::uint32_t node_id(std::size_t index) const { return nodes_[index]->id; }
  mw::NodeCore& standby_core();
  std::uint32_t primary_id() const { return nodes_.front()->id; }
  std::uint32_t standby_id() const;

  /// The shared channel to a node (also what the resolver hands routers).
  mw::SpaceClient& channel(std::uint32_t node_id);

  SharedRoutingSource& routing() { return routing_; }
  const std::shared_ptr<std::uint64_t>& ticket_counter() const {
    return ticket_counter_;
  }

  /// A router over this cluster's routing source and channels.
  std::unique_ptr<FederatedClient> make_router();

  /// Re-stamps every core's ownership epoch from the current table. Call
  /// after publishing a new table through routing() by hand (tests forcing
  /// mis-route rejects); the failover path re-stamps on its own.
  void refresh_ownership() { apply_routing(); }

  /// Failover drill, split so a svc::StandbyGuard can sit between the two
  /// halves: crash_primary() takes the primary dark (heartbeats stop, all
  /// in-flight work swallowed); promote_standby() puts the standby into
  /// service, republished at epoch+1 with the standby holding the
  /// primary's ring slot, ownership filters re-stamped. Returns the number
  /// of replication frames the promotion applied: those held behind a
  /// request-id gap (NodeCore::promote), 0 when the stream arrived whole.
  void crash_primary();
  std::size_t promote_standby();
  /// Both halves back to back (detection-less drill).
  std::size_t kill_primary();

  /// Hands `out` the online checker as its checked prefix: every record
  /// every node logged (the dead primary's included — its acked operations
  /// happened) is in it, already checked. replay_against_oracle(out, ...)
  /// finishes it. Call once, when the run is over.
  void merge_oplogs(space::OpLog& out);

  /// The online check's verdict so far: the first divergence, and how many
  /// records it has checked (ops_replayed).
  const space::ReplayReport& oracle_report() const {
    return checker_->checker().report();
  }

  /// Observability hook: the online checker's footprint as gauges,
  /// `<p>.checked_records` (every record logged: each is checked in the
  /// event that logs it) and `<p>.live_entries` (the oracle's live tuples,
  /// which are all the evidence it holds). The registry must outlive the
  /// cluster.
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "fed.oracle");

  /// Live cluster contents in global-ticket order (dead nodes excluded;
  /// their surviving state lives on in the promoted standby, which counts
  /// only once promoted).
  std::vector<space::Tuple> merged_final_state() const;

 private:
  struct Node {
    std::uint32_t id;
    space::SpaceEngine engine;
    mw::LoopbackHub hub;
    mw::NodeCore core;
    mw::SpaceClient* channel = nullptr;  ///< owned via channel storage below

    Node(sim::Simulator& sim, std::uint32_t node_id,
         const ClusterConfig& config, const mw::Codec& codec);
  };

  /// Re-stamps every core's ownership filter with the current epoch. The
  /// predicate itself reads the live table, so membership changes need
  /// only this epoch refresh.
  void apply_routing();

  Node* find(std::uint32_t node_id);

  /// The record sink every node logs into: checks `record` at once.
  void check(space::OpRecord record);

  sim::Simulator* sim_;
  ClusterConfig config_;
  mw::BinaryCodec codec_;
  std::shared_ptr<std::uint64_t> ticket_counter_;
  std::shared_ptr<space::EngineChecker> checker_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Node> standby_;
  /// Primary -> standby replication channel (own session on standby's hub).
  std::unique_ptr<mw::SpaceClient> repl_channel_;
  std::vector<std::unique_ptr<mw::SpaceClient>> channels_;
  SharedRoutingSource routing_;
  bool primary_killed_ = false;
  bool standby_promoted_ = false;
};

}  // namespace tb::fed
