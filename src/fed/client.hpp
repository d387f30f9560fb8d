// The federated router (DESIGN.md §16): svc::SpaceApi over N space nodes.
//
// Services keep speaking the same SpaceApi they use against one node; this
// client decides *which* node underneath:
//
//  * named operations (writes; reads/takes with a name-constrained
//    template) hash the type_key through the cached RoutingTable and go to
//    exactly one node. A kFailedPrecondition reject means the table is
//    stale: refresh through the RoutingSource and re-route (bounded).
//    Canonically retryable rejects (RESOURCE_EXHAUSTED, UNAVAILABLE) retry
//    against the same owner — re-routing on overload would violate
//    ownership.
//
//  * wildcard operations (unnamed templates) can match on any node, so
//    they scatter: a kPeekRequest to every member returns each node's
//    oldest live match with its global ticket; the router takes the
//    minimum — exactly the engine's own cross-shard k-way merge, one level
//    up. A read returns the winning peek; a take sends a directed
//    kTakeByIdRequest to the winner and re-scatters when it loses the race
//    (bounded rounds). Blocking wildcards poll every 5 ms until the
//    deadline — a documented cost of not parking a waiter on every node.
//
// Transactions are not exposed: a txn would have to span nodes. Services
// needing them talk to a single node directly (RemoteSpaceApi).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/fed/routing.hpp"
#include "src/mw/client.hpp"
#include "src/svc/space_api.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::fed {

class FederatedClient final : public svc::SpaceApi {
 public:
  /// Maps a node id from the routing table to the mw client connected to
  /// that node; nullptr = no channel (the node is treated as unreachable).
  using Resolver = std::function<mw::SpaceClient*(std::uint32_t)>;

  FederatedClient(sim::Simulator& sim, RoutingSource& source,
                  Resolver resolver);

  sim::Task<bool> write(space::Tuple tuple, sim::Time lease) override;
  sim::Task<util::Status> write_status(space::Tuple tuple,
                                       sim::Time lease) override;
  sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                              sim::Time timeout) override;
  sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                              sim::Time timeout) override;
  sim::Simulator& simulator() override { return *sim_; }

  /// The epoch of the cached table (0 = none fetched yet).
  std::uint64_t table_epoch() const { return table_ ? table_->epoch : 0; }

  struct Stats {
    std::uint64_t routed_writes = 0;   ///< named writes dispatched
    std::uint64_t routed_matches = 0;  ///< named reads/takes dispatched
    std::uint64_t wildcard_matches = 0;  ///< scatter/merge reads+takes
    std::uint64_t peeks_sent = 0;
    std::uint64_t directed_takes = 0;
    std::uint64_t directed_take_misses = 0;  ///< lost race -> re-scatter
    std::uint64_t misroute_refreshes = 0;  ///< kFailedPrecondition handled
    std::uint64_t table_fetches = 0;
    std::uint64_t polls = 0;  ///< blocking-wildcard sleep rounds
  };
  const Stats& stats() const { return stats_; }

  /// Observability hook (DESIGN.md §7): mirrors every Stats field into a
  /// `<p>.<field>` counter at snapshot time (`<p>.routed_writes`, ...,
  /// `<p>.polls`). The registry must outlive the client. Default prefix:
  /// "fed.router".
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "fed.router");

 private:
  /// Fetches a table when none is cached; false when the source has none.
  sim::Task<bool> ensure_table();
  /// Re-fetches after a mis-route reject or a member with no channel. A
  /// fetched table may itself be stale (the authority write hasn't landed
  /// yet); it is still installed, and the bounded retry loop re-fetches on
  /// the next reject.
  sim::Task<void> refresh_table();

  mw::SpaceClient* client_for(std::uint32_t node) const {
    return resolver_(node);
  }

  sim::Task<std::optional<space::Tuple>> named_match(space::Template tmpl,
                                                     sim::Time timeout,
                                                     bool take);
  sim::Task<std::optional<space::Tuple>> wildcard_match(space::Template tmpl,
                                                        sim::Time timeout,
                                                        bool take);
  /// One scatter/merge round; nullopt = no ticketed match anywhere.
  sim::Task<std::optional<space::Tuple>> scatter_once(
      const space::Template& tmpl, bool take);

  sim::Simulator* sim_;
  RoutingSource* source_;
  Resolver resolver_;
  std::optional<RoutingTable> table_;
  Stats stats_;
};

}  // namespace tb::fed
