// Epoch-versioned routing tables (DESIGN.md §16).
//
// A RoutingTable is an immutable snapshot of ring membership stamped with
// the epoch the membership authority published it under. The FederatedClient
// caches one and routes against it without coordination; a node that has
// moved on (its epoch is newer) rejects mis-routed keys with a typed
// kFailedPrecondition carrying its epoch, and the client re-reads the
// SharedRoutingSource before retrying. Epoch monotonicity is the publisher's
// job, so "newer epoch" is a total order the whole cluster agrees on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/fed/hash_ring.hpp"

namespace tb::fed {

struct RoutingTable {
  std::uint64_t epoch = 0;
  HashRing ring;

  std::uint32_t owner_of(std::uint64_t type_key) const {
    return ring.owner_of(type_key);
  }
  std::vector<std::uint32_t> nodes() const { return ring.nodes(); }
  bool empty() const { return ring.empty(); }
};

/// Builds a table from an authority record: members enter the ring in
/// ascending id order (HashRing placement is order-independent anyway).
RoutingTable table_from_members(std::uint64_t epoch,
                                const std::vector<std::uint32_t>& members,
                                int virtual_nodes = 64);

/// The cluster's published table. The SimCluster (and tests) publish into
/// it, and every FederatedClient refreshes its cached copy from current(),
/// so a published successor never mutates a client's cached snapshot.
class SharedRoutingSource {
 public:
  void publish(RoutingTable table) { table_ = std::move(table); }
  const RoutingTable& current() const { return table_; }

 private:
  RoutingTable table_;
};

}  // namespace tb::fed
