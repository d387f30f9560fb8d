// Epoch-versioned routing tables (DESIGN.md §16).
//
// A RoutingTable is an immutable snapshot of ring membership stamped with
// the epoch the membership authority published it under. The FederatedClient
// caches one and routes against it without coordination; a node that has
// moved on (its epoch is newer) rejects mis-routed keys with a typed
// kFailedPrecondition carrying its epoch, and the client re-fetches through
// its RoutingSource before retrying. Epoch monotonicity is the publisher's
// job, so "newer epoch" is a total order the whole cluster agrees on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/fed/hash_ring.hpp"
#include "src/sim/process.hpp"

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

/// Where a FederatedClient refreshes its table from.
class RoutingSource {
 public:
  virtual ~RoutingSource() = default;
  /// Latest published table; nullopt when the authority is unreachable or
  /// nothing was published yet.
  virtual sim::Task<std::optional<RoutingTable>> fetch() = 0;
};

/// In-process source: tests and the SimCluster publish directly. fetch()
/// returns a copy of the current table, so a published successor never
/// mutates a client's cached snapshot.
class SharedRoutingSource final : public RoutingSource {
 public:
  void publish(RoutingTable table) { table_ = std::move(table); }
  const RoutingTable& current() const { return table_; }

  sim::Task<std::optional<RoutingTable>> fetch() override {
    if (table_.empty()) co_return std::nullopt;
    co_return table_;
  }

 private:
  RoutingTable table_;
};

}  // namespace tb::fed
