// Consistent-hash ownership of the type_key space (DESIGN.md §16).
//
// Each node projects `virtual_nodes` points onto a 64-bit ring; a type_key
// (the cached FNV-1a (name, arity) hash every engine shard already routes
// by — space/tuple.hpp) is owned by the node whose point follows the key's
// hash clockwise. Virtual nodes smooth the load split (max/min per-node key
// share stays within a small constant at 64+ points per node, property-
// tested in test_fed_ring), and consistent hashing keeps membership churn
// cheap: adding or removing one of N nodes remaps only ~K/N of K keys —
// every other key keeps its owner, so a routing-epoch bump invalidates a
// minimal slice of client caches.
//
// The point hash is a splitmix64 finalizer over (node_id, replica) — chosen
// over re-using FNV because ring placement needs avalanche behavior on
// small integer inputs, which FNV-1a lacks.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace tb::fed {

class HashRing {
 public:
  explicit HashRing(int virtual_nodes = 64);

  /// No-op when the node is already a member.
  void add_node(std::uint32_t node_id);
  /// Adds `node_id` on the ring positions `slot_id` would occupy — the
  /// failover slot swap: a promoted standby inheriting the dead primary's
  /// slot takes over exactly the primary's keys, and no other key in the
  /// cluster changes owner (a plain remove+add would remap ~K/N unrelated
  /// keys toward nodes that do not hold the data).
  void add_node_as(std::uint32_t node_id, std::uint32_t slot_id);

  bool contains(std::uint32_t node_id) const {
    return members_.contains(node_id);
  }
  std::size_t node_count() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  int virtual_nodes() const { return virtual_nodes_; }

  /// Member node ids, ascending.
  std::vector<std::uint32_t> nodes() const {
    return {members_.begin(), members_.end()};
  }

  /// Owner of this type_key. Precondition: !empty().
  std::uint32_t owner_of(std::uint64_t type_key) const;

 private:
  static std::uint64_t mix(std::uint64_t x);
  static std::uint64_t point_hash(std::uint32_t node_id, int replica);

  int virtual_nodes_;
  /// (ring position, node id), ascending by position — owner_of binary-
  /// searches this. Rebuilt on membership change; churn is a control-plane
  /// event, lookups are the data-plane hot path.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::set<std::uint32_t> members_;
};

}  // namespace tb::fed
