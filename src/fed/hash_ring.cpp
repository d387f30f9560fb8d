#include "src/fed/hash_ring.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::fed {

HashRing::HashRing(int virtual_nodes)
    : virtual_nodes_(virtual_nodes < 1 ? 1 : virtual_nodes) {}

std::uint64_t HashRing::mix(std::uint64_t x) {
  // splitmix64 finalizer: full avalanche on dense small integers.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t HashRing::point_hash(std::uint32_t node_id, int replica) {
  return mix((static_cast<std::uint64_t>(node_id) << 20) ^
             static_cast<std::uint64_t>(replica));
}

void HashRing::add_node(std::uint32_t node_id) {
  add_node_as(node_id, node_id);
}

void HashRing::add_node_as(std::uint32_t node_id, std::uint32_t slot_id) {
  if (!members_.insert(node_id).second) return;
  points_.reserve(points_.size() + static_cast<std::size_t>(virtual_nodes_));
  for (int replica = 0; replica < virtual_nodes_; ++replica) {
    points_.emplace_back(point_hash(slot_id, replica), node_id);
  }
  std::sort(points_.begin(), points_.end());
}

std::uint32_t HashRing::owner_of(std::uint64_t type_key) const {
  TB_REQUIRE(!points_.empty());
  // Re-mix the key: type_key is FNV over short names, whose low bits
  // cluster; the ring positions are splitmix-distributed.
  const std::uint64_t h = mix(type_key);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), h,
      [](std::uint64_t value, const auto& point) { return value < point.first; });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->second;
}

}  // namespace tb::fed
