#include "src/fed/hash_ring.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fed/routing.hpp"
#include "src/space/tuple.hpp"

namespace tb::fed {
namespace {

/// Synthetic key population shaped like real traffic: short names hashed
/// through the same type_key the engines route by.
std::vector<std::uint64_t> sample_keys(int count) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    keys.push_back(space::type_key("job-" + std::to_string(i),
                                   static_cast<std::size_t>(1 + i % 4)));
  }
  return keys;
}

std::map<std::uint32_t, int> load_of(const HashRing& ring,
                                     const std::vector<std::uint64_t>& keys) {
  std::map<std::uint32_t, int> load;
  for (std::uint32_t node : ring.nodes()) load[node] = 0;
  for (std::uint64_t key : keys) ++load[ring.owner_of(key)];
  return load;
}

TEST(HashRingTest, MembershipBasics) {
  HashRing ring(8);
  EXPECT_TRUE(ring.empty());
  ring.add_node(3);
  ring.add_node(1);
  ring.add_node(1);  // duplicate add is a no-op
  EXPECT_EQ(ring.node_count(), 2u);
  EXPECT_TRUE(ring.contains(3));
  EXPECT_FALSE(ring.contains(2));
  EXPECT_EQ(ring.nodes(), (std::vector<std::uint32_t>{1, 3}));
  // A one-node ring owns everything.
  HashRing single(8);
  single.add_node(1);
  EXPECT_EQ(single.owner_of(0), 1u);
  EXPECT_EQ(single.owner_of(~0ull), 1u);
}

TEST(HashRingTest, OwnershipIsDeterministic) {
  HashRing a(64);
  HashRing b(64);
  for (std::uint32_t id = 1; id <= 5; ++id) {
    a.add_node(id);
    b.add_node(6 - id);  // insertion order must not matter
  }
  for (std::uint64_t key : sample_keys(2'000)) {
    EXPECT_EQ(a.owner_of(key), b.owner_of(key));
  }
}

// Property: with ~1k virtual points (8 nodes x 128 replicas) the key load
// splits evenly enough that no node carries more than twice the lightest
// node's share.
TEST(HashRingTest, BalanceAcrossThousandVirtualNodes) {
  HashRing ring(128);
  for (std::uint32_t id = 1; id <= 8; ++id) ring.add_node(id);
  const auto keys = sample_keys(50'000);
  const auto load = load_of(ring, keys);
  int min_load = keys.size();
  int max_load = 0;
  for (const auto& [node, count] : load) {
    min_load = std::min(min_load, count);
    max_load = std::max(max_load, count);
  }
  EXPECT_GT(min_load, 0);
  EXPECT_LE(static_cast<double>(max_load) / min_load, 2.0)
      << "max=" << max_load << " min=" << min_load;
}

// Property: adding one node to an N-node ring only *steals* keys — every
// remapped key moves to the new node, and the stolen share is on the order
// of K/(N+1).
TEST(HashRingTest, AddingNodeMovesMinimalKeys) {
  constexpr int kNodes = 7;
  HashRing ring(128);
  for (std::uint32_t id = 1; id <= kNodes; ++id) ring.add_node(id);
  const auto keys = sample_keys(20'000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (std::uint64_t key : keys) before.push_back(ring.owner_of(key));

  ring.add_node(kNodes + 1);
  int moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t now = ring.owner_of(keys[i]);
    if (now != before[i]) {
      ++moved;
      EXPECT_EQ(now, kNodes + 1u) << "remap must target only the new node";
    }
  }
  const double expected = static_cast<double>(keys.size()) / (kNodes + 1);
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, static_cast<int>(2.0 * expected))
      << "moved=" << moved << " expected~" << expected;
}

// The inverse property on removal: a ring built without one node differs
// from the full ring only in that node's keys.
TEST(HashRingTest, RemovingNodeStrandsOnlyItsKeys) {
  HashRing full(128);
  HashRing ring(128);
  for (std::uint32_t id = 1; id <= 8; ++id) {
    full.add_node(id);
    if (id != 5) ring.add_node(id);
  }
  const auto keys = sample_keys(20'000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (std::uint64_t key : keys) before.push_back(full.owner_of(key));

  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (before[i] != 5) {
      EXPECT_EQ(ring.owner_of(keys[i]), before[i])
          << "keys of surviving nodes must not move";
    } else {
      EXPECT_NE(ring.owner_of(keys[i]), 5u);
    }
  }
}

// The failover slot swap: a standby added on the dead primary's slot
// inherits exactly the primary's keys; nothing else in the cluster moves.
TEST(HashRingTest, AddNodeAsInheritsSlotExactly) {
  HashRing before(64);
  for (std::uint32_t id = 1; id <= 4; ++id) before.add_node(id);

  HashRing after(64);
  for (std::uint32_t id = 2; id <= 4; ++id) after.add_node(id);
  after.add_node_as(9, /*slot_id=*/1);

  for (std::uint64_t key : sample_keys(20'000)) {
    const std::uint32_t old_owner = before.owner_of(key);
    const std::uint32_t new_owner = after.owner_of(key);
    EXPECT_EQ(new_owner, old_owner == 1 ? 9u : old_owner);
  }
}

TEST(RoutingTableTest, BuildsFromMembers) {
  RoutingTable table = table_from_members(7, {3, 1, 2}, 32);
  EXPECT_EQ(table.epoch, 7u);
  EXPECT_EQ(table.nodes(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_FALSE(table.empty());
  // Same members, same virtual nodes -> same ownership, epoch aside.
  RoutingTable again = table_from_members(8, {1, 2, 3}, 32);
  for (std::uint64_t key : sample_keys(500)) {
    EXPECT_EQ(table.owner_of(key), again.owner_of(key));
  }
}

}  // namespace
}  // namespace tb::fed
