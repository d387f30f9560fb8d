// Topology container (the NS-2 Simulator-object analogue): owns nodes and
// links, and installs the direct routes a duplex link implies.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/net/link.hpp"
#include "src/net/node.hpp"
#include "src/sim/simulator.hpp"

namespace tb::net {

/// The two directed halves of a duplex link.
struct DuplexLink {
  SimplexLink* forward = nullptr;   ///< a -> b
  SimplexLink* backward = nullptr;  ///< b -> a
};

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(&sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Node& add_node(std::string name);

  /// Creates a duplex link (two simplex halves) and installs the
  /// directly-connected routes in both nodes.
  DuplexLink connect(Node& a, Node& b, LinkParams params);

  sim::Simulator& simulator() { return *sim_; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<SimplexLink>> links_;
  std::uint32_t next_node_id_ = 1;
};

}  // namespace tb::net
