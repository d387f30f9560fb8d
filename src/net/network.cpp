#include "src/net/network.hpp"

namespace tb::net {

Node& Network::add_node(std::string name) {
  nodes_.push_back(std::make_unique<Node>(next_node_id_++, std::move(name)));
  return *nodes_.back();
}

DuplexLink Network::connect(Node& a, Node& b, LinkParams params) {
  links_.push_back(std::make_unique<SimplexLink>(*sim_, a, b, params));
  SimplexLink* forward = links_.back().get();
  links_.push_back(std::make_unique<SimplexLink>(*sim_, b, a, params));
  SimplexLink* backward = links_.back().get();
  a.add_route(b.id(), *forward);
  b.add_route(a.id(), *backward);
  return {forward, backward};
}

}  // namespace tb::net
