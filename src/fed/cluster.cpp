#include "src/fed/cluster.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace tb::fed {

SimCluster::Node::Node(sim::Simulator& sim, std::uint32_t node_id,
                       const ClusterConfig& config, const mw::Codec& codec)
    : id(node_id),
      engine(sim, config.space),
      hub(sim, config.one_way_delay),
      core(engine, hub, codec,
           [&] {
             mw::ServerConfig server = config.server;
             server.node_id = node_id;
             return server;
           }()) {}

SimCluster::SimCluster(sim::Simulator& sim, ClusterConfig config)
    : sim_(&sim),
      config_(config),
      ticket_counter_(std::make_shared<std::uint64_t>(0)),
      checker_(std::make_shared<space::EngineChecker>(config_.space)) {
  TB_REQUIRE(config_.nodes >= 1);
  auto sink = [this](space::OpRecord record) { check(std::move(record)); };
  std::vector<std::uint32_t> members;
  for (int i = 0; i < config_.nodes; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    nodes_.push_back(std::make_unique<Node>(sim, id, config_, codec_));
    nodes_.back()->core.set_ticketing(ticket_counter_, sink);
    members.push_back(id);
  }
  if (config_.with_standby) {
    standby_ = std::make_unique<Node>(
        sim, static_cast<std::uint32_t>(config_.nodes + 1), config_, codec_);
    standby_->core.set_ticketing(ticket_counter_, sink);
    repl_channel_ = std::make_unique<mw::SpaceClient>(
        sim, standby_->hub.create_client(), codec_, config_.client);
    nodes_.front()->core.set_standby(repl_channel_.get());
  }
  routing_.publish(table_from_members(1, members));
  apply_routing();
}

mw::NodeCore& SimCluster::standby_core() {
  TB_REQUIRE(standby_ != nullptr);
  return standby_->core;
}

std::uint32_t SimCluster::standby_id() const {
  TB_REQUIRE(standby_ != nullptr);
  return standby_->id;
}

SimCluster::Node* SimCluster::find(std::uint32_t node_id) {
  for (auto& node : nodes_) {
    if (node->id == node_id) return node.get();
  }
  if (standby_ && standby_->id == node_id) return standby_.get();
  return nullptr;
}

mw::SpaceClient& SimCluster::channel(std::uint32_t node_id) {
  Node* node = find(node_id);
  TB_REQUIRE(node != nullptr);
  if (node->channel == nullptr) {
    channels_.push_back(std::make_unique<mw::SpaceClient>(
        *sim_, node->hub.create_client(), codec_, config_.client));
    node->channel = channels_.back().get();
  }
  return *node->channel;
}

std::unique_ptr<FederatedClient> SimCluster::make_router() {
  return std::make_unique<FederatedClient>(
      *sim_, routing_,
      [this](std::uint32_t node_id) -> mw::SpaceClient* {
        Node* node = find(node_id);
        if (node == nullptr || node->core.dead()) return nullptr;
        return &channel(node_id);
      });
}

void SimCluster::apply_routing() {
  const std::uint64_t epoch = routing_.current().epoch;
  auto stamp = [&](Node& node) {
    node.core.set_ownership(
        [this, id = node.id](std::uint64_t type_key) {
          const RoutingTable& table = routing_.current();
          return !table.empty() && table.owner_of(type_key) == id;
        },
        epoch);
  };
  for (auto& node : nodes_) stamp(*node);
  if (standby_) stamp(*standby_);
}

void SimCluster::crash_primary() {
  TB_REQUIRE(standby_ != nullptr);
  TB_REQUIRE(!primary_killed_);
  primary_killed_ = true;
  nodes_.front()->core.shutdown();
}

std::size_t SimCluster::promote_standby() {
  TB_REQUIRE(standby_ != nullptr);
  TB_REQUIRE(primary_killed_);
  TB_REQUIRE(!standby_promoted_);
  standby_promoted_ = true;
  Node& primary = *nodes_.front();
  const std::size_t applied = standby_->core.promote();
  // The standby inherits the primary's ring slot (add_node_as), so exactly
  // the dead node's keys change owner — every other node keeps serving the
  // data it already holds.
  RoutingTable table;
  table.epoch = routing_.current().epoch + 1;
  for (auto& node : nodes_) {
    if (node->id != primary.id) table.ring.add_node(node->id);
  }
  table.ring.add_node_as(standby_->id, primary.id);
  routing_.publish(std::move(table));
  apply_routing();
  return applied;
}

std::size_t SimCluster::kill_primary() {
  crash_primary();
  return promote_standby();
}

void SimCluster::check(space::OpRecord record) {
  space::ReplayChecker<space::SpaceEngine>& checker = checker_->checker();
  // The ticket just drawn is the watermark: every ticket below it was
  // logged in the event that drew it, so this record is the next one.
  const std::uint64_t next = checker.last_ticket() + 1;
  if (record.ticket != *ticket_counter_) {
    checker.reject(record, "logged after ticket " +
                               std::to_string(*ticket_counter_) +
                               " was drawn");
  } else if (record.ticket > next) {
    checker.reject(record, "tickets " + std::to_string(next) + ".." +
                               std::to_string(record.ticket - 1) +
                               " were drawn with no record");
  }
  checker.check(std::move(record));
}

void SimCluster::merge_oplogs(space::OpLog& out) { out.carry(checker_); }

void SimCluster::bind_metrics(obs::Registry& registry,
                              const std::string& prefix) {
  obs::Gauge& checked = registry.gauge(prefix + ".checked_records");
  obs::Gauge& live = registry.gauge(prefix + ".live_entries");
  registry.add_collector([this, &checked, &live] {
    checked.set(static_cast<double>(checker_->checker().checked()));
    live.set(static_cast<double>(checker_->oracle().size()));
  });
}

std::vector<space::Tuple> SimCluster::merged_final_state() const {
  std::vector<std::pair<std::uint64_t, space::Tuple>> ticketed;
  auto gather = [&ticketed](const mw::NodeCore& core) {
    if (core.dead()) return;
    for (auto& entry : core.ticketed_snapshot()) {
      ticketed.push_back(std::move(entry));
    }
  };
  for (const auto& node : nodes_) gather(node->core);
  // Until promoted, the standby's engine mirrors the live primary's.
  if (standby_promoted_) gather(standby_->core);
  std::sort(ticketed.begin(), ticketed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<space::Tuple> state;
  state.reserve(ticketed.size());
  for (auto& [ticket, tuple] : ticketed) state.push_back(std::move(tuple));
  return state;
}

}  // namespace tb::fed
