#include "src/cosim/scenario.hpp"

#include "src/util/assert.hpp"

namespace tb::cosim {

util::Status ScenarioConfig::validate() const {
  switch (bus_model_level) {
    case wire::BusModelLevel::kBitAccurate:
    case wire::BusModelLevel::kFrameLevel:
      break;
    case wire::BusModelLevel::kAnalytic:
      if (fault.active()) {
        return util::InvalidArgument(
            "bus_model_level=analytic cannot honor an active fault plan: the "
            "closed form has no per-word events to corrupt");
      }
      if (faults.tx_corrupt_prob > 0.0 || faults.rx_corrupt_prob > 0.0) {
        return util::InvalidArgument(
            "bus_model_level=analytic cannot honor probabilistic frame "
            "corruption (FaultConfig); use kBitAccurate or kFrameLevel");
      }
      return util::InvalidArgument(
          "bus_model_level=analytic has no event-driven bus: WireScenario "
          "cannot host it (use wire::AnalyticTiming / cosim::run_level_sweep)");
    default:
      return util::InvalidArgument(
          "unknown bus_model_level " +
          std::to_string(static_cast<int>(bus_model_level)));
  }
  if (slave_count < 1) {
    return util::InvalidArgument("slave_count must be >= 1");
  }
  if (slave_count > wire::kMaxNodeId) {
    return util::InvalidArgument(
        "slave_count exceeds the TpWIRE id space (" +
        std::to_string(static_cast<int>(wire::kMaxNodeId)) + ")");
  }
  if (with_server &&
      (server_slave < 0 || server_slave >= slave_count)) {
    return util::InvalidArgument("server_slave out of range");
  }
  return util::OkStatus();
}

WireScenario::WireScenario(ScenarioConfig config) : config_(config) {
  const util::Status valid = config.validate();
  TB_REQUIRE_MSG(valid.ok(), valid.message().c_str());

  sim_ = std::make_unique<sim::Simulator>(config.seed);
  bus_ = wire::make_bus_model(config.bus_model_level, *sim_, config.link,
                              config.faults);

  std::vector<std::uint8_t> node_ids;
  for (int i = 0; i < config.slave_count; ++i) {
    const auto node_id = static_cast<std::uint8_t>(i + 1);
    slaves_.push_back(
        std::make_unique<wire::SlaveDevice>(*sim_, node_id, config_.link));
    bus_->attach(*slaves_.back());
    node_ids.push_back(node_id);
  }

  master_ = std::make_unique<wire::Master>(*bus_, config.master);
  relay_ = std::make_unique<wire::MasterRelay>(*master_, node_ids,
                                               config.relay);

  if (config.use_xml_codec) {
    codec_ = std::make_unique<mw::XmlCodec>();
  } else {
    codec_ = std::make_unique<mw::BinaryCodec>();
  }

  if (config.with_server) {
    space_ = std::make_unique<space::SpaceEngine>(*sim_, config.space);
    server_transport_ = std::make_unique<mw::WireServerTransport>(
        *sim_, *slaves_[config.server_slave], config.transport);
    server_ = std::make_unique<mw::NodeCore>(*space_, *server_transport_,
                                                *codec_, config.server);
  }

  if (config.fault.active()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(config.fault);
    injector_ = std::make_unique<fault::FaultInjector>(*fault_plan_);
    std::vector<wire::SlaveDevice*> chain;
    chain.reserve(slaves_.size());
    for (auto& slave : slaves_) chain.push_back(slave.get());
    injector_->install(*sim_, *bus_, chain);
  }

  checker_ = std::make_unique<fault::InvariantChecker>(config.checker);
  checker_->watch_bus(*bus_);
  checker_->watch_master(*master_);
  if (space_) checker_->watch_space(*space_);
}

void WireScenario::start() { relay_->start(); }

void WireScenario::shutdown() {
  if (!relay_->running()) return;
  relay_->stop();
  // Five seconds covers a full poll round plus the in-flight transaction
  // even at the slowest configured bit rates, so the relay has finished
  // its last bus cycle when this returns.
  sim_->run_until(sim_->now() + sim::Time::sec(5));
}

mw::SpaceClient& WireScenario::add_client(int slave_index,
                                          mw::ClientConfig client_config) {
  TB_REQUIRE(slave_index >= 0 && slave_index < slave_count());
  TB_REQUIRE_MSG(has_server(), "scenario built without a server");
  TB_REQUIRE_MSG(slave_index != config_.server_slave,
                 "client cannot share the server's slave");
  ClientSlot slot;
  slot.transport = std::make_unique<mw::WireClientTransport>(
      *sim_, *slaves_[slave_index], node_id(config_.server_slave),
      config_.transport);
  slot.client = std::make_unique<mw::SpaceClient>(*sim_, *slot.transport,
                                                  *codec_, client_config);
  clients_.push_back(std::move(slot));
  return *clients_.back().client;
}

}  // namespace tb::cosim
