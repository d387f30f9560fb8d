#include "src/cosim/impact.hpp"

#include <memory>

#include "src/net/tpwire_channel.hpp"
#include "src/sim/process.hpp"
#include "src/space/ops.hpp"
#include "src/util/assert.hpp"
#include "src/wire/multibus.hpp"
#include "src/wire/multibus_relay.hpp"

namespace tb::cosim {

namespace {

sim::Task<void> impact_client_flow(const ImpactConfig& config,
                                   sim::Simulator& sim,
                                   mw::SpaceClient& client,
                                   ImpactResult& result) {
  const sim::Time start = sim.now();

  // Write the entry: ("entry", 1, <payload blob>), lease 160 s.
  std::vector<std::uint8_t> blob(config.entry_payload);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::vector<std::uint8_t> blob_copy = blob;
  std::vector<space::Value> fields;
  fields.emplace_back(std::int64_t{1});
  fields.emplace_back(std::move(blob));
  space::Tuple entry("entry", std::move(fields));

  mw::SpaceClient::WriteResult write =
      co_await client.write(std::move(entry), config.lease);
  result.write_latency = sim.now() - start;

  // "later on" — the application goes about its business while the entry's
  // lease keeps running.
  if (config.think_time > sim::Time::zero()) {
    co_await sim::delay(sim, config.think_time);
  }

  // "later on, a take operation is executed by the C++ client, which
  // removes the entry just written from the space only if the entry
  // lifetime is not out-of-date." The template matches the entry exactly
  // (id and content), so the take request carries the same payload burden
  // as the write — both directions load the bus symmetrically.
  const sim::Time take_start = sim.now();
  std::vector<space::FieldPattern> patterns;
  patterns.push_back(space::FieldPattern::exact(space::Value(std::int64_t{1})));
  patterns.push_back(space::FieldPattern::exact(space::Value(blob_copy)));
  space::Template tmpl(std::string("entry"), std::move(patterns));
  std::optional<space::Tuple> taken =
      co_await client.take(std::move(tmpl), config.take_timeout);
  result.take_latency = sim.now() - take_start;

  result.total = result.write_latency + result.take_latency;
  result.wall_total = sim.now() - start;
  result.out_of_time = !write.ok || write.lease.id == 0 || !taken.has_value();
  result.completed = true;
  sim.stop();
}

}  // namespace

ImpactResult run_impact(const ImpactConfig& config) {
  ImpactResult result;

  ScenarioConfig scenario_config = config.scenario;
  TB_REQUIRE(scenario_config.slave_count >= 4);
  WireScenario scenario(scenario_config);
  mw::SpaceClient& client = scenario.add_client(/*slave_index=*/0);

  // Background CBR: Slave2 -> Slave4 through the relay.
  net::CbrParams cbr_params;
  cbr_params.rate_bytes_per_sec = config.cbr_rate_bps;
  cbr_params.packet_size = config.cbr_packet_size;
  net::WireCbrSource cbr(scenario.sim(), scenario.slave(1),
                         scenario.node_id(3), cbr_params);
  net::WireSink sink(scenario.sim(), scenario.slave(3));

  scenario.start();
  if (config.cbr_rate_bps > 0.0) cbr.start();
  sim::spawn(impact_client_flow(config, scenario.sim(), client, result));

  scenario.sim().run_until(config.max_sim_time);

  result.bus_utilization = scenario.bus().utilization();
  result.bus_cycles = scenario.bus().stats().cycles;
  result.relay_bytes = scenario.relay().stats().bytes_drained;
  result.cbr_packets_delivered = sink.segments_received();
  return result;
}

namespace {

/// Mode-B counterpart of WireScenario's wiring: two 1-wire buses with a
/// cross-bus relay; exposes the same client/flow surface run_impact needs.
struct ModeBRig {
  sim::Simulator sim;
  wire::MultiBusSystem system;
  std::vector<std::unique_ptr<wire::SlaveDevice>> slaves;
  wire::MultiBusRelay relay;
  mw::XmlCodec xml_codec;
  mw::BinaryCodec binary_codec;
  space::SpaceEngine space;
  mw::WireServerTransport server_transport;
  mw::NodeCore server;
  mw::WireClientTransport client_transport;
  mw::SpaceClient client;

  explicit ModeBRig(const ImpactConfig& config)
      : sim(config.scenario.seed),
        system(sim, config.scenario.link, /*bus_count=*/2,
               config.scenario.faults, config.scenario.master),
        slaves(make_slaves(sim, config)),
        relay(attach_all(system, slaves), {1, 2, 3, 4},
              config.scenario.relay),
        space(sim, config.scenario.space),
        server_transport(sim, *slaves[2], config.scenario.transport),
        server(space, server_transport, codec(config), config.scenario.server),
        client_transport(sim, *slaves[0], /*server_node=*/3,
                         config.scenario.transport),
        client(sim, client_transport, codec(config)) {}

  const mw::Codec& codec(const ImpactConfig& config) const {
    if (config.scenario.use_xml_codec) return xml_codec;
    return binary_codec;
  }

  static std::vector<std::unique_ptr<wire::SlaveDevice>> make_slaves(
      sim::Simulator& sim, const ImpactConfig& config) {
    std::vector<std::unique_ptr<wire::SlaveDevice>> slaves;
    for (std::uint8_t id = 1; id <= 4; ++id) {
      slaves.push_back(
          std::make_unique<wire::SlaveDevice>(sim, id, config.scenario.link));
    }
    return slaves;
  }

  /// Bus 0 hosts the client side (Slave1 + CBR Slave2), bus 1 the server
  /// side (Slave3 + sink Slave4). Returns `system` for the relay's ctor.
  static wire::MultiBusSystem& attach_all(
      wire::MultiBusSystem& system,
      std::vector<std::unique_ptr<wire::SlaveDevice>>& slaves) {
    system.attach(0, *slaves[0]);
    system.attach(0, *slaves[1]);
    system.attach(1, *slaves[2]);
    system.attach(1, *slaves[3]);
    return system;
  }
};

}  // namespace

ImpactResult run_impact_mode_b(const ImpactConfig& config) {
  ImpactResult result;
  ModeBRig rig(config);

  net::CbrParams cbr_params;
  cbr_params.rate_bytes_per_sec = config.cbr_rate_bps;
  cbr_params.packet_size = config.cbr_packet_size;
  net::WireCbrSource cbr(rig.sim, *rig.slaves[1], /*dst=*/4, cbr_params);
  net::WireSink sink(rig.sim, *rig.slaves[3]);

  rig.relay.start();
  if (config.cbr_rate_bps > 0.0) cbr.start();
  sim::spawn([&config, &rig, &result]() -> sim::Task<void> {
    co_await impact_client_flow(config, rig.sim, rig.client, result);
  });

  rig.sim.run_until(config.max_sim_time);

  result.bus_utilization =
      (rig.system.bus(0).utilization() + rig.system.bus(1).utilization()) / 2.0;
  result.bus_cycles =
      rig.system.bus(0).stats().cycles + rig.system.bus(1).stats().cycles;
  result.relay_bytes = rig.relay.stats().bytes_drained;
  result.cbr_packets_delivered = sink.segments_received();
  return result;
}

}  // namespace tb::cosim
