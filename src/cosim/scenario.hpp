// Scenario builder: assembles the paper's co-simulation stack in one object.
//
// Reproduces the Figure 7 topology by default — a TpWIRE master, four
// slaves, the master relay, a space server behind the WireServerTransport on
// Slave3, and any number of C++ clients on other slaves — and degrades to
// the Figure 6 validation topology (no server) with `with_server = false`.
// All timing knobs live in ScenarioConfig; the Table 3/4 runners and the
// examples build on this.
#pragma once

#include <memory>
#include <vector>

#include "src/fault/injector.hpp"
#include "src/fault/invariants.hpp"
#include "src/fault/plan.hpp"
#include "src/mw/client.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/node_core.hpp"
#include "src/mw/wire_transport.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/util/status.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/master.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/slave.hpp"

namespace tb::cosim {

struct ScenarioConfig {
  wire::LinkConfig link = default_link();
  wire::FaultConfig faults;
  wire::MasterConfig master;
  wire::RelayConfig relay = default_relay();
  mw::WireTransportParams transport;
  mw::ServerConfig server;
  space::SpaceConfig space;

  /// Deterministic fault plan; leave default (inactive) for a clean run.
  /// Any active channel turns the scenario into a chaos scenario: the plan
  /// is installed on the bus, slaves and simulator at construction.
  fault::FaultPlanConfig fault;

  /// Invariant-checker tuning (deadline slack for delay-spiky plans).
  fault::InvariantChecker::Config checker;

  int slave_count = 4;       ///< Figure 7: Slave1..Slave4 (node ids 1..4)
  int server_slave = 2;      ///< index of the server's slave (Slave3)
  bool with_server = true;   ///< false = Figure 6 validation topology
  bool use_xml_codec = true; ///< false = binary codec (ablation)
  std::uint64_t seed = 1;

  /// Bus timing model the scenario runs on (DESIGN.md §13). kBitAccurate
  /// and kFrameLevel build the full event-driven stack; kAnalytic has no
  /// event model, so WireScenario cannot host it — validate() rejects it
  /// with kInvalidArgument (analytic studies live in wire::AnalyticTiming /
  /// cosim::run_level_sweep instead).
  wire::BusModelLevel bus_model_level = wire::BusModelLevel::kBitAccurate;

  /// Checks the configuration for inconsistent combinations — unknown
  /// bus-model level, analytic level (no event model to build), fault
  /// plans or probabilistic corruption on the analytic level (closed forms
  /// cannot honor them) — before any component is constructed. Returns
  /// kInvalidArgument with a message naming the offending field;
  /// WireScenario's constructor requires an ok() status.
  util::Status validate() const;

  /// Bus clocking used throughout the paper-scale experiments; see
  /// EXPERIMENTS.md "Calibration". The paper does not publish its
  /// prototype's programmed bus speed; these values reproduce Table 4's
  /// shape: a 6 kbit/s serial clock with a slow integrated-controller
  /// turnaround (40 bit periods — the TpICU is firmware, not an ASIC),
  /// which is also what makes the 2-wire bus "almost double" rather than
  /// exactly double the 1-wire bus.
  static wire::LinkConfig default_link() {
    wire::LinkConfig link;
    link.bit_rate_hz = 6'000;
    link.response_delay_bits = 40.0;
    link.interframe_gap_bits = 16.0;
    link.hop_delay_bits = 1.5;
    return link;
  }
  static wire::RelayConfig default_relay() {
    wire::RelayConfig relay;
    relay.poll_period = sim::Time::ms(250);
    relay.max_drain_per_visit = 256;
    // Scenario producers are all small-segment (transport fragments ≤ 48
    // bytes, CBR packets): a longer claimed payload is stream damage.
    relay.max_segment_payload = 64;
    return relay;
  }
};

class WireScenario {
 public:
  explicit WireScenario(ScenarioConfig config);

  WireScenario(const WireScenario&) = delete;
  WireScenario& operator=(const WireScenario&) = delete;

  /// Starts the master relay (must run for any slave-to-slave traffic).
  void start();

  /// Stops the relay and runs the clock until its poll coroutine has
  /// finished, leaving the bus idle. Optional: the simulator reaps any
  /// process still suspended when the scenario dies.
  void shutdown();

  /// Creates a space client whose transport lives on the given slave.
  mw::SpaceClient& add_client(int slave_index,
                              mw::ClientConfig client_config = {});

  /// Endpoint stats for the i-th added client (creation order).
  mw::WireClientTransport& client_transport(int index) {
    return *clients_.at(index).transport;
  }

  sim::Simulator& sim() { return *sim_; }
  wire::BusModel& bus() { return *bus_; }
  wire::Master& master() { return *master_; }
  wire::MasterRelay& relay() { return *relay_; }
  wire::SlaveDevice& slave(int index) { return *slaves_.at(index); }
  int slave_count() const { return static_cast<int>(slaves_.size()); }
  std::uint8_t node_id(int slave_index) const {
    return slaves_.at(slave_index)->node_id();
  }

  space::SpaceEngine& space() { return *space_; }
  mw::NodeCore& server() { return *server_; }
  /// Mailbox-pump stats for the server's endpoint (chaos tests inspect
  /// fragment loss and reassembly evictions here).
  mw::WireServerTransport& server_transport() { return *server_transport_; }
  bool has_server() const { return server_ != nullptr; }
  const mw::Codec& codec() const { return *codec_; }
  const ScenarioConfig& config() const { return config_; }

  /// Always present: rides the bus/master trace signals from construction.
  /// Call `checker().finish()` after the workload for the space ledger check.
  fault::InvariantChecker& checker() { return *checker_; }

  bool has_faults() const { return fault_plan_ != nullptr; }
  fault::FaultPlan& fault_plan() { return *fault_plan_; }

 private:
  ScenarioConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<wire::BusModel> bus_;
  std::vector<std::unique_ptr<wire::SlaveDevice>> slaves_;
  std::unique_ptr<wire::Master> master_;
  std::unique_ptr<wire::MasterRelay> relay_;
  std::unique_ptr<mw::Codec> codec_;
  std::unique_ptr<space::SpaceEngine> space_;
  std::unique_ptr<mw::WireServerTransport> server_transport_;
  std::unique_ptr<mw::NodeCore> server_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::InvariantChecker> checker_;

  struct ClientSlot {
    std::unique_ptr<mw::WireClientTransport> transport;
    std::unique_ptr<mw::SpaceClient> client;
  };
  std::vector<ClientSlot> clients_;
};

}  // namespace tb::cosim
