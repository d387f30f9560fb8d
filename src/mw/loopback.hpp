// In-process transport with a fixed one-way delay.
//
// Models the paper's pure-Java prototype (Figure 3): client and NodeCore
// in one address space, messages crossing an RMI-priced hop. Also the
// fastest harness for tuplespace-semantics tests.
#pragma once

#include <memory>
#include <vector>

#include "src/mw/transport.hpp"
#include "src/sim/simulator.hpp"

namespace tb::mw {

class LoopbackHub;

class LoopbackClient final : public ClientTransport {
 public:
  using ClientTransport::send;
  void send(std::span<const std::uint8_t> message) override;

 private:
  friend class LoopbackHub;
  LoopbackClient(LoopbackHub& hub, ServerTransport::SessionId session)
      : hub_(&hub), session_(session) {}

  LoopbackHub* hub_;
  ServerTransport::SessionId session_;
};

/// Server side; manufactures connected client endpoints.
class LoopbackHub final : public ServerTransport {
 public:
  LoopbackHub(sim::Simulator& sim, sim::Time one_way_delay)
      : sim_(&sim), delay_(one_way_delay) {}

  /// Creates a client endpoint connected to this hub. The hub keeps
  /// ownership; the reference stays valid for the hub's lifetime.
  LoopbackClient& create_client();

  using ServerTransport::send;
  void send(SessionId session, std::span<const std::uint8_t> message) override;

  std::size_t session_count() const { return clients_.size(); }

 private:
  friend class LoopbackClient;
  void client_to_server(SessionId session, std::vector<std::uint8_t> message);

  sim::Simulator* sim_;
  sim::Time delay_;
  std::vector<std::unique_ptr<LoopbackClient>> clients_;
};

}  // namespace tb::mw
