// A counting sink agent.
#pragma once

#include "src/net/agent.hpp"
#include "src/util/stats.hpp"

namespace tb::net {

/// Terminates flows; records per-packet latency (created_at -> arrival).
class SinkAgent : public Agent {
 public:
  SinkAgent(sim::Simulator& sim, Node& node, std::uint16_t port)
      : Agent(sim, node, port) {}

  void recv(Packet packet) override {
    ++received_;
    bytes_ += packet.size_bytes;
    latency_.add((simulator().now() - packet.created_at).seconds());
  }

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t bytes_received() const { return bytes_; }
  const util::SampleSet& latency() const { return latency_; }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
  util::SampleSet latency_;
};

}  // namespace tb::net
