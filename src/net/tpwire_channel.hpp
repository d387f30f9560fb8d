// TpWIRE traffic agents (the paper's "TpWIRE Agent" implemented in NS-2).
//
// These bind the generic traffic-generator concept to the bus model: the
// source writes relay segments into its slave's outbox (the master relay
// shuttles them), and the sink parses segments out of its slave's inbox.
// This is exactly the Figure 6 validation setup — "We plugged a Constant
// Bit Rate (CBR) traffic generator on the Slave1 node to send a 1 byte
// packet to the agent object that receives the data on the Slave2 node" —
// and the Figure 7 background load.
//
// When the configured packet size is >= 8 bytes the source embeds a send
// timestamp so the sink can report one-way segment latency; 1-byte packets
// (the paper's case) report counts only and the harness measures elapsed
// time externally.
#pragma once

#include <cstdint>

#include "src/net/traffic.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/stats.hpp"
#include "src/wire/segment.hpp"
#include "src/wire/slave.hpp"

namespace tb::net {

/// CBR source feeding a slave's outbox with relay segments.
class WireCbrSource {
 public:
  WireCbrSource(sim::Simulator& sim, wire::SlaveDevice& slave,
                std::uint8_t dst_node, CbrParams params);

  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t bytes_sent() const { return bytes_; }
  /// Payload bytes the outbox refused (overflow back-pressure).
  std::uint64_t bytes_rejected() const { return rejected_; }

 private:
  void emit_and_reschedule();

  sim::Simulator* sim_;
  wire::SlaveDevice* slave_;
  std::uint8_t dst_node_;
  CbrParams params_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Sink draining a slave's inbox and reassembling relay segments.
class WireSink {
 public:
  WireSink(sim::Simulator& sim, wire::SlaveDevice& slave);

  std::uint64_t segments_received() const { return segments_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// One-way latencies for timestamped segments (>= 8 byte payloads).
  const util::SampleSet& latency() const { return latency_; }
  sim::Time last_arrival() const { return last_arrival_; }

 private:
  void drain();

  sim::Simulator* sim_;
  wire::SlaveDevice* slave_;
  wire::SegmentParser parser_;
  std::uint64_t segments_ = 0;
  std::uint64_t payload_bytes_ = 0;
  util::SampleSet latency_;
  sim::Time last_arrival_;
};

}  // namespace tb::net
