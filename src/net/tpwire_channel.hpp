// TpWIRE traffic agents (the paper's "TpWIRE Agent" implemented in NS-2).
//
// These bind NS-2's Constant Bit Rate source to the bus model: the source
// writes relay segments into its slave's outbox (the master relay shuttles
// them), and the sink parses segments out of its slave's inbox.
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

#include <cstddef>
#include <cstdint>

#include "src/sim/simulator.hpp"
#include "src/util/stats.hpp"
#include "src/wire/segment.hpp"
#include "src/wire/slave.hpp"

namespace tb::net {

/// The paper's workload for both experiments: Table 3 validates the TpWIRE
/// model with a CBR pushing 1-byte packets between two slaves (Figure 6),
/// and Table 4 sweeps CBR rates of 0 / 0.3 / 1 byte-per-second as
/// background load (Figure 7). The inter-packet gap is packet_size / rate.
struct CbrParams {
  double rate_bytes_per_sec = 1.0;
  std::size_t packet_size = 1;  ///< payload bytes per packet
};

/// CBR source feeding a slave's outbox with relay segments.
class WireCbrSource {
 public:
  WireCbrSource(sim::Simulator& sim, wire::SlaveDevice& slave,
                std::uint8_t dst_node, CbrParams params);

  void start();
  void stop() { running_ = false; }

 private:
  void emit_and_reschedule();

  sim::Simulator* sim_;
  wire::SlaveDevice* slave_;
  std::uint8_t dst_node_;
  CbrParams params_;
  bool running_ = false;
};

/// Sink draining a slave's inbox and reassembling relay segments.
class WireSink {
 public:
  WireSink(sim::Simulator& sim, wire::SlaveDevice& slave);

  std::uint64_t segments_received() const { return segments_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// One-way latencies for timestamped segments (>= 8 byte payloads).
  const util::SampleSet& latency() const { return latency_; }

 private:
  void drain();

  sim::Simulator* sim_;
  wire::SlaveDevice* slave_;
  wire::SegmentParser parser_;
  std::uint64_t segments_ = 0;
  std::uint64_t payload_bytes_ = 0;
  util::SampleSet latency_;
};

}  // namespace tb::net
