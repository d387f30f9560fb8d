// TpWIRE link configuration and frame timing.
//
// The paper fixes the protocol constants (frame length 16 bits, slave reset
// watchdog of 2048 bit periods, reset pulse of 33 bit periods) but not the
// clock; TpWIRE is "fully programmable" up to ~1 Mbyte/s. The bit rate, gaps
// and retry budget are therefore configuration, calibrated per experiment
// (see EXPERIMENTS.md).
//
// n-wire scaling (paper §3.2) comes in the two variants the paper sketches:
//  * mode A, `wires` here — one line carries the serial control bits (start,
//    CMD or INT/TYPE, CRC: 8 bits) while DATA[7:0] is striped over the
//    remaining n-1 lines concurrently. Frame time = max(8, ceil(8/(n-1)))
//    bit periods, so a 2-wire link "almost doubles" the 1-wire bus and the
//    mode saturates at 2x — the motivation for mode B.
//  * mode B — n independent 1-wire buses; modeled by MultiBusSystem.
#pragma once

#include <cstdint>

#include "src/sim/time.hpp"
#include "src/wire/frame.hpp"

namespace tb::wire {

struct LinkConfig {
  /// Serial bit rate on each line, bits per second.
  std::uint32_t bit_rate_hz = 9'600;

  /// Number of physical lines (1 = the implemented 1-wire bus); extra
  /// lines stripe the data bits (mode A).
  int wires = 1;

  /// Per-hop propagation/repeater latency along the daisy chain, in bit
  /// periods (frames pass *through* each slave, paper §3.1 / Figure 2).
  double hop_delay_bits = 1.0;

  /// Slave turnaround between receiving a TX frame and driving the RX frame.
  double response_delay_bits = 4.0;

  /// Idle gap the master inserts between communication cycles.
  double interframe_gap_bits = 2.0;

  /// Master RX timeout, measured from the end of TX transmission.
  double rx_timeout_bits = 96.0;

  /// "the Master resends the TX frame a predetermined number of times
  /// before signaling an error" — total attempts = 1 + retry_limit.
  int retry_limit = 3;

  // --- derived timing -------------------------------------------------

  sim::Time bit_period() const {
    return sim::Time::from_seconds(1.0 / static_cast<double>(bit_rate_hz));
  }

  /// Serial bit-periods one frame occupies given the wire count (mode A).
  double frame_bits_on_wire() const {
    if (wires <= 1) return static_cast<double>(kFrameBits);
    const double control_bits = 8.0;  // start + CMD/INT+TYPE + CRC
    const double data_lanes = static_cast<double>(wires - 1);
    const double data_bits = 8.0 / data_lanes;
    // Control and data lanes run concurrently; the frame ends when the
    // slower lane finishes. Ceil to whole bit periods: lanes are clocked.
    double lane = control_bits > data_bits ? control_bits : data_bits;
    const double whole = static_cast<double>(static_cast<std::int64_t>(lane));
    return (lane > whole) ? whole + 1.0 : whole;
  }

  sim::Time bits(double n) const { return bit_period().scaled(n); }

  sim::Time frame_duration() const { return bits(frame_bits_on_wire()); }
  sim::Time response_delay() const { return bits(response_delay_bits); }
  sim::Time hop_delay() const { return bits(hop_delay_bits); }
  sim::Time interframe_gap() const { return bits(interframe_gap_bits); }
  sim::Time rx_timeout() const { return bits(rx_timeout_bits); }
  /// Slave watchdog: reset when no valid TX frame seen for this long
  /// (fixed to 2048 bit periods by the spec).
  sim::Time reset_timeout() const { return bits(2048.0); }
  /// Reset pulse width: slave unresponsive for this long once reset fires
  /// (fixed to 33 bit periods by the spec).
  sim::Time reset_pulse() const { return bits(33.0); }
  /// Wait inserted after a broadcast TX (no slave replies on broadcast).
  sim::Time broadcast_gap() const { return bits(16.0); }
};

/// Frame corruption injection, applied independently per direction.
/// Corruption flips one random bit of the 16-bit word; whether the receiver
/// detects it is decided by actually re-running the CRC (a flip confined to
/// the CRC field is still detected; multi-frame escapes are possible only
/// with multiple flips, which one draw never produces).
struct FaultConfig {
  double tx_corrupt_prob = 0.0;
  double rx_corrupt_prob = 0.0;
};

}  // namespace tb::wire
