// TpWIRE 1-wire bus medium (paper §3.1, Figure 2) — the bit-accurate level
// of the BusModel abstraction (DESIGN.md §13).
//
// Models the daisy chain as a shared half-duplex medium driven exclusively
// by the master. One communication cycle:
//
//   master TX (frame_duration) → frame repeats through the chain (hop delay
//   per node) → the selected slave turns around (response_delay) and drives
//   the RX frame back (rx passes the same hops; every slave it crosses ORs
//   its pending-interrupt into the INT bit) → interframe gap.
//
// If no slave answers (wrong/broadcast selection, corrupted TX, slave in
// reset) the master waits out rx_timeout. Fault injection flips one random
// bit per corrupted frame and lets the receiver's real CRC check decide —
// with a single flip, CRC-4 x⁴+x+1 always detects, so corrupt-TX surfaces
// as a timeout and corrupt-RX as a CRC error, exactly the two retry causes
// the paper names ("If any Slave responds within an expected time period, or
// an error occurs during the receive of TX or RX frames").
//
// This model is the ground truth the faster levels (FrameLevelBus,
// AnalyticTiming) are cross-validated against: it awaits one delay per hop
// (the kernel advances in place when nothing lies between, DESIGN.md §8)
// and routes every word through every slave's observe_frame() at its hop
// instant.
#pragma once

#include "src/wire/bus_model.hpp"

namespace tb::wire {

class OneWireBus final : public BusModel {
 public:
  OneWireBus(sim::Simulator& sim, LinkConfig link, FaultConfig faults = {})
      : BusModel(sim, link, faults) {}

  BusModelLevel level() const override { return BusModelLevel::kBitAccurate; }

  sim::Task<CycleResult> cycle(TxFrame frame, bool expect_reply) override;
};

}  // namespace tb::wire
