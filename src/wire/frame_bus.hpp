// Frame-level transaction model of the TpWIRE bus (DESIGN.md §13) — the
// middle BusModel abstraction level.
//
// OneWireBus walks the daisy chain hop by hop: one delay per hop (the
// kernel advances in place when nothing lies between) and an
// observe_frame() call on every slave for every word, O(N) per
// communication cycle. This model computes the whole cycle in closed form
// from LinkConfig — TX, per-hop repeats, turnaround, RX return and gap
// collapse into a single co_await — and touches only the slave that
// actually responds. Everything observable at cycle granularity is
// preserved exactly: cycle boundary times, CycleResult/CycleTrace, Stats,
// the RNG draw sequence for fault injection, retry/timeout behavior, and
// slave state whenever it is read.
//
// The trick is a centralized picture of the chain plus lazy slave sync:
//
//  * Selection. Only SELECT frames (and resets) change which slave answers,
//    and every word crosses the bus through cycle(); the bus mirrors the
//    selected position and full-observes just that slave. Non-responders
//    learn of deselection lazily from the shared FrameFeed the next time
//    their state is read.
//  * Watchdog. In a fault-free steady state every slave's watchdog was
//    petted by the same word, so "might any watchdog fire on this word?"
//    is one comparison against the last valid word's TX time.
//  * Interrupt OR. Slaves report pending_interrupt() flips through
//    SlaveDevice::BusListener; the bus keeps the pending chain positions in
//    an ordered set, making the RX INT-bit OR an O(log N) prefix query.
//
// When the closed-form picture cannot hold — broadcast selection, any
// slave dead or in reset, a watchdog about to fire — the cycle falls back
// to a slow path that observes every slave (still one delay), then
// resynchronizes so the fast path resumes. Fault-free runs are bit-for-bit
// identical to OneWireBus at cycle boundaries; what this level gives up is
// sub-cycle event interleaving with concurrent processes (state mutates at
// the cycle's start rather than spread across hop instants), which is the
// classic loosely-timed TLM trade.
#pragma once

#include <set>
#include <unordered_map>

#include "src/wire/bus_model.hpp"

namespace tb::wire {

class FrameLevelBus final : public BusModel, private SlaveDevice::BusListener {
 public:
  FrameLevelBus(sim::Simulator& sim, LinkConfig link, FaultConfig faults = {});
  ~FrameLevelBus() override;

  BusModelLevel level() const override { return BusModelLevel::kFrameLevel; }

  int attach(SlaveDevice& slave) override;

  sim::Task<CycleResult> cycle(TxFrame frame, bool expect_reply) override;

  /// Cycles served by the O(1) fast path vs the O(N) fallback — the
  /// benches assert the steady state stays on the fast path.
  std::uint64_t fast_path_cycles() const { return fast_cycles_; }
  std::uint64_t slow_path_cycles() const { return slow_cycles_; }

 private:
  void on_disturbed(int chain_pos) override;
  void on_pending_changed(int chain_pos, bool pending) override;
  void on_slave_destroyed(int chain_pos) override;

  /// After a slow-path cycle over a valid word, tries to rebuild the
  /// closed-form picture (uniform watchdog base, unique selection, no
  /// broadcast, everyone alive and out of reset) so fast cycles resume.
  void try_resync(bool word_valid, sim::Time tx_done);

  SlaveDevice::FrameFeed feed_;
  std::unordered_map<std::uint8_t, int> node_to_pos_;
  std::set<int> pending_pos_;  ///< chain positions with pending interrupts
  bool disturbed_ = false;  ///< fall back to full observation until resync
  bool armed_ = false;      ///< some slave has an armed watchdog
  int selected_pos_ = -1;   ///< chain position of the selected slave, -1 none
  std::uint64_t fast_cycles_ = 0;
  std::uint64_t slow_cycles_ = 0;
};

}  // namespace tb::wire
