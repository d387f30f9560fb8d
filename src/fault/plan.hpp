// Deterministic, seed-driven fault plans.
//
// The paper estimates TpWIRE behaviour under imperfect conditions — CRC-4
// errors surfacing as master retries, reset timeouts, background CBR
// interference (Tables 3/4) — but a model is only trustworthy if the retry /
// timeout / reset machinery is exercised under exactly those conditions. A
// FaultPlan is the single object describing *every* perturbation of a run:
//
//   * frame bit errors on the TpWIRE medium (independent per-bit BER, both
//     directions) — decided by a forked RNG stream, applied through
//     BusModel::set_word_fault;
//   * slave power failures and restarts, and stuck-INT windows — scheduled
//     as simulator events against SlaveDevice::kill/restart;
//   * clock skew (a rate drift) and periodic delay spikes — applied through
//     Simulator::set_delay_perturbation.
//
// Everything is a pure function of (seed, event order), and the simulator's
// event order is itself deterministic, so the same seed reproduces the same
// run bit for bit: a failing chaos run is replayable from a one-line seed
// report. Only the bit-error channel draws random numbers, from its own
// forked stream; the others are fixed schedules or pure functions of time.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"
#include "src/util/rng.hpp"

namespace tb::fault {

/// One slave power-failure event; restart_at <= crash_at means "stays dead".
struct SlaveCrashSpec {
  int slave_index = 0;
  sim::Time crash_at;
  sim::Time restart_at;
};

/// The slave's INT line reads stuck-asserted inside [from, until).
struct StuckInterruptSpec {
  int slave_index = 0;
  sim::Time from;
  sim::Time until = sim::Time::max();
};

/// Every delay scheduled inside a window of `width` at the start of each
/// `period` is stretched by `extra` (a bursty-latency model: GC pause,
/// EMI burst, contending DMA). period == 0 disables.
struct DelaySpikeSpec {
  sim::Time period;
  sim::Time width;
  sim::Time extra;
};

struct FaultPlanConfig {
  std::uint64_t seed = 0x5EED;

  /// Per-bit error rate on TpWIRE frame words, applied independently to
  /// each of the 16 bits of every transmitted word, in both directions.
  double bit_error_rate = 0.0;

  std::vector<SlaveCrashSpec> crashes;
  std::vector<StuckInterruptSpec> stuck_interrupts;
  DelaySpikeSpec delay_spikes;

  /// Clock drift: every scheduled delay is scaled by (1 + drift).
  double clock_drift = 0.0;

  /// True when any fault channel is active.
  bool active() const;
};

/// Runtime fault decisions; bit errors draw from a forked RNG stream.
/// One FaultPlan serves one simulation run; construct a fresh one (same
/// config) to replay.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const FaultPlanConfig& config() const { return config_; }

  /// Frame-word channel: flips each bit with probability bit_error_rate.
  std::uint16_t perturb_word(std::uint16_t word, bool rx);

  /// Delay perturbation implementing clock drift + periodic spikes.
  /// Deterministic: a pure function of (now, delay, config).
  sim::Time perturb_delay(sim::Time now, sim::Time delay) const;

  struct Stats {
    std::uint64_t tx_words_corrupted = 0;
    std::uint64_t rx_words_corrupted = 0;
    std::uint64_t bits_flipped = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  FaultPlanConfig config_;
  util::Xoshiro256 word_rng_;
  Stats stats_;
};

}  // namespace tb::fault
