// Invariant checkers riding the trace streams.
//
// Fault injection is only useful if something *checks* that the protocol
// machinery absorbs the faults. The InvariantChecker subscribes to the
// bus / master trace signals and asserts the safety properties the paper's
// protocol promises (§3.1):
//
//   * no frame is ever accepted with a bad CRC — every cycle the master
//     reports Ok must carry an RX word that re-validates;
//   * the retry rule is honoured — no transaction spends more than
//     1 + retry_limit bus cycles;
//   * transactions terminate — every frame transaction resolves within a
//     configurable multiple of the slave reset timeout (the longest
//     protocol-defined recovery horizon);
//   * the space conserves tuples — at end of run, writes are exactly
//     accounted for by takes, expirations, cancellations and residents
//     (no lost or duplicated take), whenever no transaction machinery is
//     left mid-flight.
//
// Violations are collected, not thrown: a chaos soak wants to run to
// completion and report everything that broke, and a checker must never
// perturb the schedule it is checking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/space/engine.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/master.hpp"

namespace tb::fault {

class InvariantChecker {
 public:
  struct Config {
    /// Transaction-latency bound as a multiple of the link reset timeout.
    /// Raise it for plans with heavy delay spikes or clock drift, which
    /// legitimately stretch every bus cycle.
    double op_deadline_factor = 2.0;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Config config) : config_(config) {}

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Checks every completed cycle: an Ok verdict must be backed by an RX
  /// word that decodes cleanly (start bit + CRC-4), and a cycle that saw
  /// no RX word can never be Ok on a reply-expecting cycle.
  void watch_bus(wire::BusModel& bus);

  /// Checks every resolved frame transaction against the retry budget and
  /// the termination deadline derived from `bus.link()`.
  void watch_master(wire::Master& master);

  /// Registers a space for the end-of-run conservation check.
  void watch_space(space::SpaceEngine& space);

  /// Runs the deferred checks (space conservation). Call once, after the
  /// workload has finished.
  void finish();

  bool ok() const { return violation_count_ == 0; }
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Human-readable summary (empty string when clean).
  std::string report() const;

  struct Stats {
    std::uint64_t cycles_checked = 0;
    std::uint64_t transactions_checked = 0;
    std::uint64_t spaces_checked = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void violate(std::string message);

  Config config_;
  std::vector<space::SpaceEngine*> spaces_;
  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;
  Stats stats_;
};

}  // namespace tb::fault
