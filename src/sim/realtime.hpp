// Real-time scheduler mode.
//
// The paper validates its NS-2 TpWIRE model by running the simulator with the
// real-time scheduler, tying event execution to the wall clock so elapsed
// wall time can be compared with the physical TpICU/SCM hardware. This class
// reproduces that mode: it drains the event queue while sleeping so that each
// event fires when wall_time ≈ start + sim_time / scale. `scale` > 1 runs
// faster than real time (useful for tests), < 1 slower.
#pragma once

#include <chrono>
#include <cstdint>

#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace tb::sim {

class RealTimeRunner {
 public:
  /// `scale` is simulated seconds per wall-clock second (must be > 0).
  explicit RealTimeRunner(Simulator& sim, double scale = 1.0);

  /// Runs events up to sim time `until`, pacing against the wall clock.
  /// Returns the wall-clock duration actually consumed.
  std::chrono::nanoseconds run_until(Time until);

  /// Largest observed lag between the ideal and actual firing instants; the
  /// validation harness reports this as the model's real-time fidelity.
  std::chrono::nanoseconds max_lag() const { return max_lag_; }

  std::uint64_t events_run() const { return events_run_; }

 private:
  Simulator* sim_;
  double scale_;
  std::chrono::nanoseconds max_lag_{0};
  std::uint64_t events_run_ = 0;
};

}  // namespace tb::sim
