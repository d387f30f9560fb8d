#include "src/sim/realtime.hpp"

#include <thread>

#include "src/util/assert.hpp"

namespace tb::sim {

namespace {
using WallClock = std::chrono::steady_clock;
}

RealTimeRunner::RealTimeRunner(Simulator& sim, double scale)
    : sim_(&sim), scale_(scale) {
  TB_REQUIRE(scale > 0.0);
}

std::chrono::nanoseconds RealTimeRunner::run_until(Time until) {
  TB_REQUIRE(until >= sim_->now());
  const auto wall_start = WallClock::now();
  const Time sim_start = sim_->now();

  const auto ideal_wall_for = [&](Time t) {
    const double sim_elapsed = (t - sim_start).seconds();
    return wall_start + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(sim_elapsed / scale_ * 1e9));
  };

  while (true) {
    const std::optional<Time> next = sim_->next_event_time();
    if (!next || *next > until) break;  // the window's queue is empty
    const auto ideal = ideal_wall_for(*next);
    const auto now_wall = WallClock::now();
    if (now_wall < ideal) {
      std::this_thread::sleep_until(ideal);
    } else {
      max_lag_ = std::max(max_lag_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        now_wall - ideal));
    }
    const bool stepped = sim_->step();
    TB_ASSERT(stepped);
    ++events_run_;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                              wall_start);
}

}  // namespace tb::sim
