// Store-and-forward relay across a mode-B multi-bus system (§3.2).
//
// Two processes per bus:
//  * a poll loop — runs the shared RelayPoller round over the bus's local
//    slaves and *enqueues* each parsed segment toward its destination bus;
//  * a push loop — pops its bus's queue and writes segments into local
//    slave inboxes.
//
// The decoupling is load-bearing: if the poll loop pushed cross-bus
// segments synchronously, its own bus would go silent for the duration of
// the remote push, and with a fast clock the 2048-bit-period slave watchdog
// would fire and wipe the local mailboxes (a failure mode the tests pin
// down). With a queue, every bus always has either polling or pushing
// traffic petting its slaves' watchdogs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/process.hpp"
#include "src/sim/trigger.hpp"
#include "src/wire/multibus.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/segment.hpp"

namespace tb::wire {

class MultiBusRelay {
 public:
  /// `nodes` lists every served node id (each must already be attached to a
  /// bus of `system`).
  MultiBusRelay(MultiBusSystem& system, std::vector<std::uint8_t> nodes,
                RelayConfig config = {});

  /// Spawns the poll and push processes; they run until the simulator dies.
  void start();

  const RelayStats& stats() const { return poller_.stats(); }

  /// Segments currently queued toward the given bus.
  std::size_t queued_for_bus(int bus_index) const {
    return queues_.at(bus_index)->pending.size();
  }

 private:
  struct BusQueue {
    std::deque<RelaySegment> pending;
    std::unique_ptr<sim::Trigger> wake;
  };

  sim::Task<void> poll_loop(int bus_index);
  sim::Task<void> push_loop(int bus_index);
  /// Queues `segment` toward its bus; a broadcast becomes one copy per
  /// destination node, each with `dst` rewritten. Never suspends.
  sim::Task<void> enqueue(const RelaySegment& segment);

  MultiBusSystem* system_;
  std::vector<std::uint8_t> nodes_;
  RelayConfig config_;
  bool started_ = false;
  std::vector<std::unique_ptr<BusQueue>> queues_;  ///< one per bus
  RelayPoller poller_;  ///< shared by every bus's poll loop
};

}  // namespace tb::wire
