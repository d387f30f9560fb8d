// Redundant-actuator failover (paper §2.1 "Fault tolerant systems" and
// Figure 1), generalized from the paper's dual pair to N replicas.
//
// The paper's four steps, verbatim in the implementation:
//  1. the control agent writes a start tuple and waits for it to disappear;
//  2. actuator agents race to take it — the take's atomicity elects exactly
//     one operating actuator ("Just one of them will succeed"); the rest
//     become backups;
//  3. the operating actuator executes its program semantics and writes a
//     heartbeat tuple each tick ("operating OK");
//  4. each backup tries to remove the heartbeat; when none arrives within
//     its grace window, it initiates recovery and becomes operating.
//
// With more than one backup, grace windows are staggered by backup rank
// (rank = how many heartbeats the backup lost the race for at election
// time... simply: arrival order), so the takeover is deterministic: the
// first-ranked backup claims the role one grace step before the second
// would, and its own heartbeats then re-arm the others.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/svc/space_api.hpp"

namespace tb::svc {

struct FailoverConfig {
  std::string role = "actuator";
  sim::Time tick = sim::Time::ms(100);  ///< heartbeat period
  /// Missed-heartbeat window before a rank-0 backup takes over; each
  /// further rank adds one more `grace` step.
  sim::Time grace = sim::Time::ms(250);
  sim::Time heartbeat_lease = sim::Time::ms(400);  ///< backstop vs stale OK
  /// How long an actuator keeps racing for the start tuple before settling
  /// for backup ("The others will set their states to backup"). A backup's
  /// grace machinery still recovers the role if nobody won.
  sim::Time election_timeout = sim::Time::sec(1);
};

class ActuatorAgent {
 public:
  enum class State : std::uint8_t {
    kIdle,       ///< not started
    kElecting,   ///< racing for the start tuple
    kBackup,
    kOperating,
    kFailed,     ///< crash injected
  };

  /// `actuate` runs once per operating tick (the "program semantics").
  ActuatorAgent(SpaceApi& api, std::string agent_id, int rank,
                FailoverConfig config,
                std::function<void(std::uint64_t tick)> actuate = {});

  /// Spawns the agent process (election, then the role loop).
  void start();

  /// Crash injection: the agent stops doing anything from now on.
  void fail() { state_ = State::kFailed; }

  State state() const { return state_; }
  const std::string& id() const { return id_; }

  struct Stats {
    std::uint64_t ticks_operated = 0;
    std::uint64_t heartbeats_consumed = 0;  ///< as backup
    std::uint64_t takeovers = 0;
    std::uint64_t heartbeats_dropped = 0;  ///< heartbeat write failed
    sim::Time became_operating_at;          ///< last transition to operating
  };
  const Stats& stats() const { return stats_; }

  static const char* to_string(State state);

 private:
  sim::Task<void> run();
  sim::Task<void> operate();
  sim::Task<void> stand_by();

  SpaceApi* api_;
  std::string id_;
  int rank_;
  FailoverConfig config_;
  std::function<void(std::uint64_t)> actuate_;
  State state_ = State::kIdle;
  Stats stats_;
};

/// The control agent of step 1: arms the election and waits for an actuator
/// to claim the role.
class ControlAgent {
 public:
  ControlAgent(SpaceApi& api, FailoverConfig config)
      : api_(&api), config_(config) {}

  /// Writes the start tuple; completes when some actuator has taken it
  /// (polls at tick cadence, as the paper's "waits to start the control
  /// loop until the tuple is removed from space").
  sim::Task<bool> arm(sim::Time timeout);

 private:
  SpaceApi* api_;
  FailoverConfig config_;
};

// --- federation standby promotion (DESIGN.md §16) ----------------------------
//
// The actuator pattern, rewired for space nodes: a primary node keeps a
// leased ("fed-heartbeat", node_id) tuple alive in the control space; the
// StandbyGuard consumes the beats and, when a grace window runs dry,
// invokes the promote callback (fed::SimCluster::kill_primary's second
// half: apply the frames the standby held back, republish the table one
// epoch up). The callback runs exactly once — after promotion the guard
// reports kActive and stops watching.

class StandbyGuard {
 public:
  enum class State : std::uint8_t {
    kIdle,       ///< not started
    kWatching,   ///< consuming primary heartbeats
    kPromoting,  ///< grace expired, promote callback running
    kActive,     ///< promotion done; this node is primary now
  };

  /// `promote` runs on the guard's coroutine when the primary is declared
  /// dead. `watched_node` selects whose heartbeats to consume.
  StandbyGuard(SpaceApi& api, std::uint32_t watched_node,
               FailoverConfig config, std::function<void()> promote);

  /// Spawns the watch loop.
  void start();

  State state() const { return state_; }

  struct Stats {
    std::uint64_t heartbeats_consumed = 0;
    std::uint64_t promotions = 0;  ///< 0 or 1
    sim::Time promoted_at;
  };
  const Stats& stats() const { return stats_; }

  /// The heartbeat the primary must keep alive (write each tick with
  /// FailoverConfig::heartbeat_lease).
  static space::Tuple heartbeat(std::uint32_t node_id);

  static const char* to_string(State state);

 private:
  sim::Task<void> run();

  SpaceApi* api_;
  std::uint32_t watched_node_;
  FailoverConfig config_;
  std::function<void()> promote_;
  State state_ = State::kIdle;
  Stats stats_;
};

}  // namespace tb::svc
