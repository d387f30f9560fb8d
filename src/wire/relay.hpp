// Master relay: the polling/store-and-forward application on the master.
//
// The TpWIRE topology is strictly master/slave, so the master runs a relay
// loop that makes slave-to-slave communication possible:
//
//   round-robin over slaves:
//     probe (1 frame; a SELECT/PING status reply carries the INT flag)
//     if the slave has a pending interrupt:
//       read its outbox depth, drain up to max_drain_per_visit bytes,
//       parse relay segments, push each to its destination slave's inbox
//   sleep poll_period when a full round moved nothing.
//
// Every relayed byte costs multiple communication cycles (probe + address
// setup + port reads + port writes) — this protocol overhead is precisely
// the "impact of the tuplespace middleware on the bus" that the paper's
// Table 4 quantifies, and why a 1 B/s CBR flow can starve a space operation.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/process.hpp"
#include "src/wire/master.hpp"
#include "src/wire/segment.hpp"

namespace tb::wire {

struct RelayConfig {
  /// Idle wait after a round in which no slave had traffic.
  ///
  /// CONSTRAINT: must stay well below the slave reset timeout (2048 bit
  /// periods at the programmed bus speed) — a slave that sees no valid
  /// frame for that long resets itself and wipes its mailboxes. On a fast
  /// clock (1 Mbit/s -> ~2 ms watchdog) the master has to poll almost
  /// continuously; this is a real cost of the TpWIRE protocol that the
  /// impact experiments account for.
  sim::Time poll_period = sim::Time::ms(50);

  /// Byte budget per slave visit; bounds head-of-line blocking.
  std::size_t max_drain_per_visit = 64;

  /// Sanity bound handed to each per-node segment parser. A lost mailbox
  /// byte can mis-frame the drained stream so a payload byte poses as a
  /// segment header; without a bound its garbage 16-bit length field lets
  /// the ghost swallow up to 64 KiB of good segments before the CRC
  /// exposes it. Deployments whose producers are all small-segment
  /// (transport fragments, CBR packets) should tighten this further.
  std::size_t max_segment_payload = 1'024;
};

/// Totals of one relay's work, summed over every bus it serves.
struct RelayStats {
  std::uint64_t rounds = 0;
  std::uint64_t probes = 0;
  std::uint64_t bytes_drained = 0;
  std::uint64_t segments_forwarded = 0;
  std::uint64_t segments_dropped = 0;  ///< unknown destination or push failure
  std::uint64_t crc_failures = 0;      ///< corrupted segments (parser total)
};

/// The poll round both relays run. For each node in turn: probe it; when it
/// raised INT, drain up to max_drain_per_visit bytes of its outbox (an empty
/// drain clears the interrupt instead, so the loop does not spin on the
/// node); feed the bytes to the node's own SegmentParser, capped at
/// max_segment_payload; and await `forward` on each completed segment
/// before the next probe. Forwarding is the relay's own business.
class RelayPoller {
 public:
  using Forward = std::function<sim::Task<void>(const RelaySegment&)>;

  RelayPoller(const RelayConfig& config, Forward forward)
      : config_(config), forward_(std::move(forward)) {}

  /// One round over `nodes`, all on `master`'s bus; stops before the next
  /// probe once `running` is false. True when any node yielded bytes.
  sim::Task<bool> round(Master& master, const std::vector<std::uint8_t>& nodes,
                        const bool& running);

  RelayStats& stats() { return stats_; }
  const RelayStats& stats() const { return stats_; }

 private:
  sim::Task<bool> drain(Master& master, std::uint8_t node);

  RelayConfig config_;
  Forward forward_;
  std::unordered_map<std::uint8_t, SegmentParser> parsers_;
  RelayStats stats_;
};

class MasterRelay {
 public:
  /// `nodes` lists the slave node ids to serve, in polling order.
  MasterRelay(Master& master, std::vector<std::uint8_t> nodes,
              RelayConfig config = {});

  /// Spawns the relay process. Runs until stop().
  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  const RelayStats& stats() const { return poller_.stats(); }

 private:
  sim::Task<void> run();
  sim::Task<void> forward(const RelaySegment& segment);

  Master* master_;
  std::vector<std::uint8_t> nodes_;
  RelayConfig config_;
  bool running_ = false;
  RelayPoller poller_;
};

}  // namespace tb::wire
