// Closed-form TpWIRE timing model.
//
// Serves two roles:
//  1. Oracle for unit tests: the event-driven bus must agree with the
//     closed form bit-for-bit when no faults are injected.
//  2. Stand-in for the physical TpICU/SCM measurements of Table 3. The real
//     controller spends extra per-cycle firmware time that a pure protocol
//     model does not see; `controller_overhead_bits` captures it, and the
//     validation harness (src/cosim/validation.hpp) derives the resulting
//     scaling factor exactly as the paper does against hardware.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"
#include "src/wire/config.hpp"
#include "src/wire/segment.hpp"

namespace tb::wire {

class AnalyticTiming {
 public:
  /// `controller_overhead_bits`: additional per-cycle cost, in bit periods,
  /// modelling the target controller's firmware overhead (0 = ideal model).
  explicit AnalyticTiming(LinkConfig link, double controller_overhead_bits = 0.0)
      : link_(link), overhead_bits_(controller_overhead_bits) {}

  /// One full communication cycle with a reply, for a slave at the given
  /// daisy-chain position (0 = nearest the master):
  /// TX frame + inbound hops + turnaround + RX frame + outbound hops + gap.
  sim::Time reply_cycle(int chain_pos) const {
    return link_.frame_duration() + link_.hop_delay() * (chain_pos + 1) +
           link_.response_delay() + link_.frame_duration() +
           link_.hop_delay() * (chain_pos + 1) + link_.interframe_gap() +
           overhead();
  }

  /// Cycle that ends in an RX timeout (no responder).
  sim::Time timeout_cycle() const {
    return link_.frame_duration() + link_.rx_timeout() + link_.interframe_gap() +
           overhead();
  }

  /// Time to run `frames` back-to-back reply cycles (the Table 3 workload:
  /// a CBR source pushing 1-byte packets through the model).
  sim::Time frames(std::uint64_t count, int chain_pos) const {
    return reply_cycle(chain_pos) * static_cast<std::int64_t>(count);
  }

  const LinkConfig& link() const { return link_; }
  double controller_overhead_bits() const { return overhead_bits_; }

 private:
  sim::Time overhead() const { return link_.bits(overhead_bits_); }

  LinkConfig link_;
  double overhead_bits_;
};

/// Closed-form timing of the master-relay mailbox path across one or more
/// bus segments — the analytic bus-model level for relay topologies
/// (DESIGN.md §13). AnalyticTiming prices a single communication cycle at
/// one daisy-chain position; this composes those cycles into the frame
/// sequences MasterRelay / MultiBusRelay actually issue when they shuttle a
/// framed segment (src/wire/segment.hpp) from a source outbox to a
/// destination inbox, possibly through intermediate relay gateways:
///
///   drain stage:  probe ping + SELECT(system) + [2×WRITE_ADDR cold] +
///                 W×READ_DATA pops + 1 terminal NAK pop     (W wire bytes)
///   push stage:   [SELECT(system)] + [2×WRITE_ADDR cold] + W×WRITE_DATA
///
/// Every frame is a full reply cycle at the stage node's chain position.
/// Steady-state visits skip the WRITE_ADDR pair (the master caches the
/// address pointer) and pushes re-SELECT only when the poll loop probed
/// another node in between (`reselect` knob). What the closed form cannot
/// price is the poll-phase detection jitter — a drain starts at most
/// poll_period after the segment lands in the outbox — so latency queries
/// come as [best_case, worst_case] bounds; the per-byte marginal cost,
/// however, is exact and the unit tests pin it against the bit-accurate
/// MultiBus relay path.
class AnalyticRelayTiming {
 public:
  struct Stage {
    enum class Kind : std::uint8_t {
      kDrain,  ///< master pops the node's outbox (source / gateway exit)
      kPush,   ///< master fills the node's inbox (gateway entry / destination)
    };
    Kind kind = Kind::kPush;
    LinkConfig link;     ///< segment the stage's bus cycles run on
    int chain_pos = 0;   ///< daisy-chain position of the stage node
    bool cold_caches = false;  ///< first-ever visit: address-pointer setup
    bool reselect = true;      ///< poll loop flipped the selection in between
  };

  explicit AnalyticRelayTiming(std::vector<Stage> stages)
      : stages_(std::move(stages)) {}

  /// Two-stage path of MasterRelay on one bus / MultiBusRelay across two:
  /// drain the source at `src_pos`, push the destination at `dst_pos`.
  static AnalyticRelayTiming point_to_point(const LinkConfig& link,
                                            int src_pos, int dst_pos,
                                            bool cold_caches = false) {
    return AnalyticRelayTiming(
        {Stage{Stage::Kind::kDrain, link, src_pos, cold_caches, true},
         Stage{Stage::Kind::kPush, link, dst_pos, cold_caches, true}});
  }

  /// Daisy of `segment_count` identical segments bridged by relay gateways:
  /// drain the source, then per boundary push into + drain out of the
  /// gateway, finally push the destination. Every stage node sits at
  /// `chain_pos` of its own segment.
  static AnalyticRelayTiming chained(const LinkConfig& link,
                                     int segment_count, int chain_pos) {
    std::vector<Stage> stages;
    stages.push_back(Stage{Stage::Kind::kDrain, link, chain_pos, false, true});
    for (int boundary = 1; boundary < segment_count; ++boundary) {
      stages.push_back(Stage{Stage::Kind::kPush, link, chain_pos, false, true});
      if (boundary < segment_count - 1) {
        stages.push_back(
            Stage{Stage::Kind::kDrain, link, chain_pos, false, true});
      }
    }
    return AnalyticRelayTiming(std::move(stages));
  }

  /// Bus cycles a stage spends moving a W-byte wire segment (probe included
  /// for drain stages — the poll ping is what detects the pending outbox).
  static std::uint64_t stage_cycles(const Stage& stage,
                                    std::size_t wire_bytes) {
    std::uint64_t cycles = wire_bytes;
    if (stage.kind == Stage::Kind::kDrain) {
      cycles += 1;  // probe ping
      cycles += 1;  // SELECT of the system address after the probe
      cycles += 1;  // terminal NAK pop that ends the drain
    } else if (stage.reselect) {
      cycles += 1;  // SELECT of the system address
    }
    if (stage.cold_caches) cycles += 2;  // WRITE_ADDR pair
    return cycles;
  }

  sim::Time stage_time(const Stage& stage, std::size_t wire_bytes) const {
    const AnalyticTiming cycle(stage.link);
    return cycle.reply_cycle(stage.chain_pos) *
           static_cast<std::int64_t>(stage_cycles(stage, wire_bytes));
  }

  /// End-to-end transfer time of one segment carrying `payload_bytes`,
  /// poll-phase detection excluded (see worst_case_latency).
  sim::Time transfer_time(std::size_t payload_bytes) const {
    const std::size_t wire = segment_wire_size(payload_bytes);
    sim::Time total = sim::Time::zero();
    for (const Stage& stage : stages_) total += stage_time(stage, wire);
    return total;
  }

  /// Marginal cost of one extra payload byte end-to-end: every stage moves
  /// it in exactly one additional reply cycle. Exact — no poll-phase or
  /// cache terms — so the cross-model tests assert equality on it.
  sim::Time per_byte_cost() const {
    sim::Time total = sim::Time::zero();
    for (const Stage& stage : stages_) {
      total += AnalyticTiming(stage.link).reply_cycle(stage.chain_pos);
    }
    return total;
  }

  /// Latency bounds: best case the relay probes the moment the segment
  /// lands; worst case each drain stage waits out a full idle poll sleep
  /// first.
  sim::Time best_case_latency(std::size_t payload_bytes) const {
    return transfer_time(payload_bytes);
  }
  sim::Time worst_case_latency(std::size_t payload_bytes,
                               sim::Time poll_period) const {
    sim::Time total = transfer_time(payload_bytes);
    for (const Stage& stage : stages_) {
      if (stage.kind == Stage::Kind::kDrain) total += poll_period;
    }
    return total;
  }

  /// Steady-state payload throughput of a pipelined stream of segments:
  /// stages on distinct buses overlap, so the slowest stage is the
  /// bottleneck (a single-bus relay serializes both stages — pass
  /// `pipelined=false`).
  double throughput_bps(std::size_t payload_bytes, bool pipelined) const {
    sim::Time limit = sim::Time::zero();
    const std::size_t wire = segment_wire_size(payload_bytes);
    for (const Stage& stage : stages_) {
      const sim::Time t = stage_time(stage, wire);
      limit = pipelined ? std::max(limit, t) : limit + t;
    }
    if (limit <= sim::Time::zero()) return 0.0;
    return static_cast<double>(payload_bytes) / limit.seconds();
  }

  const std::vector<Stage>& stages() const { return stages_; }
  int stage_count() const { return static_cast<int>(stages_.size()); }

 private:
  std::vector<Stage> stages_;
};

}  // namespace tb::wire
