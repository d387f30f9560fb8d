// Switchable TpWIRE bus-model abstraction levels (TLM-style, DESIGN.md §13).
//
// The paper derives a scaling factor between two independent timing models
// of the same protocol; Klingauf's systematic-TLM playbook generalizes that
// into a performance lever: keep the bit-accurate event model as ground
// truth and add faster abstraction levels that are cross-validated against
// it. BusModel is the common interface the Master (and everything riding
// its signals — fault injection, invariant checkers, tracers, metrics)
// drives, so a scenario picks its level without touching the layers above:
//
//   kBitAccurate — OneWireBus (src/wire/bus.hpp): one delay per hop (the
//     kernel advances in place when nothing lies between), every slave
//     observes every word. Ground truth.
//   kFrameLevel  — FrameLevelBus (src/wire/frame_bus.hpp): one delay per
//     communication cycle; hop/turnaround/RX times are computed in
//     closed form from LinkConfig and only the responding slave is touched.
//     Cycle-boundary timings, traces, stats and RNG draws are identical to
//     kBitAccurate (bit-for-bit in the fault-free case; fault runs agree on
//     retry counts).
//   kAnalytic    — no bus object at all: pure closed form on
//     wire::AnalyticTiming / AnalyticRelayTiming. make_bus_model() rejects
//     it; scenarios must route analytic runs through the timing classes
//     (ScenarioConfig::validate() enforces this with a typed error).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/sim/process.hpp"
#include "src/sim/signal.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/rng.hpp"
#include "src/wire/config.hpp"
#include "src/wire/frame.hpp"
#include "src/wire/slave.hpp"

namespace tb::wire {

/// Abstraction level of the bus timing model (DESIGN.md §13).
enum class BusModelLevel : std::uint8_t {
  kBitAccurate = 0,  ///< delay per hop; ground truth
  kFrameLevel = 1,   ///< delay per communication cycle
  kAnalytic = 2,     ///< closed form only; no event model exists
};

const char* to_string(BusModelLevel level);

/// Parses the names to_string() emits ("bit-accurate", "frame-level",
/// "analytic"); nullopt on anything else.
std::optional<BusModelLevel> parse_bus_model_level(std::string_view name);

/// Outcome of one communication cycle as the master sees it.
struct CycleResult {
  enum class Status : std::uint8_t {
    kOk,        ///< valid RX received (or broadcast cycle completed)
    kTimeout,   ///< no RX within rx_timeout
    kCrcError,  ///< RX arrived but failed start-bit/CRC validation
  };
  Status status = Status::kTimeout;
  std::optional<RxFrame> rx;

  bool ok() const { return status == Status::kOk; }
};

const char* to_string(CycleResult::Status status);

/// One communication cycle as seen on the medium — the bus-level trace
/// record. `tx_word` / `rx_word` are the words as physically transmitted,
/// i.e. after any fault injection; invariant checkers re-validate CRCs from
/// them and tracers format them into replayable trace lines.
struct CycleTrace {
  sim::Time start;
  sim::Time end;
  std::uint16_t tx_word = 0;
  bool expect_reply = true;
  int responder = -1;           ///< chain position that answered, -1 = none
  bool rx_seen = false;         ///< an RX word reached the master in time
  std::uint16_t rx_word = 0;    ///< valid only when rx_seen
  CycleResult::Status status = CycleResult::Status::kTimeout;
};

/// Abstract bus medium: a daisy chain of slaves driven one communication
/// cycle at a time. Concrete subclasses differ only in how much of the
/// cycle they simulate with events; the observable contract (CycleResult,
/// CycleTrace, Stats, RNG draw order for fault injection) is identical, so
/// everything above the medium — Master, fault hooks, tracers, metrics —
/// binds to this interface.
class BusModel {
 public:
  BusModel(sim::Simulator& sim, LinkConfig link, FaultConfig faults);
  virtual ~BusModel() = default;

  BusModel(const BusModel&) = delete;
  BusModel& operator=(const BusModel&) = delete;

  virtual BusModelLevel level() const = 0;

  /// Appends a slave to the end of the daisy chain; returns its position.
  /// The slave must outlive the bus.
  virtual int attach(SlaveDevice& slave);

  std::size_t slave_count() const { return chain_.size(); }
  SlaveDevice& slave_at(std::size_t pos) { return *chain_.at(pos); }

  /// Runs one communication cycle. `expect_reply` is false for cycles under
  /// broadcast selection (and for the broadcast SELECT itself), where the
  /// master only waits out the broadcast gap. Callers must serialize cycles
  /// (the Master's mutex does); concurrent entry is a precondition error.
  virtual sim::Task<CycleResult> cycle(TxFrame frame, bool expect_reply) = 0;

  const LinkConfig& link() const { return link_; }
  sim::Simulator& simulator() { return *sim_; }

  /// True while a cycle occupies the medium.
  bool busy() const { return busy_; }

  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t ok = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t tx_corrupted = 0;
    std::uint64_t rx_corrupted = 0;
    sim::Time busy_time;  ///< total medium occupancy
  };
  const Stats& stats() const { return stats_; }

  /// Fraction of [0, now] the medium was occupied.
  double utilization() const;

  /// Deterministic word-level fault hook (tb::fault). Runs after the
  /// probabilistic FaultConfig corruption, on every word in both directions
  /// (`rx` says which); whatever it returns is what the receivers see.
  /// Corrupted words are counted in tx_corrupted / rx_corrupted.
  using WordFault = std::function<std::uint16_t(std::uint16_t word, bool rx)>;
  void set_word_fault(WordFault hook) { word_fault_ = std::move(hook); }

  /// Fires once per completed communication cycle, in cycle order.
  sim::Signal<const CycleTrace&>& on_cycle() { return on_cycle_; }

 protected:
  /// LinkConfig's derived times, computed once: link_ is fixed for the
  /// bus's lifetime and every cycle reads them.
  struct Timing {
    explicit Timing(const LinkConfig& link);
    sim::Time frame;
    sim::Time hop;
    sim::Time response;
    sim::Time rx_timeout;
    sim::Time interframe_gap;
    sim::Time broadcast_gap;
    sim::Time reset_timeout;
  };

  /// One probabilistic corruption draw plus the word-fault hook. Every
  /// level must make these draws for the same words in the same order so
  /// fault scenarios stay comparable across levels.
  std::uint16_t maybe_corrupt(std::uint16_t word, double prob, bool rx,
                              std::uint64_t& counter);

  sim::Simulator* sim_;
  LinkConfig link_;
  Timing timing_;
  FaultConfig faults_;
  util::Xoshiro256 rng_;
  std::vector<SlaveDevice*> chain_;
  bool busy_ = false;
  WordFault word_fault_;
  sim::Signal<const CycleTrace&> on_cycle_;
  Stats stats_;
};

/// Builds an event-driven bus at the requested level. kAnalytic has no
/// event model and is a precondition error here — callers must validate
/// first (ScenarioConfig::validate()) and route analytic runs through
/// AnalyticTiming instead.
std::unique_ptr<BusModel> make_bus_model(BusModelLevel level,
                                         sim::Simulator& sim, LinkConfig link,
                                         FaultConfig faults = {});

}  // namespace tb::wire
