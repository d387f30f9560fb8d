#include "src/wire/bus_model.hpp"

#include "src/util/assert.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/frame_bus.hpp"

namespace tb::wire {

const char* to_string(BusModelLevel level) {
  switch (level) {
    case BusModelLevel::kBitAccurate: return "bit-accurate";
    case BusModelLevel::kFrameLevel: return "frame-level";
    case BusModelLevel::kAnalytic: return "analytic";
  }
  return "?";
}

const char* to_string(CycleResult::Status status) {
  switch (status) {
    case CycleResult::Status::kOk: return "ok";
    case CycleResult::Status::kTimeout: return "timeout";
    case CycleResult::Status::kCrcError: return "crc-error";
  }
  return "?";
}

BusModel::Timing::Timing(const LinkConfig& link)
    : frame(link.frame_duration()),
      hop(link.hop_delay()),
      response(link.response_delay()),
      rx_timeout(link.rx_timeout()),
      interframe_gap(link.interframe_gap()),
      broadcast_gap(link.broadcast_gap()),
      reset_timeout(link.reset_timeout()) {}

BusModel::BusModel(sim::Simulator& sim, LinkConfig link, FaultConfig faults)
    : sim_(&sim),
      link_(link),
      timing_(link_),
      faults_(faults),
      rng_(sim.rng().fork(0x6275)) {
  TB_REQUIRE(link.bit_rate_hz > 0);
  TB_REQUIRE(link.wires >= 1);
}

int BusModel::attach(SlaveDevice& slave) {
  for (const SlaveDevice* existing : chain_) {
    TB_REQUIRE_MSG(existing->node_id() != slave.node_id(),
                   "duplicate node id on the bus");
  }
  chain_.push_back(&slave);
  return static_cast<int>(chain_.size()) - 1;
}

std::uint16_t BusModel::maybe_corrupt(std::uint16_t word, double prob, bool rx,
                                      std::uint64_t& counter) {
  const std::uint16_t original = word;
  if (prob > 0.0 && rng_.bernoulli(prob)) {
    const int bit = static_cast<int>(rng_.uniform(0, kFrameBits - 1));
    word ^= static_cast<std::uint16_t>(1u << bit);
  }
  if (word_fault_) word = word_fault_(word, rx);
  if (word != original) ++counter;
  return word;
}

double BusModel::utilization() const {
  const double elapsed = sim_->now().seconds();
  if (elapsed <= 0.0) return 0.0;
  return stats_.busy_time.seconds() / elapsed;
}

std::unique_ptr<BusModel> make_bus_model(BusModelLevel level,
                                         sim::Simulator& sim, LinkConfig link,
                                         FaultConfig faults) {
  switch (level) {
    case BusModelLevel::kBitAccurate:
      return std::make_unique<OneWireBus>(sim, link, faults);
    case BusModelLevel::kFrameLevel:
      return std::make_unique<FrameLevelBus>(sim, link, faults);
    case BusModelLevel::kAnalytic:
      break;
  }
  TB_REQUIRE_MSG(false, "the analytic level has no event-driven bus model");
  return nullptr;
}

}  // namespace tb::wire
