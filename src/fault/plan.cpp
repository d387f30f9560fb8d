#include "src/fault/plan.hpp"

#include "src/util/assert.hpp"
#include "src/wire/frame.hpp"

namespace tb::fault {

bool FaultPlanConfig::active() const {
  return bit_error_rate > 0.0 || !crashes.empty() || !stuck_interrupts.empty() ||
         delay_spikes.period > sim::Time::zero() || clock_drift != 0.0;
}

FaultPlan::FaultPlan(FaultPlanConfig config)
    : config_(config),
      word_rng_(util::Xoshiro256(config.seed).fork(0x776F7264)) {  // "word"
  TB_REQUIRE(config.bit_error_rate >= 0.0 && config.bit_error_rate < 1.0);
  TB_REQUIRE(config.clock_drift > -1.0);
  for (const SlaveCrashSpec& crash : config.crashes) {
    TB_REQUIRE(crash.crash_at >= sim::Time::zero());
  }
}

std::uint16_t FaultPlan::perturb_word(std::uint16_t word, bool rx) {
  if (config_.bit_error_rate <= 0.0) return word;
  const std::uint16_t original = word;
  for (int bit = 0; bit < wire::kFrameBits; ++bit) {
    if (word_rng_.bernoulli(config_.bit_error_rate)) {
      word ^= static_cast<std::uint16_t>(1u << bit);
      ++stats_.bits_flipped;
    }
  }
  if (word != original) {
    if (rx) {
      ++stats_.rx_words_corrupted;
    } else {
      ++stats_.tx_words_corrupted;
    }
  }
  return word;
}

sim::Time FaultPlan::perturb_delay(sim::Time now, sim::Time delay) const {
  // Leave "effectively forever" timers alone: scaling them through doubles
  // would overflow the int64 nanosecond representation.
  if (delay > sim::Time::sec(3'600) * 24 * 365) return delay;
  if (config_.clock_drift != 0.0) {
    delay = delay.scaled(1.0 + config_.clock_drift);
  }
  const DelaySpikeSpec& spikes = config_.delay_spikes;
  if (spikes.period > sim::Time::zero()) {
    const sim::Time phase =
        sim::Time::ns(now.count_ns() % spikes.period.count_ns());
    if (phase < spikes.width) delay += spikes.extra;
  }
  return delay;
}

}  // namespace tb::fault
