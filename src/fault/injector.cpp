#include "src/fault/injector.hpp"

#include "src/util/assert.hpp"

namespace tb::fault {

void FaultInjector::install(sim::Simulator& sim, wire::BusModel& bus,
                            std::span<wire::SlaveDevice* const> slaves) {
  const FaultPlanConfig& config = plan_->config();

  if (config.bit_error_rate > 0.0) {
    bus.set_word_fault([plan = plan_](std::uint16_t word, bool rx) {
      return plan->perturb_word(word, rx);
    });
  }

  for (const SlaveCrashSpec& crash : config.crashes) {
    TB_REQUIRE(crash.slave_index >= 0 &&
               static_cast<std::size_t>(crash.slave_index) < slaves.size());
    wire::SlaveDevice* slave = slaves[crash.slave_index];
    sim.schedule_at(crash.crash_at, [slave] { slave->kill(); });
    if (crash.restart_at > crash.crash_at) {
      sim.schedule_at(crash.restart_at, [slave] { slave->restart(); });
    }
  }

  for (const StuckInterruptSpec& stuck : config.stuck_interrupts) {
    TB_REQUIRE(stuck.slave_index >= 0 &&
               static_cast<std::size_t>(stuck.slave_index) < slaves.size());
    wire::SlaveDevice* slave = slaves[stuck.slave_index];
    sim.schedule_at(stuck.from, [slave] { slave->set_stuck_interrupt(true); });
    if (stuck.until < sim::Time::max()) {
      TB_REQUIRE(stuck.until > stuck.from);
      sim.schedule_at(stuck.until,
                      [slave] { slave->set_stuck_interrupt(false); });
    }
  }

  if (config.clock_drift != 0.0 ||
      config.delay_spikes.period > sim::Time::zero()) {
    sim.set_delay_perturbation([plan = plan_](sim::Time now, sim::Time delay) {
      return plan->perturb_delay(now, delay);
    });
  }
}

}  // namespace tb::fault
