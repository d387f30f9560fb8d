// Installs a FaultPlan onto live simulation components.
//
// The injector is glue only: it owns no policy (the plan decides every
// fault) and no model state (the hook points live in the components). It
// schedules the time-triggered faults (crashes, restarts, stuck-INT
// windows) as ordinary simulator events and wires the probabilistic
// channels into the component hooks, so an existing scenario becomes a
// chaos scenario without forking any model code.
#pragma once

#include <span>

#include "src/fault/plan.hpp"
#include "src/sim/simulator.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/slave.hpp"

namespace tb::fault {

class FaultInjector {
 public:
  /// The plan must outlive the injector; the injector must outlive the
  /// components it was installed on (its hooks capture `plan`).
  explicit FaultInjector(FaultPlan& plan) : plan_(&plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Wires the TpWIRE channels: word corruption on the bus, crash/restart
  /// and stuck-INT schedules on the slaves, clock perturbation on the
  /// simulator. Slave indices in the plan refer to positions in `slaves`.
  void install(sim::Simulator& sim, wire::BusModel& bus,
               std::span<wire::SlaveDevice* const> slaves);

  const FaultPlan& plan() const { return *plan_; }

 private:
  FaultPlan* plan_;
};

}  // namespace tb::fault
