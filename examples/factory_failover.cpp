// Redundant actuators with tuplespace failover (paper §2.1, Figure 1).
//
// Three actuator replicas race for the role; the control agent arms the
// election; we then kill the operating actuator twice and watch the backups
// recover the control loop, narrating each transition.
//
//   ./factory_failover
#include <cstdio>

#include "src/sim/process.hpp"
#include "src/svc/failover.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

void report(const char* when, const std::vector<svc::ActuatorAgent*>& agents,
            sim::Simulator& sim) {
  std::printf("[t=%7s] %s:", sim.now().to_string().c_str(), when);
  for (const svc::ActuatorAgent* agent : agents) {
    std::printf("  %s=%s", agent->id().c_str(),
                svc::ActuatorAgent::to_string(agent->state()));
  }
  std::printf("\n");
}

svc::ActuatorAgent* operating_one(const std::vector<svc::ActuatorAgent*>& agents) {
  for (svc::ActuatorAgent* agent : agents) {
    if (agent->state() == svc::ActuatorAgent::State::kOperating) return agent;
  }
  return nullptr;
}

}  // namespace

int main() {
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  svc::LocalSpaceApi api(space);

  svc::FailoverConfig config;
  config.role = "conveyor-actuator";
  config.tick = 100_ms;
  config.grace = 800_ms;  // two backups round-robin the heartbeats

  svc::ActuatorAgent a(api, "act-A", 0, config,
                       [](std::uint64_t) { /* drive the conveyor */ });
  svc::ActuatorAgent b(api, "act-B", 1, config);
  svc::ActuatorAgent c(api, "act-C", 2, config);
  std::vector<svc::ActuatorAgent*> agents = {&a, &b, &c};

  a.start();
  b.start();
  c.start();

  // Step 1: the control agent puts the start tuple into the space and waits
  // for an actuator to claim it.
  svc::ControlAgent control(api, config);
  sim::spawn([&]() -> sim::Task<void> {
    const bool armed = co_await control.arm(5_s);
    std::printf("[t=%7s] control agent: role %s\n",
                sim.now().to_string().c_str(),
                armed ? "claimed - control loop started" : "NOT claimed");
  });

  sim.run_until(3_s);
  report("after election", agents, sim);

  for (int round = 1; round <= 2; ++round) {
    svc::ActuatorAgent* victim = operating_one(agents);
    if (victim == nullptr) break;
    const sim::Time failed_at = sim.now();
    std::printf("[t=%7s] !!! injecting failure into %s\n",
                sim.now().to_string().c_str(), victim->id().c_str());
    victim->fail();

    sim.run_until(sim.now() + 10_s);
    report("after recovery", agents, sim);
    svc::ActuatorAgent* successor = operating_one(agents);
    if (successor != nullptr) {
      std::printf("[t=%7s] %s took over %.2f s after the failure "
                  "(%llu heartbeats consumed as backup)\n",
                  sim.now().to_string().c_str(), successor->id().c_str(),
                  (successor->stats().became_operating_at - failed_at).seconds(),
                  static_cast<unsigned long long>(
                      successor->stats().heartbeats_consumed));
    }
  }

  std::printf("\nper-agent summary:\n");
  for (const svc::ActuatorAgent* agent : agents) {
    std::printf("  %s: state=%s ticks=%llu takeovers=%llu\n",
                agent->id().c_str(),
                svc::ActuatorAgent::to_string(agent->state()),
                static_cast<unsigned long long>(agent->stats().ticks_operated),
                static_cast<unsigned long long>(agent->stats().takeovers));
  }
  return 0;
}
