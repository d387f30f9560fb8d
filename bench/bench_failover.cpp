// Figure 1 study: recovery latency of the redundant-actuator algorithm.
//
// The operating actuator dies; the backup notices the missing heartbeat
// after its grace window and takes over. Recovery latency is bounded by
// (staleness of the last heartbeat) + grace, so it scales with the tick and
// grace parameters — the table quantifies that trade-off, plus the
// steady-state heartbeat cost on the space.
#include <cstdio>

#include "src/cosim/report.hpp"
#include "src/obs/report.hpp"
#include "src/sim/process.hpp"
#include "src/svc/failover.hpp"
#include "src/util/strings.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

struct FailoverOutcome {
  double recovery_sec = -1.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t space_writes = 0;
};

FailoverOutcome run_failover(sim::Time tick, sim::Time grace) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  svc::LocalSpaceApi api(space);
  svc::FailoverConfig config;
  config.tick = tick;
  config.grace = grace;
  config.heartbeat_lease = grace * 2;

  svc::ActuatorAgent a(api, "A", 0, config);
  svc::ActuatorAgent b(api, "B", 1, config);
  svc::ControlAgent control(api, config);
  a.start();
  b.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(10_s); });
  sim.run_until(5_s);

  svc::ActuatorAgent& operating =
      a.state() == svc::ActuatorAgent::State::kOperating ? a : b;
  svc::ActuatorAgent& backup = (&operating == &a) ? b : a;

  const sim::Time failed_at = sim.now();
  operating.fail();
  sim.run_until(failed_at + grace * 20 + 10_s);

  FailoverOutcome outcome;
  if (backup.state() == svc::ActuatorAgent::State::kOperating) {
    outcome.recovery_sec =
        (backup.stats().became_operating_at - failed_at).seconds();
  }
  outcome.heartbeats = backup.stats().heartbeats_consumed;
  outcome.space_writes = space.stats().writes;
  return outcome;
}

}  // namespace

int main() {
  const bool short_mode = obs::bench_short_mode();
  obs::BenchReport bench("failover");
  std::printf("Redundant-actuator failover (paper Fig. 1): recovery latency "
              "vs heartbeat parameters\n\n");
  cosim::TablePrinter table({"tick", "grace", "recovery", "hb consumed",
                             "space writes"});
  struct Case { sim::Time tick, grace; };
  const std::vector<Case> cases =
      short_mode ? std::vector<Case>{Case{50_ms, 150_ms}, Case{200_ms, 600_ms}}
                 : std::vector<Case>{Case{20_ms, 60_ms}, Case{50_ms, 150_ms},
                                     Case{100_ms, 300_ms}, Case{200_ms, 600_ms},
                                     Case{500_ms, 1500_ms}};
  int failures = 0;
  for (const Case c : cases) {
    const FailoverOutcome outcome = run_failover(c.tick, c.grace);
    table.add_row({c.tick.to_string(), c.grace.to_string(),
                   outcome.recovery_sec < 0
                       ? "FAILED"
                       : util::format_seconds(outcome.recovery_sec),
                   std::to_string(outcome.heartbeats),
                   std::to_string(outcome.space_writes)});
    if (outcome.recovery_sec < 0) ++failures;
    if (c.tick == 50_ms) {
      bench.add_key_metric("tick50ms.recovery_s",
                           outcome.recovery_sec < 0 ? 1e9
                                                    : outcome.recovery_sec,
                           obs::Better::kLower, {.unit = "s"});
    }
  }
  std::printf("%s\n", table.render().c_str());
  bench.add_table("recovery", table.headers(), table.rows());
  bench.add_key_metric("failed_takeovers", static_cast<double>(failures),
                       obs::Better::kLower,
                       {.unit = "count", .tolerance_pct = 0.0});
  std::printf("recovery is bounded by heartbeat staleness + grace; shorter "
              "ticks buy faster recovery at the price of space traffic — on "
              "a TpWIRE deployment that traffic is Table 4's bus load.\n");
  std::printf("bench report: %s\n", bench.write().c_str());
  return 0;
}
