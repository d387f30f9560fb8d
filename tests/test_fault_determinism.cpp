// Determinism regression for the fault subsystem: a chaos run is a pure
// function of its seeds. The whole point of seed-driven injection is the
// one-line bug report ("seed 0xBAD1 violates invariant X"), which only
// holds if the same seed reproduces the same run byte for byte — checked
// here on the actual replay artifact, the trace file.
//
// The same scenarios also pin the kernel's lookahead (DESIGN.md §8): a run
// driven through run_until(), which advances delays in place, must match a
// run driven one step() at a time, which never does.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/cosim/scenario.hpp"
#include "src/net/trace.hpp"
#include "src/sim/process.hpp"

namespace tb {
namespace {

using namespace tb::sim::literals;

/// How the scenario's simulated time is driven.
enum class Drive {
  kRunUntil,  ///< Simulator::run_until: delays may advance in place
  kStep,      ///< one Simulator::step() per event: every delay is an event
};

/// Runs every event at or before `until` through step(), then moves the
/// clock to `until` as run_until() does.
void step_until(sim::Simulator& sim, sim::Time until) {
  while (const std::optional<sim::Time> next = sim.next_event_time()) {
    if (*next > until) break;
    sim.step();
  }
  sim.run_until(until);  // nothing is due by `until`: only sets the clock
}

/// Order-sensitive digest of a sequence of 64-bit values.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  std::uint64_t count = 0;
  void add(std::uint64_t v) {
    value = (value ^ v) * 0x100000001b3ull;
    ++count;
  }
};

struct ChaosRun {
  std::string trace;
  std::uint64_t executed_events = 0;
  std::uint64_t advanced_events = 0;
  std::uint64_t bits_flipped = 0;
  int completed = 0;
  Digest perturbations;  ///< every delay-perturbation hook call, in order
  std::uint64_t rng_after = 0;  ///< next draw of the root RNG at the end
};

ChaosRun run_chaos(std::uint64_t fault_seed, const std::string& trace_path,
                   Drive drive = Drive::kRunUntil) {
  cosim::ScenarioConfig config;
  config.link.bit_rate_hz = 500'000;
  config.relay.poll_period = sim::Time::ms(1);
  config.use_xml_codec = false;
  config.fault.seed = fault_seed;
  config.fault.bit_error_rate = 2e-4;
  config.fault.crashes.push_back({.slave_index = 3,
                                  .crash_at = sim::Time::sec(3),
                                  .restart_at = sim::Time::sec(4)});
  config.fault.delay_spikes = {.period = 2_s, .width = 50_ms, .extra = 2_ms};
  config.checker.op_deadline_factor = 20.0;
  cosim::WireScenario scenario(config);

  net::Tracer tracer(scenario.sim());
  tracer.attach(scenario.bus());

  mw::ClientConfig client_config;
  client_config.rpc_timeout = 5_s;
  client_config.rpc_retries = 8;
  mw::SpaceClient& client = scenario.add_client(0, client_config);
  scenario.start();

  ChaosRun out;
  // The plan's own perturbation, recorded on the way through.
  fault::FaultPlan& plan = scenario.fault_plan();
  scenario.sim().set_delay_perturbation(
      [&plan, &out](sim::Time now, sim::Time delay) {
        const sim::Time perturbed = plan.perturb_delay(now, delay);
        out.perturbations.add(static_cast<std::uint64_t>(now.count_ns()));
        out.perturbations.add(static_cast<std::uint64_t>(delay.count_ns()));
        out.perturbations.add(static_cast<std::uint64_t>(perturbed.count_ns()));
        return perturbed;
      });
  sim::spawn([&]() -> sim::Task<void> {
    for (int round = 0; round < 10; ++round) {
      auto wr = co_await client.write(
          space::make_tuple("d", std::int64_t{round}), 60_s);
      EXPECT_TRUE(wr.ok);
      space::Template tmpl(
          std::string("d"),
          {space::FieldPattern::exact(space::Value(std::int64_t{round}))});
      auto taken = co_await client.take(std::move(tmpl), 30_s);
      if (taken.has_value()) ++out.completed;
      co_await sim::delay(scenario.sim(), 500_ms);
    }
  });
  if (drive == Drive::kRunUntil) {
    scenario.sim().run_until(sim::Time::sec(120));
    scenario.shutdown();
  } else {
    step_until(scenario.sim(), sim::Time::sec(120));
    // WireScenario::shutdown(), stepped.
    scenario.relay().stop();
    step_until(scenario.sim(), scenario.sim().now() + sim::Time::sec(5));
  }

  scenario.checker().finish();
  EXPECT_TRUE(scenario.checker().ok()) << scenario.checker().report();
  EXPECT_TRUE(tracer.write_file(trace_path));
  out.trace = tracer.dump();
  out.executed_events = scenario.sim().executed_events();
  out.advanced_events = scenario.sim().advanced_events();
  out.bits_flipped = scenario.fault_plan().stats().bits_flipped;
  util::Xoshiro256 rng = scenario.sim().rng();
  out.rng_after = rng.next_u64();
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FaultDeterminism, SameSeedByteIdenticalTraceDifferentSeedDiverges) {
  const std::string dir = ::testing::TempDir();
  const ChaosRun first = run_chaos(0xBEEF, dir + "chaos_a.tr");
  const ChaosRun second = run_chaos(0xBEEF, dir + "chaos_b.tr");
  const ChaosRun other = run_chaos(0xF00D, dir + "chaos_c.tr");

  // The runs did something nontrivial and the faults actually fired.
  EXPECT_EQ(first.completed, 10);
  EXPECT_GT(first.bits_flipped, 0u);
  EXPECT_GT(first.trace.size(), 10'000u);

  // Same seed: the replay artifact is byte-identical, on disk and in memory.
  const std::string file_a = slurp(dir + "chaos_a.tr");
  const std::string file_b = slurp(dir + "chaos_b.tr");
  EXPECT_FALSE(file_a.empty());
  EXPECT_EQ(file_a, file_b);
  EXPECT_EQ(file_a, first.trace);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.bits_flipped, second.bits_flipped);

  // Different fault seed: a genuinely different run, not a reformatted one.
  EXPECT_NE(first.trace, other.trace);
}

TEST(FaultDeterminism, LookaheadMatchesSteppedRunForEveryChaosSeed) {
  const std::string dir = ::testing::TempDir();
  for (const std::uint64_t seed : {0xBEEFull, 0xF00Dull}) {
    SCOPED_TRACE(seed);
    const ChaosRun ahead = run_chaos(seed, dir + "ahead.tr", Drive::kRunUntil);
    const ChaosRun stepped = run_chaos(seed, dir + "stepped.tr", Drive::kStep);

    EXPECT_GT(ahead.advanced_events, 0u);  // the lookahead did engage
    EXPECT_EQ(stepped.advanced_events, 0u);
    EXPECT_EQ(slurp(dir + "ahead.tr"), slurp(dir + "stepped.tr"));
    EXPECT_EQ(ahead.trace, stepped.trace);
    EXPECT_EQ(ahead.bits_flipped, stepped.bits_flipped);
    EXPECT_EQ(ahead.completed, stepped.completed);
    EXPECT_GT(ahead.perturbations.count, 0u);
    EXPECT_EQ(ahead.perturbations.count, stepped.perturbations.count);
    EXPECT_EQ(ahead.perturbations.value, stepped.perturbations.value);
    EXPECT_EQ(ahead.rng_after, stepped.rng_after);
    // Every delay is either an event or an advance.
    EXPECT_EQ(ahead.executed_events + ahead.advanced_events,
              stepped.executed_events);
  }
}

}  // namespace
}  // namespace tb
