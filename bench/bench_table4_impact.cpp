// Regenerates the paper's Table 4: "Estimation of the impact of tuplespace
// communication middleware on TpWIRE. Lease Time = 160s."
//
// Figure 7 topology: C++ client on Slave1 writes an entry into the space
// server on Slave3 and takes it back, while a CBR source on Slave2 loads
// the bus toward Slave4. Cells report write+take middleware time; "Out of
// Time" when the entry's lease expired before the take reached the server.
#include <cstdio>

#include "src/cosim/impact.hpp"
#include "src/cosim/report.hpp"
#include "src/obs/report.hpp"
#include "src/par/sweep.hpp"
#include "src/util/strings.hpp"

using namespace tb;

int main() {
  const bool short_mode = obs::bench_short_mode();
  obs::BenchReport bench("table4_impact");
  bench.add_param("lease_time_s", obs::JsonValue(std::int64_t{160}));
  std::printf("Table 4 — impact of the tuplespace middleware on TpWIRE "
              "(Lease Time = 160 s)\n\n");

  // "2x1-wire (B)" is our extension: the same exchange over the paper's
  // other scaling variant — two independent 1-wire buses with a cross-bus
  // relay (src/cosim/impact.hpp, run_impact_mode_b).
  cosim::TablePrinter table({"CBR", "1-wire", "2-wire (A)", "2x1-wire (B)",
                             "bus util 1w", "cycles 1w"});
  auto render_cell = [](const cosim::ImpactResult& result) -> std::string {
    if (!result.completed) return "DID NOT FINISH";
    if (result.out_of_time) return "Out of Time";
    return util::format_double(result.total.seconds(), 0) + "s";
  };
  auto metric_name = [](double rate, const char* variant) {
    return "cbr" + util::format_double(rate, 1) + "." + variant + "_s";
  };
  auto add_metric = [&](const std::string& name,
                        const cosim::ImpactResult& result) {
    // "Out of Time" / incompletion is encoded as 0 with zero tolerance so a
    // run that newly expires (or newly completes) flips the gate.
    const double value =
        (result.completed && !result.out_of_time) ? result.total.seconds()
                                                  : 0.0;
    obs::BenchReport::KeyMetricOptions options;
    options.unit = "s";
    if (value == 0.0) options.tolerance_pct = 0.0;
    bench.add_key_metric(name, value, obs::Better::kLower, options);
  };
  // Bus cycles are a pure function of the simulated run: any drift in
  // simulated behaviour moves them, so they gate at zero tolerance.
  auto add_cycles = [&](double rate, const char* variant,
                        const cosim::ImpactResult& result) {
    obs::BenchReport::KeyMetricOptions options;
    options.unit = "cycles";
    options.tolerance_pct = 0.0;
    bench.add_key_metric(
        "cbr" + util::format_double(rate, 1) + "." + variant + "_cycles",
        static_cast<double>(result.bus_cycles), obs::Better::kLower, options);
  };
  // The Table 4 grid is 3 CBR rates x 3 bus variants = 9 independent long
  // co-simulations; flatten it and fan out across TB_JOBS workers. Results
  // come back in grid order, so rows and key metrics match the serial run.
  const std::vector<double> rates{0.0, 0.3, 1.0};
  par::SweepRunner runner;
  const std::vector<cosim::ImpactResult> grid =
      runner.run(rates.size() * 3, [&](std::size_t i) {
        const double rate = rates[i / 3];
        const std::size_t variant = i % 3;
        if (variant == 2) {
          cosim::ImpactConfig mode_b;
          mode_b.cbr_rate_bps = rate;
          return cosim::run_impact_mode_b(mode_b);
        }
        cosim::ImpactConfig config;
        config.set_wires(variant == 0 ? 1 : 2);
        config.cbr_rate_bps = rate;
        return cosim::run_impact(config);
      });
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    std::vector<std::string> row;
    row.push_back(util::format_double(rate, 1) + " B/s");
    const cosim::ImpactResult& one_wire = grid[ri * 3];
    const cosim::ImpactResult& two_wire = grid[ri * 3 + 1];
    const cosim::ImpactResult& result_b = grid[ri * 3 + 2];
    row.push_back(render_cell(one_wire));
    add_metric(metric_name(rate, "1wire"), one_wire);
    add_cycles(rate, "1wire", one_wire);
    row.push_back(render_cell(two_wire));
    add_metric(metric_name(rate, "2wire"), two_wire);
    add_cycles(rate, "2wire", two_wire);
    row.push_back(render_cell(result_b));
    add_metric(metric_name(rate, "mode_b"), result_b);
    row.push_back(util::format_double(one_wire.bus_utilization * 100.0, 1) +
                  "%");
    row.push_back(std::to_string(one_wire.bus_cycles));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  bench.add_table("table4", table.headers(), table.rows());

  std::printf("paper's Table 4:  0 B/s: 140s / 116s   0.3 B/s: 151s / 122s   "
              "1 B/s: Out of Time / 129s\n\n");

  // Where does the crossover sit? Sweep the CBR rate on the 1-wire bus.
  // Short mode skips it: the three Table-4 rows above already cover the
  // interesting operating points.
  if (!short_mode) {
    std::printf("1-wire lease-expiry crossover sweep:\n");
    cosim::TablePrinter sweep({"CBR (B/s)", "result", "take arrival vs lease"});
    const std::vector<double> cross{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    const std::vector<cosim::ImpactResult> cross_results =
        runner.run(cross.size(), [&](std::size_t i) {
          cosim::ImpactConfig config;
          config.cbr_rate_bps = cross[i];
          return cosim::run_impact(config);
        });
    for (std::size_t ci = 0; ci < cross.size(); ++ci) {
      const cosim::ImpactResult& result = cross_results[ci];
      sweep.add_row(
          {util::format_double(cross[ci], 1),
           result.out_of_time
               ? "Out of Time"
               : util::format_double(result.total.seconds(), 0) + "s",
           result.out_of_time ? "expired in transit" : "alive"});
    }
    std::printf("%s", sweep.render().c_str());
    bench.add_table("crossover_sweep", sweep.headers(), sweep.rows());
  }
  std::printf("bench report: %s\n", bench.write().c_str());
  return 0;
}
