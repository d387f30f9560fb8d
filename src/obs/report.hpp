// JSON serialization of registry snapshots and the unified bench report.
//
// Every bench harness writes one `BENCH_<name>.json` through BenchReport;
// tools/bench_compare.py diffs two directories of them and gates CI on the
// declared key metrics. Schema versions (bumped on breaking change):
//
//   tb-obs-registry/v1 — one registry snapshot:
//     { "schema", "sim_time_ns",
//       "counters":   { name: {"value", "rate_per_sec"} },
//       "gauges":     { name: {"value", "peak"} },
//       "histograms": { name: {"count","sum","min","max","mean",
//                              "p50","p90","p99",
//                              "buckets": [[lo, count], ...] } } }
//
//   tb-bench-report/v1 — one bench run:
//     { "schema", "bench", "short_mode",
//       "params":      { free-form name: scalar },
//       "key_metrics": [ {"name","value","better","unit",
//                         "gate","tolerance_pct"?} ],
//       "tables":      { name: {"headers":[...], "rows":[[...],...]} },
//       "registries":  { scope: tb-obs-registry/v1 } }
//
// Key-metric contract: "better" is "higher" or "lower"; "gate": false marks
// wall-clock-dependent metrics that are reported but never failed on
// (machine-to-machine noise); "tolerance_pct" widens the comparer's default
// threshold for one metric. Simulated-time metrics are deterministic across
// machines and gate at the default threshold.
#pragma once

#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace tb::obs {

/// Serializes one snapshot to the tb-obs-registry/v1 schema. Counter rates
/// are over the whole run ([0, sim_time_ns]).
JsonValue snapshot_to_json(const Snapshot& snap);

/// Output directory for BENCH_*.json files: $TB_BENCH_OUT, default ".".
std::string bench_out_dir();

/// True when $TB_BENCH_SHORT is set to anything but "" or "0" — benches
/// shrink their sweeps to CI-smoke size (same metrics, fewer points).
bool bench_short_mode();

enum class Better { kHigher, kLower };

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  /// Free-form run parameter recorded under "params".
  void add_param(const std::string& name, JsonValue value);

  struct KeyMetricOptions {
    std::string unit;
    bool gate = true;           ///< false: report-only (wall-clock noise)
    double tolerance_pct = -1;  ///< <0: comparer default applies
  };
  void add_key_metric(const std::string& name, double value, Better better,
                      KeyMetricOptions options);
  void add_key_metric(const std::string& name, double value, Better better) {
    add_key_metric(name, value, better, KeyMetricOptions{});
  }

  void add_table(const std::string& name, std::vector<std::string> headers,
                 std::vector<std::vector<std::string>> rows);

  /// Embeds a registry snapshot under "registries"/<scope>.
  void add_registry(const Snapshot& snap, const std::string& scope = "run");

  JsonValue to_json() const;

  /// Writes bench_out_dir()/BENCH_<name>.json (pretty-printed, trailing
  /// newline) and returns the path. TB_REQUIREs the write succeeded.
  std::string write() const;

 private:
  std::string name_;
  JsonValue params_ = JsonValue::object();
  JsonValue key_metrics_ = JsonValue::array();
  JsonValue tables_ = JsonValue::object();
  JsonValue registries_ = JsonValue::object();
};

}  // namespace tb::obs
