#include "src/obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "src/util/assert.hpp"

namespace tb::obs {

namespace {

JsonValue histogram_to_json(const Histogram& h) {
  JsonValue out = JsonValue::object();
  out.set("count", JsonValue(h.count()));
  out.set("sum", JsonValue(h.sum()));
  out.set("min", JsonValue(h.min()));
  out.set("max", JsonValue(h.max()));
  out.set("mean", JsonValue(h.mean()));
  out.set("p50", JsonValue(h.percentile(50)));
  out.set("p90", JsonValue(h.percentile(90)));
  out.set("p99", JsonValue(h.percentile(99)));
  JsonValue buckets = JsonValue::array();
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    if (h.bucket_count(i) == 0) continue;
    JsonValue pair = JsonValue::array();
    pair.push_back(JsonValue(Histogram::bucket_lo(i)));
    pair.push_back(JsonValue(h.bucket_count(i)));
    buckets.push_back(std::move(pair));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

}  // namespace

JsonValue snapshot_to_json(const Snapshot& snap) {
  JsonValue out = JsonValue::object();
  out.set("schema", JsonValue("tb-obs-registry/v1"));
  out.set("sim_time_ns", JsonValue(snap.sim_now_ns));
  JsonValue counters = JsonValue::object();
  for (const Snapshot::CounterSample& c : snap.counters) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue(c.value));
    entry.set("rate_per_sec", JsonValue(snap.rate_per_sec(c.name)));
    counters.set(c.name, std::move(entry));
  }
  out.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const Snapshot::GaugeSample& g : snap.gauges) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue(g.value));
    entry.set("peak", JsonValue(g.peak));
    gauges.set(g.name, std::move(entry));
  }
  out.set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::object();
  for (const Snapshot::HistogramSample& h : snap.histograms) {
    histograms.set(h.name, histogram_to_json(h.histogram));
  }
  out.set("histograms", std::move(histograms));
  return out;
}

std::string bench_out_dir() {
  const char* dir = std::getenv("TB_BENCH_OUT");
  return (dir != nullptr && *dir != '\0') ? dir : ".";
}

bool bench_short_mode() {
  const char* v = std::getenv("TB_BENCH_SHORT");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReport::add_param(const std::string& name, JsonValue value) {
  params_.set(name, std::move(value));
}

void BenchReport::add_key_metric(const std::string& name, double value,
                                 Better better, KeyMetricOptions options) {
  JsonValue metric = JsonValue::object();
  metric.set("name", JsonValue(name));
  metric.set("value", JsonValue(value));
  metric.set("better",
             JsonValue(better == Better::kHigher ? "higher" : "lower"));
  metric.set("unit", JsonValue(options.unit));
  metric.set("gate", JsonValue(options.gate));
  if (options.tolerance_pct >= 0) {
    metric.set("tolerance_pct", JsonValue(options.tolerance_pct));
  }
  key_metrics_.push_back(std::move(metric));
}

void BenchReport::add_table(const std::string& name,
                            std::vector<std::string> headers,
                            std::vector<std::vector<std::string>> rows) {
  JsonValue table = JsonValue::object();
  JsonValue header_json = JsonValue::array();
  for (std::string& h : headers) header_json.push_back(JsonValue(std::move(h)));
  table.set("headers", std::move(header_json));
  JsonValue rows_json = JsonValue::array();
  for (std::vector<std::string>& row : rows) {
    JsonValue row_json = JsonValue::array();
    for (std::string& cell : row) row_json.push_back(JsonValue(std::move(cell)));
    rows_json.push_back(std::move(row_json));
  }
  table.set("rows", std::move(rows_json));
  tables_.set(name, std::move(table));
}

void BenchReport::add_registry(const Snapshot& snap, const std::string& scope) {
  registries_.set(scope, snapshot_to_json(snap));
}

JsonValue BenchReport::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("schema", JsonValue("tb-bench-report/v1"));
  out.set("bench", JsonValue(name_));
  out.set("short_mode", JsonValue(bench_short_mode()));
  out.set("params", params_);
  out.set("key_metrics", key_metrics_);
  out.set("tables", tables_);
  out.set("registries", registries_);
  return out;
}

std::string BenchReport::write() const {
  const std::string dir = bench_out_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; fopen decides
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  const std::string body = to_json().dump(2) + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  TB_REQUIRE_MSG(f != nullptr, "cannot open bench report for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int rc = std::fclose(f);
  TB_REQUIRE_MSG(written == body.size() && rc == 0,
                 "short write on bench report");
  return path;
}

}  // namespace tb::obs
