#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <thread>

namespace perf {

using tb::obs::JsonValue;

const std::vector<MetricSpec>& metric_table() {
  constexpr bool kHigher = true;
  constexpr bool kLower = false;
  constexpr Scope kE2E = Scope::kEndToEnd;
  constexpr Scope kLayer = Scope::kLayer;
  constexpr Scope kTraced = Scope::kTracedLayer;
  static const std::vector<MetricSpec> table = {
      // End to end: measured on every workload, tracing off.
      {"setup_s", "s", kLower, kE2E, kAll},
      {"peak_rss_mb", "MB", kLower, kE2E, kAll},
      // host speed of the whole stack (see README: too noisy to bound)
      {"ops_per_host_s", "1/s", kHigher, kLayer, kAll},
      {"host_op_p50_us", "us", kLower, kLayer, kAll},
      {"host_op_p99_us", "us", kLower, kLayer, kAll},
      // sim
      {"sim.op_p50_ms", "sim_ms", kLower, kLayer, kSimulated},
      {"sim.op_p99_ms", "sim_ms", kLower, kLayer, kSimulated},
      {"sim.ops_per_sim_s", "1/sim_s", kHigher, kLayer, kSimulated},
      {"sim.events_per_op", "events/op", kLower, kLayer, kSimulated},
      {"sim.host_ns_per_event", "ns", kLower, kLayer, kSimulated},
      {"sim.peak_pending", "count", kLower, kLayer, kSimulated},
      // cosim
      {"cosim.table4_err_pct", "%", kLower, kLayer, kFig7},
      // wire
      {"wire.cycles_per_op", "cycles/op", kLower, kLayer, kFig7},
      {"wire.relay_bytes_per_op", "B/op", kLower, kLayer, kFig7},
      {"wire.host_ns_per_cycle", "ns", kLower, kLayer, kFig7},
      {"wire.utilization", "ratio", kLower, kLayer, kFig7},
      {"wire.cycle_fail_ratio", "ratio", kLower, kLayer, kFig7},
      {"wire.share.client", "ratio", kHigher, kTraced, kFig7},
      {"wire.share.server", "ratio", kHigher, kTraced, kFig7},
      {"wire.share.cbr", "ratio", kLower, kTraced, kFig7},
      {"wire.share.idle", "ratio", kLower, kTraced, kFig7},
      // net
      {"net.cbr_delivered_per_s", "1/s", kHigher, kLayer, kFig7},
      // mw
      {"mw.bytes_per_op", "B/op", kLower, kLayer, kSimulated},
      {"mw.rpc_sim_ms_p50.write", "sim_ms", kLower, kLayer, kFig7},
      {"mw.rpc_sim_ms_p99.write", "sim_ms", kLower, kLayer, kFig7},
      {"mw.rpc_sim_ms_p50.take", "sim_ms", kLower, kLayer, kFig7},
      {"mw.rpc_sim_ms_p99.take", "sim_ms", kLower, kLayer, kFig7},
      {"mw.retransmissions_per_op", "ratio", kLower, kLayer, kSimulated},
      {"mw.rpc_failures", "count", kLower, kLayer, kSimulated},
      {"mw.codec_encode_ns", "ns", kLower, kTraced, kSimulated},
      {"mw.codec_decode_ns", "ns", kLower, kTraced, kSimulated},
      {"mw.node.queue_waits_per_op", "ratio", kLower, kLayer, kSimulated},
      {"mw.node.peak_in_service", "count", kLower, kLayer, kSimulated},
      {"mw.node.replication_forwards_per_write", "ratio", kLower, kLayer,
       kFed},
      // space
      {"space.op_host_us_p50.write", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p99.write", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p50.take", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p99.take", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p50.read", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p99.read", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p50.wildcard", "us", kLower, kLayer, kThreaded},
      {"space.op_host_us_p99.wildcard", "us", kLower, kLayer, kThreaded},
      {"space.scan_steps_per_op", "ratio", kLower, kLayer, kAll},
      {"space.hit_ratio", "ratio", kHigher, kLayer, kAll},
      {"space.inbox_peak", "count", kLower, kLayer, kThreaded},
      {"space.wildcard_host_share", "ratio", kLower, kTraced, kThreaded},
      // fed
      {"fed.op_sim_ms_p50.named", "sim_ms", kLower, kLayer, kFed},
      {"fed.op_sim_ms_p99.named", "sim_ms", kLower, kLayer, kFed},
      {"fed.op_sim_ms_p50.wildcard", "sim_ms", kLower, kLayer, kFed},
      {"fed.op_sim_ms_p99.wildcard", "sim_ms", kLower, kLayer, kFed},
      {"fed.peeks_per_wildcard", "ratio", kLower, kLayer, kFed},
      {"fed.directed_take_miss_ratio", "ratio", kLower, kLayer, kFed},
      {"fed.polls_per_wildcard", "ratio", kLower, kLayer, kFed},
      {"fed.misroute_refreshes", "count", kLower, kLayer, kFed},
      // harness
      {"trace.overhead_pct", "%", kLower, kTraced, kAll},
  };
  return table;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. ru_maxrss would not do: Linux
  // carries it across fork + exec, so it can report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// --- LatencyHistogram --------------------------------------------------------
// Values below 2 * kSub get a bucket each. Above, the value's top seven bits
// pick the bucket: `shift` = bit length - 7, then 64 buckets per shift.

int LatencyHistogram::index(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<int>(v);
  const int shift = std::bit_width(v) - 7;
  const int i = 2 * kSub + (shift - 1) * kSub +
                static_cast<int>((v >> shift) - kSub);
  return std::min(i, kBuckets - 1);
}

double LatencyHistogram::lower(int i) {
  if (i < 2 * kSub) return i;
  const int shift = (i - 2 * kSub) / kSub + 1;
  const int sub = (i - 2 * kSub) % kSub + kSub;
  return std::ldexp(static_cast<double>(sub), shift);
}

double LatencyHistogram::width(int i) {
  if (i < 2 * kSub) return 1.0;
  return std::ldexp(1.0, (i - 2 * kSub) / kSub + 1);
}

void LatencyHistogram::record(std::uint64_t ns) {
  ++buckets_[index(ns)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  double seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const auto in_bucket = static_cast<double>(buckets_[i]);
    if (seen + in_bucket >= rank) {
      // Samples spread evenly over the bucket's width.
      return lower(i) + width(i) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return lower(kBuckets - 1);
}

// --- Zipf ----------------------------------------------------------------------

Zipf::Zipf(int n, double s) {
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::draw(tb::util::Xoshiro256& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

// --- spans and windows -----------------------------------------------------------

std::uint32_t SpanBuffer::open(const char* name, SpanClock clock,
                               std::int64_t start, std::uint64_t op,
                               std::uint32_t parent, const char* tag) {
  if (full()) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = name;
  span.tag = tag;
  span.clock = clock;
  span.parent = parent;
  span.op = op;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());
}

int sample_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSampleHostSeconds)));
}

SimWindow run_window(tb::sim::Simulator& sim, tb::sim::Time length,
                     int slices, int samples, SpanBuffer* spans) {
  slices = std::max(slices, samples);
  const tb::sim::Time start = sim.now();
  std::vector<double> sample_ns(static_cast<std::size_t>(samples), 0.0);
  std::vector<double> sample_events(static_cast<std::size_t>(samples), 0.0);
  SimWindow window;
  window.sim_s = length.seconds();
  for (int i = 1; i <= slices; ++i) {
    const tb::sim::Time until =
        i == slices ? start + length
                    : start + tb::sim::Time::ns(length.count_ns() / slices * i);
    const std::uint64_t e0 = sim.executed_events();
    const std::int64_t h0 = host_ns();
    sim.run_until(until);
    const std::int64_t h1 = host_ns();
    const auto events = static_cast<double>(sim.executed_events() - e0);
    const auto s = static_cast<std::size_t>((i - 1) * samples / slices);
    sample_ns[s] += static_cast<double>(h1 - h0);
    sample_events[s] += events;
    window.events += events;
    if (spans != nullptr) {
      spans->add("sim.run_slice", SpanClock::kHost, h0, h1, /*op=*/0);
    }
  }
  for (std::size_t s = 0; s < sample_ns.size(); ++s) {
    if (sample_events[s] > 0) {
      window.ns_per_event.push_back(sample_ns[s] / sample_events[s]);
    }
  }
  return window;
}

void CodecProbe::probe(const tb::mw::Codec& codec,
                       const tb::mw::Message& message, SpanBuffer& spans,
                       std::uint64_t op) {
  buf.clear();
  const std::int64_t h0 = host_ns();
  codec.encode_into(message, buf);
  const std::int64_t h1 = host_ns();
  const std::optional<tb::mw::Message> decoded = codec.decode(buf);
  const std::int64_t h2 = host_ns();
  if (!decoded.has_value() || !(*decoded == message)) ++mismatches;
  encode_ns.push_back(static_cast<double>(h1 - h0));
  decode_ns.push_back(static_cast<double>(h2 - h1));
  spans.add("mw.codec.encode", SpanClock::kHost, h0, h1, op);
  spans.add("mw.codec.decode", SpanClock::kHost, h1, h2, op);
}

// --- RunReport -----------------------------------------------------------------

RunReport::RunReport(const Args& args)
    : args_(args), report_("perf_" + args.workload) {}

void RunReport::gate(bool ok, const std::string& what) {
  if (ok) return;
  gate_failures_.push_back(what);
  ++ops_failed;
  std::fprintf(stderr, "gate failed: %s\n", what.c_str());
}

void RunReport::add_table(const std::string& name,
                          std::vector<std::string> headers,
                          std::vector<std::vector<std::string>> rows) {
  JsonValue table = JsonValue::object();
  JsonValue h = JsonValue::array();
  for (std::string& s : headers) h.push_back(JsonValue(std::move(s)));
  JsonValue r = JsonValue::array();
  for (std::vector<std::string>& row : rows) {
    JsonValue cells = JsonValue::array();
    for (std::string& s : row) cells.push_back(JsonValue(std::move(s)));
    r.push_back(std::move(cells));
  }
  table.set("headers", std::move(h));
  table.set("rows", std::move(r));
  trace_tables_.set(name, std::move(table));
}

void RunReport::add_registry(const tb::obs::Snapshot& snap,
                             const std::string& scope) {
  trace_registries_.set(scope, tb::obs::snapshot_to_json(snap));
}

void RunReport::add_spans(const SpanBuffer& buffer) {
  const std::uint64_t base = span_count_;
  for (const Span& span : buffer.spans()) {
    JsonValue s = JsonValue::object();
    s.set("id", JsonValue(++span_count_));
    s.set("name", JsonValue(span.name));
    s.set("clock", JsonValue(span.clock == SpanClock::kSim ? "sim" : "host"));
    s.set("start_ns", JsonValue(span.start_ns));
    s.set("end_ns", JsonValue(span.end_ns));
    s.set("parent", JsonValue(span.parent == 0 ? 0 : base + span.parent));
    s.set("op", JsonValue(span.op));
    if (span.tag != nullptr) s.set("tag", JsonValue(span.tag));
    spans_.push_back(std::move(s));
  }
  spans_dropped_ += buffer.dropped();
}

namespace {

void write_json(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  out << value.dump() << "\n";
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

}  // namespace

int RunReport::finish() {
  for (const MetricSpec& spec : metric_table()) {
    const bool measured_here = (spec.workloads & args_.bit) != 0;
    const bool wanted =
        args_.trace ? spec.scope != Scope::kEndToEnd
                    : spec.scope == Scope::kEndToEnd ||
                          (spec.scope == Scope::kLayer && measured_here);
    if (!wanted) continue;
    double value = 0.0;
    const auto it = values_.find(spec.name);
    if (it != values_.end()) {
      value = it->second;
    } else if (measured_here) {
      gate(false, std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      gate(false, std::string("metric not finite: ") + spec.name);
      value = 0.0;
    }
    tb::obs::BenchReport::KeyMetricOptions options;
    options.unit = spec.unit;
    report_.add_key_metric(
        spec.name, value,
        spec.higher_is_better ? tb::obs::Better::kHigher
                              : tb::obs::Better::kLower,
        options);
  }
  report_.add_param("workload", JsonValue(args_.workload));
  report_.add_param("seed", JsonValue(args_.seed));
  report_.add_param("seconds", JsonValue(args_.seconds));
  report_.add_param("trace", JsonValue(args_.trace));
  report_.add_param("scale", JsonValue(args_.scale));
  report_.add_param("host_cpus",
                    JsonValue(static_cast<std::int64_t>(
                        std::thread::hardware_concurrency())));
  report_.add_param("ops", JsonValue(ops));
  report_.add_param("latency_samples", JsonValue(latency_samples));
  report_.add_param("ops_failed", JsonValue(ops_failed));
  report_.add_param("correct", JsonValue(gate_failures_.empty()));
  std::string failures;
  for (const std::string& f : gate_failures_) failures += f + "; ";
  report_.add_param("gate_failures", JsonValue(failures));
  std::printf("report: %s\n", report_.write().c_str());

  const std::string dir = tb::obs::bench_out_dir();
  if (!samples_.empty()) {
    JsonValue samples = JsonValue::array();
    for (double ms : samples_) samples.push_back(JsonValue(ms));
    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue(args_.workload));
    doc.set("op_sim_ms", std::move(samples));
    write_json(dir + "/SAMPLES_" + args_.workload + ".json", doc);
  }
  if (args_.trace) {
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("tb-bench-trace/v1"));
    doc.set("workload", JsonValue(args_.workload));
    doc.set("seed", JsonValue(args_.seed));
    doc.set("spans_dropped", JsonValue(spans_dropped_));
    doc.set("spans", std::move(spans_));
    doc.set("tables", std::move(trace_tables_));
    doc.set("registries", std::move(trace_registries_));
    write_json(dir + "/TRACE_" + args_.workload + ".json", doc);
  }
  return gate_failures_.empty() && ops_failed == 0 ? 0 : 1;
}

}  // namespace perf
