// Shared plumbing of the whole-stack benchmark (see README.md): run
// arguments, the declared metric table, percentile helpers, the span buffer
// behind the traced run, and the per-run report writer.
//
// Each process runs ONE repetition of ONE workload: set-up, one measured
// window, then the workload's correctness gates; setup_s is the median of
// kSetups set-ups. fed_replicated instead repeats set-up, window and gates
// in rounds on fresh clusters. It writes BENCH_perf_<workload>.json
// (tb-bench-report/v1) into $TB_BENCH_OUT, plus TRACE_<workload>.json on a
// traced run and SAMPLES_<workload>.json (simulated op latencies, for
// pooling across repetitions) on a simulated workload. run.py aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mw/codec.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/rng.hpp"

namespace perf {

/// Workload bits; a metric's `workloads` mask says where it is measured.
enum WorkloadBit : unsigned {
  kFig7 = 1u << 0,
  kFed = 1u << 1,
  kChurn = 1u << 2,
  kReadMostly = 1u << 3,
  kSimulated = kFig7 | kFed,
  kThreaded = kChurn | kReadMostly,
  kAll = kSimulated | kThreaded,
};

struct Args {
  std::string workload;
  unsigned bit = 0;
  std::uint64_t seed = 1;
  /// Measured window. Threaded workloads measure this many host seconds;
  /// simulated ones run a fixed simulated length sized to take about this
  /// long on a 4-core x86 host, so their simulated metrics are a pure
  /// function of (seed, seconds).
  double seconds = 3.0;
  bool trace = false;
  double scale = 1.0;  ///< fixed sizes (warm-up, preload); --smoke: 1/50
};

/// Set-ups timed by an untraced run; setup_s is their median.
constexpr int kSetups = 3;

/// Which runs report a metric.
enum class Scope : std::uint8_t {
  kEndToEnd,    ///< untraced runs
  kLayer,       ///< per-layer; untraced runs where measured, traced runs
  kTracedLayer  ///< per-layer, needs the traced window: traced runs only
};

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Scope scope;
  unsigned workloads;  ///< where it is measured; it reads 0 elsewhere
};

/// Every metric the benchmark reports, in BENCHMARK.json order.
const std::vector<MetricSpec>& metric_table();

/// num / den, or 0 when den is not positive.
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host steady clock, ns.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency sample of a failed op: +inf in spirit, finite so JSON holds it.
inline constexpr double kFailedMs = 1e30;

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

/// Linearly interpolated percentile, p in [0, 100]; 0 when empty.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Host-latency histogram: 64 linear sub-buckets per power of two (~1.6%
/// wide), interpolated inside a bucket so percentiles move smoothly.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// p in [0, 100], ns; 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = 2 * kSub + 48 * kSub;
  static int index(std::uint64_t v);
  static double lower(int i);
  static double width(int i);

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Zipf(s) over [0, n): key k has weight 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int draw(tb::util::Xoshiro256& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- traced run ------------------------------------------------------------

enum class SpanClock : std::uint8_t { kSim, kHost };

struct Span {
  const char* name = "";
  const char* tag = nullptr;  ///< optional attribute (wire.cycle: responder)
  SpanClock clock = SpanClock::kHost;
  std::uint32_t parent = 0;  ///< 1-based id in the same buffer; 0 = root
  std::uint64_t op = 0;      ///< op id shared by one request's spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Preallocated span store. Recording stops, and counts drops, when full.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a span; returns its 1-based id, or 0 when the buffer is full.
  std::uint32_t open(const char* name, SpanClock clock, std::int64_t start,
                     std::uint64_t op, std::uint32_t parent = 0,
                     const char* tag = nullptr);
  void close(std::uint32_t id, std::int64_t end) {
    if (id != 0) spans_[id - 1].end_ns = end;
  }
  /// open + close in one call.
  void add(const char* name, SpanClock clock, std::int64_t start,
           std::int64_t end, std::uint64_t op, std::uint32_t parent = 0,
           const char* tag = nullptr) {
    close(open(name, clock, start, op, parent, tag), end);
  }

  bool full() const { return spans_.size() >= capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// A simulated workload samples host time in slices of about
/// kSampleHostSeconds; its host ns per event is the median over the slices,
/// so a burst of load from another tenant moves a few slices, not the metric.
constexpr double kSampleHostSeconds = 0.1;

/// Number of host-time samples a window of `seconds` is cut into.
int sample_count(double seconds);

/// Runs `sim` for `length` in `slices` equal run_until slices, recording a
/// host-clock sim.run_slice span per slice when `spans` is set. The slices
/// are timed in `samples` groups, each giving one host ns-per-event sample.
struct SimWindow {
  double sim_s = 0;
  double events = 0;
  std::vector<double> ns_per_event;  ///< one per sample
};
SimWindow run_window(tb::sim::Simulator& sim, tb::sim::Time length,
                     int slices, int samples, SpanBuffer* spans = nullptr);

/// setup_s: the median of `first_s` (the measured rig's set-up) and
/// kSetups - 1 more timed calls of `set_up`, each result destroyed untimed.
/// Called once the measured rig is gone, so the repetitions add nothing to
/// peak_rss_mb.
template <typename SetUp>
double median_setup_s(double first_s, SetUp&& set_up) {
  std::vector<double> seconds = {first_s};
  for (int i = 1; i < kSetups; ++i) {
    const std::int64_t t0 = host_ns();
    auto built = set_up();
    seconds.push_back(static_cast<double>(host_ns() - t0) * 1e-9);
  }
  return median(std::move(seconds));
}

/// Times a codec on each op's equivalent mw::Message (traced runs only).
struct CodecProbe {
  /// Encodes and decodes `message`, recording mw.codec.{encode,decode}
  /// spans under op id `op`.
  void probe(const tb::mw::Codec& codec, const tb::mw::Message& message,
             SpanBuffer& spans, std::uint64_t op);

  std::vector<std::uint8_t> buf;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::uint64_t mismatches = 0;  ///< decodes that did not round-trip
};

/// One run's metrics, correctness gates and trace; written by finish().
class RunReport {
 public:
  explicit RunReport(const Args& args);

  void set(const std::string& name, double value) { values_[name] = value; }
  /// Records a correctness gate; a failed gate adds to ops_failed.
  void gate(bool ok, const std::string& what);

  std::uint64_t ops = 0;         ///< ops attempted in the measured window
  std::uint64_t ops_failed = 0;  ///< failed ops (+1 per failed gate)
  /// Samples behind the op latency percentiles (timed-out fed takes are ops
  /// but not samples).
  std::uint64_t latency_samples = 0;

  void add_param(const std::string& name, tb::obs::JsonValue value) {
    report_.add_param(name, std::move(value));
  }
  void add_table(const std::string& name, std::vector<std::string> headers,
                 std::vector<std::vector<std::string>> rows);
  void add_registry(const tb::obs::Snapshot& snap, const std::string& scope);
  /// Appends a buffer's spans to the trace (ids re-based after earlier ones).
  void add_spans(const SpanBuffer& buffer);
  /// Simulated op latencies (ms) for pooling across repetitions.
  void set_samples(std::vector<double> sim_op_ms) {
    samples_ = std::move(sim_op_ms);
  }

  /// Reports every per-layer metric on a traced run, filling those not
  /// measured on this workload with 0. An untraced run reports the
  /// end-to-end metrics and the per-layer ones measured here without
  /// tracing. Fails the run on a metric the workload forgot, writes the
  /// files; returns the process exit code (0 = every gate passed).
  int finish();

 private:
  Args args_;
  tb::obs::BenchReport report_;
  std::map<std::string, double> values_;
  std::vector<std::string> gate_failures_;
  tb::obs::JsonValue spans_ = tb::obs::JsonValue::array();
  std::uint64_t span_count_ = 0;
  std::uint64_t spans_dropped_ = 0;
  tb::obs::JsonValue trace_tables_ = tb::obs::JsonValue::object();
  tb::obs::JsonValue trace_registries_ = tb::obs::JsonValue::object();
  std::vector<double> samples_;
};

void run_fig7(const Args& args, RunReport& report);
void run_fed(const Args& args, RunReport& report);
void run_threaded(const Args& args, RunReport& report);

}  // namespace perf
