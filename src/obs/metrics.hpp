// Metrics registry: named counters, gauges and log2-bucketed histograms.
//
// The observability substrate every layer reports through (DESIGN.md §7).
// Two styles of instrumentation coexist:
//
//  * push — hot paths hold a `Counter*` / `Histogram*` obtained once from
//    bind_metrics() and update it inline. An update is a branch plus an
//    integer add; no clock read, no lookup, no allocation.
//  * pull — a component that already keeps a Stats struct mirrors it with
//    Registry::mirror(); levels that live elsewhere (queue depths, sizes)
//    register a collector. Registry::snapshot() runs the collectors first,
//    so the values are copied into instruments only when somebody looks.
//
// The registry is sim-time aware: it carries a nanosecond clock (normally
// the simulator's), stamps every snapshot with it, and derives per-window
// rates from the difference between two snapshots — frames/s, retries/s
// etc. come for free from counter deltas, no per-sample timestamps needed.
//
// Naming convention: lowercase dotted paths, `<layer>.<object>.<metric>`,
// unit suffix on the metric leaf (`_ns`, `_bits`, `_ratio`); per-entity
// instruments append `.node<N>` style leaves. See DESIGN.md §7.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tb::obs {

/// Monotonic event count. set() exists for pull-style collectors that
/// mirror an external Stats field; push-style users only add().
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, utilization). Tracks the peak of all
/// values ever set, which is what capacity questions need from a snapshot.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > peak_) peak_ = v;
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double peak() const {
    return peak_ == -std::numeric_limits<double>::infinity() ? value_ : peak_;
  }

 private:
  double value_ = 0.0;
  double peak_ = -std::numeric_limits<double>::infinity();
};

/// Log2-bucketed histogram over non-negative integer samples (durations in
/// ns, sizes in bytes). Bucket 0 holds the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i). Fixed 65 buckets cover the whole uint64 range, so
/// record() never allocates; percentiles interpolate inside a bucket (exact
/// to within a factor-of-two bucket width, which is what a regression gate
/// needs — trends, not nanoseconds).
class Histogram {
 public:
  static constexpr int kBucketCount = 65;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  /// p in [0, 100]; 0 on an empty histogram.
  double percentile(double p) const;

  std::uint64_t bucket_count(int i) const { return buckets_[i]; }
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(int i);
  /// Exclusive upper bound of bucket i (saturates at uint64 max).
  static std::uint64_t bucket_hi(int i);
  static int bucket_index(std::uint64_t v);

 private:
  std::uint64_t buckets_[kBucketCount] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// A consistent copy of the registry at one sim instant. Value-semantic:
/// hold two and diff them for windowed rates.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
    double peak = 0.0;
  };
  struct HistogramSample {
    std::string name;
    Histogram histogram;
  };

  std::uint64_t sim_now_ns = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;

  std::uint64_t counter_value(std::string_view name) const;

  /// Counter value over the whole run: value / sim_now seconds.
  double rate_per_sec(std::string_view name) const;
};

class Registry {
 public:
  /// Nanosecond time source for snapshot stamping — normally the simulated
  /// clock (sim::bind_metrics installs it). Defaults to a clock stuck at 0,
  /// which disables rate derivation but nothing else.
  using Clock = std::function<std::uint64_t()>;

  Registry() = default;
  explicit Registry(Clock clock) : clock_(std::move(clock)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void set_clock(Clock clock) { clock_ = std::move(clock); }
  bool has_clock() const { return clock_ != nullptr; }

  /// Find-or-create. Returned references stay valid for the registry's
  /// lifetime (node-based storage), so hot paths cache the pointer once.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  bool has_counter(std::string_view name) const {
    return counters_.find(name) != counters_.end();
  }
  bool has_gauge(std::string_view name) const {
    return gauges_.find(name) != gauges_.end();
  }
  bool has_histogram(std::string_view name) const {
    return histograms_.find(name) != histograms_.end();
  }

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Registers a pull-style collector, run (in registration order) at the
  /// start of every snapshot(). Collectors typically copy a component's
  /// Stats struct into instruments via Counter::set / Gauge::set.
  void add_collector(std::function<void()> collector) {
    collectors_.push_back(std::move(collector));
  }

  /// The one pull path for a component's Stats struct: at every snapshot,
  /// counter `prefix + suffix` is set to `stats.*field` for each
  /// `{suffix, field}` pair. `stats` must outlive the registry.
  template <typename Stats>
  void mirror(const std::string& prefix, const Stats& stats,
              std::initializer_list<
                  std::pair<const char*, std::uint64_t Stats::*>> fields) {
    std::vector<std::pair<Counter*, std::uint64_t Stats::*>> bound;
    bound.reserve(fields.size());
    for (const auto& [suffix, field] : fields) {
      bound.emplace_back(&counter(prefix + suffix), field);
    }
    add_collector([&stats, bound = std::move(bound)] {
      for (const auto& [counter, field] : bound) counter->set(stats.*field);
    });
  }

  /// Runs collectors, stamps the clock, and copies every instrument.
  /// Instruments iterate in name order, so serialized output is stable.
  Snapshot snapshot();

 private:
  Clock clock_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace tb::obs
