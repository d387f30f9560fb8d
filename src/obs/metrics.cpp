#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "src/util/assert.hpp"

namespace tb::obs {

int Histogram::bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  return std::bit_width(v);  // v in [2^(i-1), 2^i) -> i
}

std::uint64_t Histogram::bucket_lo(int i) {
  TB_REQUIRE(i >= 0 && i < kBucketCount);
  if (i == 0) return 0;
  return std::uint64_t{1} << (i - 1);
}

std::uint64_t Histogram::bucket_hi(int i) {
  TB_REQUIRE(i >= 0 && i < kBucketCount);
  if (i == 0) return 1;
  if (i == kBucketCount - 1) return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1} << i;
}

void Histogram::record(std::uint64_t v) {
  ++buckets_[bucket_index(v)];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside the bucket, clamped to the observed
      // extremes so p0/p100 report exact min/max.
      const double lo = static_cast<double>(bucket_lo(i));
      const double hi = static_cast<double>(bucket_hi(i));
      const double within =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets_[i]);
      const double value = lo + (hi - lo) * within;
      return std::clamp(value, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

const Snapshot::CounterSample* Snapshot::find_counter(
    std::string_view name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const Snapshot::GaugeSample* Snapshot::find_gauge(std::string_view name) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const Snapshot::HistogramSample* Snapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  const CounterSample* c = find_counter(name);
  return c ? c->value : 0;
}

double Snapshot::rate_per_sec(std::string_view name) const {
  if (sim_now_ns == 0) return 0.0;
  return static_cast<double>(counter_value(name)) /
         (static_cast<double>(sim_now_ns) * 1e-9);
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

Snapshot Registry::snapshot() {
  for (const auto& collector : collectors_) collector();
  Snapshot snap;
  snap.sim_now_ns = clock_ ? clock_() : 0;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g.value(), g.peak()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h});
  }
  return snap;
}

}  // namespace tb::obs
