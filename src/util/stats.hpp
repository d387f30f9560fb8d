// Exact-percentile sample sets used by net flow sinks and svc::WorkerPool.
#pragma once

#include <cstddef>
#include <vector>

namespace tb::util {

/// Stores every sample; supports exact percentiles. Use for bounded-size
/// experiment result sets (bench harnesses), not unbounded traces.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  /// Exact percentile by linear interpolation; p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace tb::util
