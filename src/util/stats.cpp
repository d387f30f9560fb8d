#include "src/util/stats.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::util {

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  TB_REQUIRE(!samples_.empty());
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::percentile(double p) const {
  TB_REQUIRE(!samples_.empty());
  TB_REQUIRE(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace tb::util
