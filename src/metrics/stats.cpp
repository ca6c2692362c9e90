#include "wimesh/metrics/stats.h"

#include <algorithm>
#include <cmath>


namespace wimesh {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  samples_.push_back(x);
  invalidate_cache();
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

const std::vector<double>& SampleSet::sorted() const {
  // Double-checked: the fast path is a single acquire load once the cache
  // is built; the first reader (or the first after an add) sorts a copy
  // under the mutex. samples_ itself is never reordered, so concurrent
  // const readers never observe a vector mid-sort — the data race the old
  // const_cast-and-sort-in-place version had.
  if (!cache_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!cache_valid_.load(std::memory_order_relaxed)) {
      sorted_cache_ = samples_;
      std::sort(sorted_cache_.begin(), sorted_cache_.end());
      cache_valid_.store(true, std::memory_order_release);
    }
  }
  return sorted_cache_;
}

double SampleSet::quantile(double q) const {
  WIMESH_ASSERT_MSG(!samples_.empty(), "quantile of empty sample set");
  WIMESH_ASSERT(q >= 0.0 && q <= 1.0);
  const std::vector<double>& s = sorted();
  if (s.size() == 1) return s[0];
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= s.size()) return s.back();
  return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

std::vector<double> SampleSet::cdf(const std::vector<double>& points) const {
  const std::vector<double>& s = sorted();
  std::vector<double> out;
  out.reserve(points.size());
  for (double p : points) {
    const auto it = std::upper_bound(s.begin(), s.end(), p);
    out.push_back(s.empty() ? 0.0
                            : static_cast<double>(it - s.begin()) /
                                  static_cast<double>(s.size()));
  }
  return out;
}

}  // namespace wimesh
