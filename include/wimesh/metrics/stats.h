#pragma once

// Streaming and sample-based statistics used by every experiment.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "wimesh/common/assert.h"

namespace wimesh {

// Welford online mean/variance plus min/max. O(1) memory.
class RunningStat {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores samples for exact quantiles; suitable for per-flow delay series at
// simulation scale (millions of samples at 8 bytes each).
//
// Quantile queries sort lazily into a separate cache, so `samples()` always
// returns the series in insertion order. The cache is built under a mutex
// with double-checked locking: concurrent const readers (e.g. parallel
// batch workers aggregating shared results) are safe. Mutation (`add`) is
// not synchronized against readers — same contract as std::vector.
class SampleSet {
 public:
  SampleSet() = default;
  SampleSet(const SampleSet& o) : samples_(o.samples_) {
    cache_valid_.store(samples_.empty(), std::memory_order_release);
  }
  SampleSet(SampleSet&& o) noexcept : samples_(std::move(o.samples_)) {
    cache_valid_.store(samples_.empty(), std::memory_order_release);
  }
  SampleSet& operator=(const SampleSet& o) {
    if (this != &o) {
      samples_ = o.samples_;
      invalidate_cache();
    }
    return *this;
  }
  SampleSet& operator=(SampleSet&& o) noexcept {
    if (this != &o) {
      samples_ = std::move(o.samples_);
      invalidate_cache();
    }
    return *this;
  }

  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  // Exact q-quantile with linear interpolation, q in [0, 1]. Requires at
  // least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

  // Empirical CDF evaluated at the given points: fraction of samples <= x.
  std::vector<double> cdf(const std::vector<double>& points) const;

  // Samples in insertion order.
  const std::vector<double>& samples() const { return samples_; }

 private:
  const std::vector<double>& sorted() const;
  void invalidate_cache() {
    sorted_cache_.clear();
    cache_valid_.store(false, std::memory_order_release);
  }

  std::vector<double> samples_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_valid_{true};  // empty cache matches empty
  mutable std::vector<double> sorted_cache_;
};

}  // namespace wimesh
