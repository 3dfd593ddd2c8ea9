// Streaming statistics used by the side-channel analysis toolkit.
#pragma once

#include <cstddef>
#include <vector>

namespace emask::util {

/// Welford streaming mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  /// Bench and example API: no tool links it.
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of a vector; 0 for an empty vector.
/// Bench and example API: no tool links it.
[[nodiscard]] double mean_of(const std::vector<double>& xs);

/// Pearson correlation of two equally sized vectors; 0 if degenerate.
/// Bench and example API: no tool links it.
[[nodiscard]] double pearson(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Welch's t statistic between two accumulated groups; 0 if degenerate.
/// This is the TVLA-style statistic used to assess leakage significance.
[[nodiscard]] double welch_t(const RunningStats& g0, const RunningStats& g1);

}  // namespace emask::util
