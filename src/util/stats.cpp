#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace emask::util {

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("pearson: size mismatch");
  }
  if (a.size() < 2) return 0.0;
  const double ma = mean_of(a);
  const double mb = mean_of(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  const double denom = std::sqrt(da * db);
  return denom > 0.0 ? num / denom : 0.0;
}

double welch_t(const RunningStats& g0, const RunningStats& g1) {
  if (g0.count() < 2 || g1.count() < 2) return 0.0;
  const double v0 = g0.variance() / static_cast<double>(g0.count());
  const double v1 = g1.variance() / static_cast<double>(g1.count());
  const double denom = std::sqrt(v0 + v1);
  return denom > 0.0 ? (g0.mean() - g1.mean()) / denom : 0.0;
}

}  // namespace emask::util
