#include "analysis/trace.hpp"

#include <algorithm>
#include <cmath>

namespace emask::analysis {

double Trace::total_uj() const {
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum * 1e-6;  // pJ -> uJ
}

double Trace::mean_pj() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

Trace Trace::difference(const Trace& other) const {
  const std::size_t n = std::min(size(), other.size());
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = samples_[i] - other.samples_[i];
  return Trace(std::move(out));
}

Trace Trace::windowed_average(std::size_t window) const {
  if (window == 0) window = 1;
  std::vector<double> out;
  out.reserve(size() / window + 1);
  for (std::size_t begin = 0; begin < size(); begin += window) {
    const std::size_t end = std::min(size(), begin + window);
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += samples_[i];
    out.push_back(sum / static_cast<double>(end - begin));
  }
  return Trace(std::move(out));
}

Trace Trace::slice(std::size_t begin, std::size_t end) const {
  begin = std::min(begin, size());
  end = std::min(end, size());
  if (end < begin) end = begin;
  return Trace(std::vector<double>(samples_.begin() + static_cast<long>(begin),
                                   samples_.begin() + static_cast<long>(end)));
}

double Trace::max_abs() const {
  double best = 0.0;
  for (double s : samples_) best = std::max(best, std::abs(s));
  return best;
}

Trace NoiseModel::apply(const Trace& trace) {
  std::vector<double> out(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out[i] = trace[i] + sigma_pj_ * rng_.next_gaussian();
  }
  return Trace(std::move(out));
}

}  // namespace emask::analysis
