#include "analysis/generic_cpa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace emask::analysis {

std::size_t TraceWindow::admit(const Trace& trace, const char* who) {
  // A bounded window is a hard contract: a first trace too short to fill
  // [begin_, end_) must not silently narrow the window for every later
  // (full-length) trace — it gets the same rejection a short later trace
  // always got.  Only the open-ended default (end_ == SIZE_MAX, "to the
  // end of the trace") clamps, because there the first trace *defines*
  // the width.
  if (end_ != SIZE_MAX && trace.size() < end_) {
    throw std::invalid_argument(std::string(who) +
                                ": trace shorter than the window");
  }
  const std::size_t begin = std::min(begin_, trace.size());
  const std::size_t end = std::min(end_, trace.size());
  const std::size_t w = end > begin ? end - begin : 0;
  if (admitted_ == 0) {
    width_ = w;
  } else if (w < width_) {
    throw std::invalid_argument(std::string(who) +
                                ": trace shorter than the window");
  }
  ++admitted_;
  return begin;
}

void TraceRing::reset(std::size_t width) {
  windows_.assign(kRing * width, 0.0);
  folded_.fill(0);
  width_ = width;
  pushed_ = 0;
}

std::size_t TraceRing::push(const Trace& trace, std::size_t begin) {
  std::copy_n(trace.samples().data() + begin, width_,
              windows_.data() + (pushed_ % kRing) * width_);
  return pushed_++;
}

void accumulate_window(const Trace& trace, std::size_t begin,
                       std::size_t width, double* sums) {
  for (std::size_t i = 0; i < width; ++i) sums[i] += trace[begin + i];
}

double margin_over_runner_up(const double* scores, std::size_t count,
                             int best_guess, double best_score) {
  double runner_up = 0.0;
  for (std::size_t g = 0; g < count; ++g) {
    if (static_cast<int>(g) == best_guess) continue;
    runner_up = std::max(runner_up, scores[g]);
  }
  // No positive runner-up means the winner is infinitely separated; +inf
  // keeps that distinguishable from a genuine zero margin (best_score 0
  // over a positive runner-up).  Reports render non-finite as "n/a" and
  // manifests serialize it as null.
  if (runner_up <= 0.0) return std::numeric_limits<double>::infinity();
  return best_score / runner_up;
}

double GenericCpaResult::margin() const {
  return margin_over_runner_up(corr_per_guess.data(), corr_per_guess.size(),
                               best_guess, best_corr);
}

GenericCpa::GenericCpa(int num_guesses, std::size_t window_begin,
                       std::size_t window_end, bool signed_correlation)
    : num_guesses_(num_guesses),
      window_(window_begin, window_end),
      signed_correlation_(signed_correlation) {
  if (num_guesses <= 0) {
    throw std::invalid_argument("GenericCpa: need at least one guess");
  }
  sum_h_.resize(static_cast<std::size_t>(num_guesses), 0.0);
  sum_h2_.resize(static_cast<std::size_t>(num_guesses), 0.0);
}

void GenericCpa::add_trace(const std::vector<int>& hypotheses,
                           const Trace& trace) {
  if (hypotheses.size() != static_cast<std::size_t>(num_guesses_)) {
    throw std::invalid_argument("GenericCpa: hypothesis count mismatch");
  }
  const std::size_t begin = window_.admit(trace, "GenericCpa");
  const auto guesses = static_cast<std::size_t>(num_guesses_);
  if (traces_ == 0) {
    const std::size_t width = window_.width();
    acc_.ring.reset(width);
    acc_.hyp.assign(TraceRing::kRing * guesses, 0.0);
    acc_.sum_t.assign(width, 0.0);
    acc_.sum_t2.assign(width, 0.0);
    acc_.sum_ht.assign(width * guesses, 0.0);
  }
  ++traces_;
  const std::size_t n = acc_.ring.push(trace, begin);
  double* hyp = &acc_.hyp[(n % TraceRing::kRing) * guesses];
  for (std::size_t g = 0; g < guesses; ++g) {
    const double h = hypotheses[g];
    sum_h_[g] += h;
    sum_h2_[g] += h * h;
    hyp[g] = h;
  }
  acc_.ring.fold_step([this](std::size_t b, std::size_t e, std::size_t first,
                             std::size_t last) { fold(b, e, first, last); });
}

void GenericCpa::fold(std::size_t begin, std::size_t end, std::size_t first,
                      std::size_t last) const {
  const auto guesses = static_cast<std::size_t>(num_guesses_);
  const std::size_t count = last - first;
  const double* t[TraceRing::kRing];
  const double* h[TraceRing::kRing];
  for (std::size_t j = 0; j < count; ++j) {
    t[j] = acc_.ring.window(first + j);
    h[j] = &acc_.hyp[((first + j) % TraceRing::kRing) * guesses];
  }
  for (std::size_t i = begin; i < end; ++i) {
    double st = acc_.sum_t[i];
    double st2 = acc_.sum_t2[i];
    for (std::size_t j = 0; j < count; ++j) {
      st += t[j][i];
      st2 += t[j][i] * t[j][i];
    }
    acc_.sum_t[i] = st;
    acc_.sum_t2[i] = st2;
    double* row = &acc_.sum_ht[i * guesses];
    std::size_t g = 0;
#ifdef __SSE2__
    // Register tile: 16 guesses' sums stay in registers across the ring
    // traces.  A separate multiply and add (no FMA) round each h * t as
    // the scalar loop below does.
    for (; g + 16 <= guesses; g += 16) {
      __m128d a0 = _mm_loadu_pd(row + g);
      __m128d a1 = _mm_loadu_pd(row + g + 2);
      __m128d a2 = _mm_loadu_pd(row + g + 4);
      __m128d a3 = _mm_loadu_pd(row + g + 6);
      __m128d a4 = _mm_loadu_pd(row + g + 8);
      __m128d a5 = _mm_loadu_pd(row + g + 10);
      __m128d a6 = _mm_loadu_pd(row + g + 12);
      __m128d a7 = _mm_loadu_pd(row + g + 14);
      for (std::size_t j = 0; j < count; ++j) {
        const __m128d v = _mm_set1_pd(t[j][i]);
        const double* hj = h[j] + g;
        a0 = _mm_add_pd(a0, _mm_mul_pd(_mm_loadu_pd(hj), v));
        a1 = _mm_add_pd(a1, _mm_mul_pd(_mm_loadu_pd(hj + 2), v));
        a2 = _mm_add_pd(a2, _mm_mul_pd(_mm_loadu_pd(hj + 4), v));
        a3 = _mm_add_pd(a3, _mm_mul_pd(_mm_loadu_pd(hj + 6), v));
        a4 = _mm_add_pd(a4, _mm_mul_pd(_mm_loadu_pd(hj + 8), v));
        a5 = _mm_add_pd(a5, _mm_mul_pd(_mm_loadu_pd(hj + 10), v));
        a6 = _mm_add_pd(a6, _mm_mul_pd(_mm_loadu_pd(hj + 12), v));
        a7 = _mm_add_pd(a7, _mm_mul_pd(_mm_loadu_pd(hj + 14), v));
      }
      _mm_storeu_pd(row + g, a0);
      _mm_storeu_pd(row + g + 2, a1);
      _mm_storeu_pd(row + g + 4, a2);
      _mm_storeu_pd(row + g + 6, a3);
      _mm_storeu_pd(row + g + 8, a4);
      _mm_storeu_pd(row + g + 10, a5);
      _mm_storeu_pd(row + g + 12, a6);
      _mm_storeu_pd(row + g + 14, a7);
    }
#endif
    for (; g < guesses; ++g) {
      double a = row[g];
      for (std::size_t j = 0; j < count; ++j) a += h[j][g] * t[j][i];
      row[g] = a;
    }
  }
}

void GenericCpa::fold_all() const {
  acc_.ring.fold_all([this](std::size_t b, std::size_t e, std::size_t first,
                            std::size_t last) { fold(b, e, first, last); });
}

std::vector<double> GenericCpa::correlation_series(int guess) const {
  if (guess < 0 || guess >= num_guesses_) {
    throw std::invalid_argument("GenericCpa: guess out of range");
  }
  fold_all();
  const std::size_t width = window_.width();
  std::vector<double> series(width, 0.0);
  if (traces_ < 2) return series;
  const auto n = static_cast<double>(traces_);
  const double sh = sum_h_[static_cast<std::size_t>(guess)];
  const double var_h = sum_h2_[static_cast<std::size_t>(guess)] - sh * sh / n;
  if (var_h <= 0.0) return series;
  for (std::size_t i = 0; i < width; ++i) {
    const double st = acc_.sum_t[i];
    const double var_t = acc_.sum_t2[i] - st * st / n;
    if (var_t <= 1e-10 * acc_.sum_t2[i]) continue;
    const double cov =
        acc_.sum_ht[i * static_cast<std::size_t>(num_guesses_) +
                static_cast<std::size_t>(guess)] -
        sh * st / n;
    series[i] = cov / std::sqrt(var_h * var_t);
  }
  return series;
}

GenericCpaResult GenericCpa::solve() const {
  GenericCpaResult result;
  result.traces_used = traces_;
  result.corr_per_guess.assign(static_cast<std::size_t>(num_guesses_), 0.0);
  if (traces_ < 2) return result;
  fold_all();
  const auto n = static_cast<double>(traces_);
  const std::size_t width = window_.width();
  for (int g = 0; g < num_guesses_; ++g) {
    const double sh = sum_h_[static_cast<std::size_t>(g)];
    const double var_h = sum_h2_[static_cast<std::size_t>(g)] - sh * sh / n;
    if (var_h <= 0.0) continue;
    // True max over the window, not max against a 0.0 seed: in signed
    // mode an all-negative guess must report its (negative) peak, or it
    // could never rank below a true-zero guess.
    bool any_cycle = false;
    double peak = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      const double st = acc_.sum_t[i];
      const double var_t = acc_.sum_t2[i] - st * st / n;
      // Relative threshold: constant-energy (masked) cycles leave only
      // floating-point cancellation residue.
      if (var_t <= 1e-10 * acc_.sum_t2[i]) continue;
      const double cov =
          acc_.sum_ht[i * static_cast<std::size_t>(num_guesses_) +
                  static_cast<std::size_t>(g)] -
          sh * st / n;
      const double rho = cov / std::sqrt(var_h * var_t);
      const double score = signed_correlation_ ? rho : std::abs(rho);
      if (!any_cycle || score > peak) peak = score;
      any_cycle = true;
    }
    // No cycle had variance (fully masked window): the guess is
    // unrankable and keeps the 0.0 placeholder without contending.
    if (!any_cycle) continue;
    result.corr_per_guess[static_cast<std::size_t>(g)] = peak;
    if (result.best_guess < 0 || peak > result.best_corr) {
      result.best_corr = peak;
      result.best_guess = g;
    }
  }
  return result;
}

}  // namespace emask::analysis
