#include "analysis/dpa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "analysis/generic_cpa.hpp"
#include "des/des.hpp"

namespace emask::analysis {

double DpaResult::margin() const {
  return margin_over_runner_up(peak_per_guess.data(), peak_per_guess.size(),
                               best_guess, best_peak);
}

DpaAttack::DpaAttack(const DpaConfig& config)
    : config_(config), window_(config.window_begin, config.window_end) {
  if (config.sbox < 0 || config.sbox > 7 || config.bit < 0 || config.bit > 3) {
    throw std::invalid_argument("DpaAttack: sbox in 0..7, bit in 0..3");
  }
  group1_count_.resize(64, 0);
  predicted_.resize(64);
}

void DpaAttack::set_provider(std::shared_ptr<HypothesisProvider> provider) {
  if (provider && provider->count() != 64) {
    throw std::invalid_argument("DpaAttack: provider must supply 64 guesses");
  }
  provider_ = std::move(provider);
}

int DpaAttack::predict_bit(std::uint64_t plaintext, int sbox, int bit,
                           int guess) {
  const std::uint8_t six = des::round1_sbox_input(plaintext, sbox);
  const std::uint8_t out = des::sbox_lookup(
      sbox, static_cast<std::uint8_t>(six ^ static_cast<std::uint8_t>(guess)));
  return (out >> (3 - bit)) & 1;
}

int DpaAttack::true_subkey_chunk(std::uint64_t key, int sbox) {
  const des::KeySchedule ks = des::key_schedule(key);
  return static_cast<int>((ks.subkeys[0] >> (42 - 6 * sbox)) & 0x3F);
}

void DpaAttack::add_trace(std::uint64_t plaintext, const Trace& trace) {
  const std::size_t begin = window_.admit(trace, "DpaAttack");
  if (traces_ == 0) {
    const std::size_t width = window_.width();
    acc_.ring.reset(width);
    acc_.bits.assign(TraceRing::kRing * 64, 0);
    acc_.total_sum.assign(width, 0.0);
    acc_.group1_sum.assign(64 * width, 0.0);
  }
  ++traces_;
  if (provider_) {
    provider_->fill(plaintext, predicted_);
  } else {
    for (int guess = 0; guess < 64; ++guess) {
      predicted_[static_cast<std::size_t>(guess)] =
          predict_bit(plaintext, config_.sbox, config_.bit, guess);
    }
  }
  const std::size_t n = acc_.ring.push(trace, begin);
  std::uint8_t* bits = &acc_.bits[(n % TraceRing::kRing) * 64];
  for (std::size_t guess = 0; guess < 64; ++guess) {
    bits[guess] = predicted_[guess] == 1;
    group1_count_[guess] += bits[guess];
  }
  acc_.ring.fold_step([this](std::size_t b, std::size_t e, std::size_t first,
                             std::size_t last) { fold(b, e, first, last); });
}

namespace {

/// sum[i] += w[j][i] over the `count` windows in order, i in [begin, end).
void add_windows(double* sum, const double* const* w, std::size_t count,
                 std::size_t begin, std::size_t end) {
  std::size_t i = begin;
#ifdef __SSE2__
  // Register tile: 16 cycles' sums stay in registers across the windows.
  for (; i + 16 <= end; i += 16) {
    __m128d a0 = _mm_loadu_pd(sum + i);
    __m128d a1 = _mm_loadu_pd(sum + i + 2);
    __m128d a2 = _mm_loadu_pd(sum + i + 4);
    __m128d a3 = _mm_loadu_pd(sum + i + 6);
    __m128d a4 = _mm_loadu_pd(sum + i + 8);
    __m128d a5 = _mm_loadu_pd(sum + i + 10);
    __m128d a6 = _mm_loadu_pd(sum + i + 12);
    __m128d a7 = _mm_loadu_pd(sum + i + 14);
    for (std::size_t j = 0; j < count; ++j) {
      const double* wj = w[j] + i;
      a0 = _mm_add_pd(a0, _mm_loadu_pd(wj));
      a1 = _mm_add_pd(a1, _mm_loadu_pd(wj + 2));
      a2 = _mm_add_pd(a2, _mm_loadu_pd(wj + 4));
      a3 = _mm_add_pd(a3, _mm_loadu_pd(wj + 6));
      a4 = _mm_add_pd(a4, _mm_loadu_pd(wj + 8));
      a5 = _mm_add_pd(a5, _mm_loadu_pd(wj + 10));
      a6 = _mm_add_pd(a6, _mm_loadu_pd(wj + 12));
      a7 = _mm_add_pd(a7, _mm_loadu_pd(wj + 14));
    }
    _mm_storeu_pd(sum + i, a0);
    _mm_storeu_pd(sum + i + 2, a1);
    _mm_storeu_pd(sum + i + 4, a2);
    _mm_storeu_pd(sum + i + 6, a3);
    _mm_storeu_pd(sum + i + 8, a4);
    _mm_storeu_pd(sum + i + 10, a5);
    _mm_storeu_pd(sum + i + 12, a6);
    _mm_storeu_pd(sum + i + 14, a7);
  }
#endif
  for (; i < end; ++i) {
    double a = sum[i];
    for (std::size_t j = 0; j < count; ++j) a += w[j][i];
    sum[i] = a;
  }
}

}  // namespace

void DpaAttack::fold(std::size_t begin, std::size_t end, std::size_t first,
                     std::size_t last) const {
  const std::size_t count = last - first;
  const double* all[TraceRing::kRing];
  for (std::size_t j = 0; j < count; ++j) {
    all[j] = acc_.ring.window(first + j);
  }
  add_windows(acc_.total_sum.data(), all, count, begin, end);
  const std::size_t width = window_.width();
  for (std::size_t guess = 0; guess < 64; ++guess) {
    // The ring traces this guess puts in group 1, still in trace order.
    const double* group1[TraceRing::kRing];
    std::size_t members = 0;
    for (std::size_t j = 0; j < count; ++j) {
      if (acc_.bits[((first + j) % TraceRing::kRing) * 64 + guess] != 0) {
        group1[members++] = all[j];
      }
    }
    add_windows(acc_.group1_sum.data() + guess * width, group1, members,
                begin, end);
  }
}

void DpaAttack::fold_all() const {
  acc_.ring.fold_all([this](std::size_t b, std::size_t e, std::size_t first,
                            std::size_t last) { fold(b, e, first, last); });
}

DpaResult DpaAttack::solve() const {
  DpaResult result;
  result.traces_used = traces_;
  if (traces_ == 0) return result;
  fold_all();
  const std::size_t width = window_.width();
  for (int guess = 0; guess < 64; ++guess) {
    const std::size_t n1 = group1_count_[static_cast<std::size_t>(guess)];
    const std::size_t n0 = traces_ - n1;
    if (n1 == 0 || n0 == 0) continue;  // degenerate partition
    const double* sums =
        acc_.group1_sum.data() + static_cast<std::size_t>(guess) * width;
    double peak = 0.0;
    std::vector<double> dom(width);
    for (std::size_t i = 0; i < width; ++i) {
      const double mean1 = sums[i] / static_cast<double>(n1);
      const double mean0 =
          (acc_.total_sum[i] - sums[i]) / static_cast<double>(n0);
      dom[i] = mean1 - mean0;
      peak = std::max(peak, std::abs(dom[i]));
    }
    result.peak_per_guess[static_cast<std::size_t>(guess)] = peak;
    if (peak > result.best_peak) {
      result.best_peak = peak;
      result.best_guess = guess;
      result.dom_best = std::move(dom);
    }
  }
  return result;
}

}  // namespace emask::analysis
