// The staggered, tiled fold inside GenericCpa and DpaAttack against the
// per-trace accumulation loops it replaced: every cell must receive the
// same additions in the same trace order, so every result double matches
// the reference to the last bit.  Samples are non-integer, so a changed
// addition order shows in the bits.  The AttackFoldSink suite streams the
// attacks through BatchRunner, whose sink runs on any capture thread.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/cpa.hpp"
#include "analysis/dpa.hpp"
#include "analysis/generic_cpa.hpp"
#include "core/batch_runner.hpp"
#include "util/rng.hpp"

namespace emask::analysis {
namespace {

/// GenericCpa's per-trace loops before the fold: every trace adds into
/// every cell at once.  Same solve formulas as GenericCpa.
class ReferenceCpa {
 public:
  ReferenceCpa(int guesses, std::size_t begin, std::size_t end,
               bool signed_correlation)
      : guesses_(static_cast<std::size_t>(guesses)),
        window_(begin, end),
        signed_(signed_correlation),
        sum_h_(guesses_, 0.0),
        sum_h2_(guesses_, 0.0) {}

  void add_trace(const std::vector<int>& hypotheses, const Trace& trace) {
    const std::size_t begin = window_.admit(trace, "ReferenceCpa");
    const std::size_t width = window_.width();
    if (traces_ == 0) {
      sum_t_.assign(width, 0.0);
      sum_t2_.assign(width, 0.0);
      sum_ht_.assign(width * guesses_, 0.0);
    }
    ++traces_;
    for (std::size_t g = 0; g < guesses_; ++g) {
      const double h = hypotheses[g];
      sum_h_[g] += h;
      sum_h2_[g] += h * h;
    }
    for (std::size_t i = 0; i < width; ++i) {
      const double t = trace[begin + i];
      sum_t_[i] += t;
      sum_t2_[i] += t * t;
      double* row = &sum_ht_[i * guesses_];
      for (std::size_t g = 0; g < guesses_; ++g) row[g] += hypotheses[g] * t;
    }
  }

  [[nodiscard]] std::vector<double> correlation_series(std::size_t g) const {
    const std::size_t width = window_.width();
    std::vector<double> series(width, 0.0);
    if (traces_ < 2) return series;
    const auto n = static_cast<double>(traces_);
    const double var_h = sum_h2_[g] - sum_h_[g] * sum_h_[g] / n;
    if (var_h <= 0.0) return series;
    for (std::size_t i = 0; i < width; ++i) {
      const double var_t = sum_t2_[i] - sum_t_[i] * sum_t_[i] / n;
      if (var_t <= 1e-10 * sum_t2_[i]) continue;
      const double cov = sum_ht_[i * guesses_ + g] - sum_h_[g] * sum_t_[i] / n;
      series[i] = cov / std::sqrt(var_h * var_t);
    }
    return series;
  }

  [[nodiscard]] GenericCpaResult solve() const {
    GenericCpaResult result;
    result.traces_used = traces_;
    result.corr_per_guess.assign(guesses_, 0.0);
    if (traces_ < 2) return result;
    for (std::size_t g = 0; g < guesses_; ++g) {
      const std::vector<double> series = correlation_series(g);
      const auto n = static_cast<double>(traces_);
      const double var_h = sum_h2_[g] - sum_h_[g] * sum_h_[g] / n;
      if (var_h <= 0.0) continue;
      bool any_cycle = false;
      double peak = 0.0;
      for (std::size_t i = 0; i < series.size(); ++i) {
        const double var_t = sum_t2_[i] - sum_t_[i] * sum_t_[i] / n;
        if (var_t <= 1e-10 * sum_t2_[i]) continue;
        const double score = signed_ ? series[i] : std::abs(series[i]);
        if (!any_cycle || score > peak) peak = score;
        any_cycle = true;
      }
      if (!any_cycle) continue;
      result.corr_per_guess[g] = peak;
      if (result.best_guess < 0 || peak > result.best_corr) {
        result.best_corr = peak;
        result.best_guess = static_cast<int>(g);
      }
    }
    return result;
  }

 private:
  std::size_t guesses_;
  TraceWindow window_;
  bool signed_;
  std::size_t traces_ = 0;
  std::vector<double> sum_h_, sum_h2_, sum_t_, sum_t2_, sum_ht_;
};

/// DpaAttack's per-trace loops before the fold, over 64 separate group
/// sums.  Same solve formulas as DpaAttack.
class ReferenceDpa {
 public:
  ReferenceDpa(const DpaConfig& config)
      : config_(config),
        window_(config.window_begin, config.window_end),
        group1_sum_(64),
        group1_count_(64, 0) {}

  void add_trace(std::uint64_t plaintext, const Trace& trace) {
    const std::size_t begin = window_.admit(trace, "ReferenceDpa");
    const std::size_t width = window_.width();
    if (traces_ == 0) {
      total_sum_.assign(width, 0.0);
      for (auto& g : group1_sum_) g.assign(width, 0.0);
    }
    ++traces_;
    accumulate_window(trace, begin, width, total_sum_.data());
    for (std::size_t g = 0; g < 64; ++g) {
      if (DpaAttack::predict_bit(plaintext, config_.sbox, config_.bit,
                                 static_cast<int>(g)) == 1) {
        ++group1_count_[g];
        accumulate_window(trace, begin, width, group1_sum_[g].data());
      }
    }
  }

  [[nodiscard]] DpaResult solve() const {
    DpaResult result;
    result.traces_used = traces_;
    if (traces_ == 0) return result;
    for (std::size_t g = 0; g < 64; ++g) {
      const std::size_t n1 = group1_count_[g];
      const std::size_t n0 = traces_ - n1;
      if (n1 == 0 || n0 == 0) continue;
      double peak = 0.0;
      std::vector<double> dom(window_.width());
      for (std::size_t i = 0; i < dom.size(); ++i) {
        const double mean1 = group1_sum_[g][i] / static_cast<double>(n1);
        const double mean0 = (total_sum_[i] - group1_sum_[g][i]) /
                             static_cast<double>(n0);
        dom[i] = mean1 - mean0;
        peak = std::max(peak, std::abs(dom[i]));
      }
      result.peak_per_guess[g] = peak;
      if (peak > result.best_peak) {
        result.best_peak = peak;
        result.best_guess = static_cast<int>(g);
        result.dom_best = std::move(dom);
      }
    }
    return result;
  }

 private:
  DpaConfig config_;
  TraceWindow window_;
  std::size_t traces_ = 0;
  std::vector<std::vector<double>> group1_sum_;
  std::vector<std::size_t> group1_count_;
  std::vector<double> total_sum_;
};

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_TRUE(same_bits(a.data(), b.data(), a.size())) << what;
}

void expect_same(const GenericCpaResult& got, const GenericCpaResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.best_guess, want.best_guess) << what;
  EXPECT_TRUE(same_bits(&got.best_corr, &want.best_corr, 1)) << what;
  EXPECT_EQ(got.traces_used, want.traces_used) << what;
  expect_same_bits(got.corr_per_guess, want.corr_per_guess,
                   what + " corr_per_guess");
}

void expect_same(const DpaResult& got, const DpaResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.best_guess, want.best_guess) << what;
  EXPECT_TRUE(same_bits(&got.best_peak, &want.best_peak, 1)) << what;
  EXPECT_EQ(got.traces_used, want.traces_used) << what;
  EXPECT_TRUE(same_bits(got.peak_per_guess.data(), want.peak_per_guess.data(),
                        got.peak_per_guess.size()))
      << what << " peak_per_guess";
  expect_same_bits(got.dom_best, want.dom_best, what + " dom_best");
}

/// Non-integer samples spanning a few magnitudes, so sums round.  The
/// trace runs two cycles past the window on each side.
Trace random_trace(util::Rng& rng, std::size_t width) {
  std::vector<double> samples(width + 4);
  for (double& s : samples) {
    s = static_cast<double>(rng.next_u64() >> 11) * 0x1p-53 * 97.0 + 3.0;
  }
  return Trace(std::move(samples));
}

constexpr std::size_t kTraceCounts[] = {1, 7, 8, 9, 100};

// ------------------------------------------------------------------ CPA

struct CpaCase {
  std::size_t width;
  int guesses;
  bool signed_correlation;
};

class CpaFold : public ::testing::TestWithParam<CpaCase> {};

/// Streams `count` random traces into the engine and the reference;
/// `every_trace` solves (and reads one guess's series) after each trace,
/// otherwise only at the end.  Every guess's series is compared at the end.
void run_cpa(const CpaCase& c, std::size_t count, bool every_trace) {
  const std::string what = "width " + std::to_string(c.width) + ", " +
                           std::to_string(c.guesses) + " guesses, " +
                           std::to_string(count) + " traces" +
                           (every_trace ? ", solve every trace" : "");
  GenericCpa engine(c.guesses, 2, 2 + c.width, c.signed_correlation);
  ReferenceCpa reference(c.guesses, 2, 2 + c.width, c.signed_correlation);
  util::Rng rng(0xF01D + c.width * 31 + static_cast<std::size_t>(c.guesses));
  std::vector<int> hypotheses(static_cast<std::size_t>(c.guesses));
  for (std::size_t n = 0; n < count; ++n) {
    for (int& h : hypotheses) h = static_cast<int>(rng.next_u64() % 9);
    const Trace trace = random_trace(rng, c.width);
    engine.add_trace(hypotheses, trace);
    reference.add_trace(hypotheses, trace);
    if (every_trace) {
      const std::string at = what + ", after trace " + std::to_string(n);
      const auto g = static_cast<int>(n % hypotheses.size());
      expect_same_bits(engine.correlation_series(g),
                       reference.correlation_series(g), at + " series");
      expect_same(engine.solve(), reference.solve(), at);
    }
  }
  expect_same(engine.solve(), reference.solve(), what);
  for (int g = 0; g < c.guesses; ++g) {
    expect_same_bits(engine.correlation_series(g),
                     reference.correlation_series(g),
                     what + " series of guess " + std::to_string(g));
  }
}

TEST_P(CpaFold, MatchesPerTraceLoopsBitForBit) {
  const CpaCase& c = GetParam();
  for (const std::size_t count : kTraceCounts) {
    run_cpa(c, count, /*every_trace=*/false);
  }
  // A hundred solves of the 10000 x 256 window would take seconds; three
  // ring turns mix staggered and full folds just as thoroughly.
  const bool wide = c.width * static_cast<std::size_t>(c.guesses) > 100000;
  run_cpa(c, wide ? 24 : 100, /*every_trace=*/true);
}

std::vector<CpaCase> cpa_cases() {
  std::vector<CpaCase> cases;
  for (const std::size_t width : {1u, 5u, 7u, 10000u}) {
    // 20 guesses run one 16-guess register tile plus a scalar remainder.
    for (const int guesses : {1, 3, 20, 64, 256}) {
      for (const bool signed_correlation : {false, true}) {
        cases.push_back({width, guesses, signed_correlation});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Windows, CpaFold, ::testing::ValuesIn(cpa_cases()),
    [](const ::testing::TestParamInfo<CpaCase>& info) {
      return "w" + std::to_string(info.param.width) + "_g" +
             std::to_string(info.param.guesses) +
             (info.param.signed_correlation ? "_signed" : "_abs");
    });

// ------------------------------------------------------------------ DPA

class DpaFold : public ::testing::TestWithParam<std::size_t> {};

void run_dpa(std::size_t width, std::size_t count, bool every_trace) {
  const std::string what = "width " + std::to_string(width) + ", " +
                           std::to_string(count) + " traces" +
                           (every_trace ? ", solve every trace" : "");
  DpaConfig config;
  config.sbox = 2;
  config.bit = 1;
  config.window_begin = 2;
  config.window_end = 2 + width;
  DpaAttack attack(config);
  ReferenceDpa reference(config);
  util::Rng rng(0xD9A + width);
  for (std::size_t n = 0; n < count; ++n) {
    const std::uint64_t plaintext = rng.next_u64();
    const Trace trace = random_trace(rng, width);
    attack.add_trace(plaintext, trace);
    reference.add_trace(plaintext, trace);
    if (every_trace) {
      expect_same(attack.solve(), reference.solve(),
                  what + ", after trace " + std::to_string(n));
    }
  }
  expect_same(attack.solve(), reference.solve(), what);
}

TEST_P(DpaFold, MatchesPerTraceLoopsBitForBit) {
  for (const std::size_t count : kTraceCounts) {
    run_dpa(GetParam(), count, /*every_trace=*/false);
  }
  run_dpa(GetParam(), 100, /*every_trace=*/true);
}

INSTANTIATE_TEST_SUITE_P(Windows, DpaFold,
                         ::testing::Values(1u, 5u, 7u, 10000u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "w" + std::to_string(i.param);
                         });

// --------------------------------------------------- sink on any thread

// BatchRunner runs its sink on any capture thread, so the ring and its
// partly folded sums pass from thread to thread between traces.  Results
// (with solves at checkpoints mid-stream) must not depend on the thread
// count.
struct SinkResults {
  std::vector<DpaResult> dpa;
  std::vector<CpaResult> cpa;
};

SinkResults stream_attacks(std::size_t threads) {
  constexpr std::size_t kTraces = 40;
  constexpr std::size_t kCheckpoints[] = {1, 5, 8, 9, 17, kTraces};
  core::BatchConfig bc;
  bc.threads = threads;
  bc.stop_after_cycles = 1500;
  bc.noise_sigma_pj = 0.5;
  bc.noise_seed = 0x5EED;
  static const core::MaskingPipeline device =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  DpaConfig dpa_config;
  dpa_config.window_begin = 100;
  dpa_config.window_end = 1500;
  DpaAttack dpa(dpa_config);
  CpaConfig cpa_config;
  cpa_config.window_begin = 100;
  cpa_config.window_end = 1500;
  CpaAttack cpa(cpa_config);
  SinkResults out;
  std::size_t next = 0;
  core::BatchRunner runner(device, bc);
  runner.capture_each(
      kTraces, core::random_plaintexts(0x133457799BBCDFF1ull, 0xF01D),
      [&](std::size_t i, const core::BatchInput& in,
          core::EncryptionRun& run) {
        dpa.add_trace(in.plaintext, run.trace);
        cpa.add_trace(in.plaintext, run.trace);
        if (i + 1 == kCheckpoints[next]) {
          out.dpa.push_back(dpa.solve());
          out.cpa.push_back(cpa.solve());
          ++next;
        }
      });
  return out;
}

TEST(AttackFoldSink, ThreadCountDoesNotChangeResults) {
  const SinkResults serial = stream_attacks(1);
  const SinkResults parallel = stream_attacks(4);
  ASSERT_EQ(serial.dpa.size(), 6u);
  ASSERT_EQ(parallel.dpa.size(), serial.dpa.size());
  ASSERT_EQ(parallel.cpa.size(), serial.cpa.size());
  for (std::size_t k = 0; k < serial.dpa.size(); ++k) {
    const std::string at = "checkpoint " + std::to_string(k);
    expect_same(parallel.dpa[k], serial.dpa[k], at);
    const CpaResult& got = parallel.cpa[k];
    const CpaResult& want = serial.cpa[k];
    EXPECT_EQ(got.best_guess, want.best_guess) << at;
    EXPECT_TRUE(same_bits(&got.best_corr, &want.best_corr, 1)) << at;
    EXPECT_TRUE(same_bits(got.corr_per_guess.data(),
                          want.corr_per_guess.data(),
                          got.corr_per_guess.size()))
        << at;
  }
  EXPECT_EQ(serial.cpa.back().traces_used, 40u);
}

}  // namespace
}  // namespace emask::analysis
