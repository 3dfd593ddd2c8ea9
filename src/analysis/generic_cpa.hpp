// Algorithm-agnostic correlation power analysis engine.
//
// The caller supplies, per trace, a hypothesis value (e.g. a predicted
// Hamming weight) for every candidate guess; the engine maintains the
// sufficient statistics for the Pearson correlation between hypothesis and
// measured energy at every cycle, per guess.  DES (64 subkey guesses) and
// AES (256 key-byte guesses) attacks are thin wrappers over this, and the
// shared TraceWindow / TraceRing / accumulate_window / margin helpers
// below carry the windowed-accumulation idiom into the mean-based attacks
// (DPA, collision) without a third copy of the bookkeeping.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "analysis/trace.hpp"

namespace emask::analysis {

/// Shared trace-window bookkeeping for every streaming attack.  A bounded
/// [begin, end) range is a hard contract: every trace (including the
/// first) must cover it or admit() throws — a short first trace must not
/// silently narrow the window every later full-length trace is analyzed
/// over.  The open-ended default (end = SIZE_MAX) runs "to the end of the
/// trace": the first trace fixes the width, later traces must cover it.
class TraceWindow {
 public:
  TraceWindow(std::size_t begin = 0, std::size_t end = SIZE_MAX)
      : begin_(begin), end_(end) {}

  /// Admits one trace: returns the absolute cycle index the window starts
  /// at.  Throws if the trace cannot cover the bounded range (or, for the
  /// open-ended default, the width fixed by the first trace).
  std::size_t admit(const Trace& trace, const char* who);

  /// Window length in cycles; 0 until the first trace is admitted.
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t admitted() const { return admitted_; }

 private:
  std::size_t begin_;
  std::size_t end_;
  std::size_t width_ = 0;
  std::size_t admitted_ = 0;
};

/// The last kRing admitted trace windows, drained into an attack's
/// per-cycle accumulators by a staggered, tiled fold.  The window is cut
/// into kRing cycle tiles; admitting trace n folds tile n % kRing forward
/// over every ring trace that tile has not absorbed yet, in trace order.
/// Every accumulator cell therefore receives exactly the additions a
/// per-trace loop makes, in the same order (the same bits), but each
/// accumulator line is read and written once per kRing traces instead of
/// once per trace.  Each tile is folded at every kRing-th admission, so
/// by the time trace n + kRing reuses trace n's slot every tile has
/// absorbed trace n, and the per-trace cost stays even (no burst).
/// Readers (solve) call fold_all first.
class TraceRing {
 public:
  static constexpr std::size_t kRing = 8;

  /// Sizes the ring for `width`-cycle windows; called on the first trace.
  void reset(std::size_t width);

  /// Copies the next trace's window into its slot; returns its index n.
  std::size_t push(const Trace& trace, std::size_t begin);

  /// Trace n's window; n must be one of the last kRing pushed.
  [[nodiscard]] const double* window(std::size_t n) const {
    return windows_.data() + (n % kRing) * width_;
  }

  /// Folds the newest trace's tile forward (the staggered per-trace step).
  /// `fold(cycle_begin, cycle_end, first, last)` must add ring traces
  /// [first, last), in order, into cycles [cycle_begin, cycle_end).
  template <typename Fold>
  void fold_step(Fold&& fold) {
    fold_tile((pushed_ - 1) % kRing, fold);
  }

  /// Folds every tile forward to the newest trace.
  template <typename Fold>
  void fold_all(Fold&& fold) {
    for (std::size_t tile = 0; tile < kRing; ++tile) fold_tile(tile, fold);
  }

 private:
  template <typename Fold>
  void fold_tile(std::size_t tile, Fold& fold) {
    const std::size_t first = folded_[tile];
    if (first == pushed_) return;
    fold(tile * width_ / kRing, (tile + 1) * width_ / kRing, first, pushed_);
    folded_[tile] = pushed_;
  }

  std::vector<double> windows_;              // [slot * width + cycle]
  std::array<std::size_t, kRing> folded_{};  // traces each tile absorbed
  std::size_t width_ = 0;
  std::size_t pushed_ = 0;
};

/// sums[i] += trace[begin + i] for i in [0, width): the windowed
/// accumulation inner loop shared by the mean-based attacks.
void accumulate_window(const Trace& trace, std::size_t begin,
                       std::size_t width, double* sums);

/// Winner's score over the runner-up's (>1 = clean recovery).  When no
/// runner-up scores positive the winner is infinitely separated and the
/// margin is +inf — distinguishable from a genuine zero margin (zero best
/// score over a positive runner-up).  Reports render non-finite margins
/// as "n/a"; manifest JSON serializes them as null.
[[nodiscard]] double margin_over_runner_up(const double* scores,
                                           std::size_t count, int best_guess,
                                           double best_score);

struct GenericCpaResult {
  int best_guess = -1;
  double best_corr = 0.0;
  std::vector<double> corr_per_guess;
  std::size_t traces_used = 0;

  /// Winner's |rho| over the runner-up's (>1 = clean recovery).
  [[nodiscard]] double margin() const;
};

/// Memory: the per-cycle sums (width x (num_guesses + 2) doubles) plus a
/// TraceRing of kRing windows and their hypotheses; add_trace folds one
/// cycle tile per trace and solve() folds the traces still outstanding.
class GenericCpa {
 public:
  /// `signed_correlation`: score each guess by its maximum *signed* rho
  /// instead of |rho|.  When the power model's polarity is known (more
  /// asserted bits => more energy, as here), this resolves complement
  /// ambiguities — e.g. DES S-box 4's linear structure S4(x ^ 2F) = ~S4(x)
  /// makes a key guess and its complement-partner tie under |rho|.
  GenericCpa(int num_guesses, std::size_t window_begin = 0,
             std::size_t window_end = SIZE_MAX,
             bool signed_correlation = false);

  /// `hypotheses[g]` is this trace's predicted leakage for guess g; must
  /// have exactly num_guesses entries.
  void add_trace(const std::vector<int>& hypotheses, const Trace& trace);

  [[nodiscard]] GenericCpaResult solve() const;
  [[nodiscard]] int num_guesses() const { return num_guesses_; }

  /// Per-cycle Pearson rho for one guess over the admitted window
  /// (constant-energy cycles report 0).  Lets callers reason about *where*
  /// a hypothesis correlates — MLPA reads the signed rho at the peak-|rho|
  /// cycle, where solve()'s window-max would blur sign information.
  [[nodiscard]] std::vector<double> correlation_series(int guess) const;

 private:
  /// Adds ring traces [first, last) into cycles [begin, end) of the sums.
  void fold(std::size_t begin, std::size_t end, std::size_t first,
            std::size_t last) const;
  /// Folds every ring trace not yet absorbed (before reading the sums).
  void fold_all() const;

  int num_guesses_;
  TraceWindow window_;
  bool signed_correlation_;
  std::size_t traces_ = 0;
  std::vector<double> sum_h_;   // [guess]
  std::vector<double> sum_h2_;  // [guess]
  // The per-cycle sums and the ring still owing them traces.  solve() and
  // correlation_series() fold the outstanding traces in first, so they
  // write this state though const: a GenericCpa has one consumer, and no
  // call on it may overlap another.
  struct Accumulators {
    TraceRing ring;
    std::vector<double> hyp;     // [slot * num_guesses + guess]
    std::vector<double> sum_t;   // [cycle]
    std::vector<double> sum_t2;  // [cycle]
    std::vector<double> sum_ht;  // [cycle * num_guesses + guess]
  };
  mutable Accumulators acc_;
};

}  // namespace emask::analysis
