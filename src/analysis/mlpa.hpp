// Multi-Linear cryptanalysis in Power Analysis attacks (MLPA), after
// Roche & Tavernier: instead of predicting one intermediate bit exactly
// (DPA) or a Hamming weight (CPA), combine *several linear approximations*
// of the S-box.  For S-box S and masks (a, b), the approximation
//
//   parity(a & x)  ==  parity(b & S(x))      with probability 1/2 + eps
//
// turns the public expanded-input chunk e into a biased predictor of a
// keyed output bit: under key chunk k the S-box input is x = e ^ k, so
// parity(a & e) = parity(a & x) ^ parity(a & k) — a selection function the
// attacker can evaluate without knowing k, whose correlation with the
// target bit's leakage carries sign (-1)^parity(a & k).
//
// Each approximation j therefore needs only ONE hypothesis sequence —
// parity(a_j & e) — tracked by a single-guess GenericCpa engine.  Its
// per-cycle signed correlation series rho_j is the evidence; guess g
// claims the match direction f_j(g) = parity(a_j & g) ^ (eps_j < 0) and
// the combined statistic sums, per target output bit, the best cycle of
// the coherently signed series:
//
//   T(g) = sum_bit max_c sum_{j: out bit} (-1)^f_j(g) * rho_j(c)
//
// At g = k every term targeting a bit is positive at the cycle where that
// bit's leakage lives; a wrong guess d = g ^ k != 0 flips the terms with
// parity(a_j & d) = 1 and cancels at every cycle, provided the in_masks
// {a_j} span GF(2)^6 so at least one term flips for every d.
// select_approximations() guarantees the span and restricts the table to
// approximations that can actually see this device's leakage:
//
//   * out_mask is a single bit — the card stores each S-box output bit in
//     its own word, and the parity of two independent uniform bits has
//     zero correlation with either bit's individual leakage;
//   * in_mask has >= 2 bits — a single-bit in_mask makes the selection
//     function a raw bit of the *public* input e, which correlates
//     strongly and key-independently with the card's input-handling
//     cycles, swamping the keyed signal.
//
// Where single-bit DPA needs the exact S-box model, MLPA degrades
// gracefully with model error (each approximation is only 1/2 + eps right
// to begin with) — the stronger 2009-era adversary the paper's 2003
// selective-masking evaluation never faced.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/generic_cpa.hpp"
#include "analysis/hypothesis.hpp"
#include "analysis/trace.hpp"

namespace emask::analysis {

/// One linear approximation of a DES S-box.
struct LinearApprox {
  int sbox = 0;      // 0..7
  int in_mask = 0;   // 6-bit mask a over the S-box input
  int out_mask = 0;  // 4-bit mask b over the S-box output (bit 3 = MSB)
  double bias = 0.0; // signed eps in [-1/2, 1/2]
};

/// The exact bias eps of parity(in_mask & x) == parity(out_mask & S(x))
/// over the 64 S-box inputs (a scaled Walsh coefficient of the S-box).
[[nodiscard]] double sbox_linear_bias(int sbox, int in_mask, int out_mask);

/// The approximation set MLPA runs with: per multi-bit in_mask, its
/// dominant single-output-bit coefficient (same-in_mask approximations
/// share one selection function, so only the interpretation differs).
/// The `max_count` highest-|bias| candidates (deterministic tie-break by
/// mask) are extended greedily until the in_masks span GF(2)^6 so every
/// wrong guess is distinguished from the key.
[[nodiscard]] std::vector<LinearApprox> select_approximations(
    int sbox, std::size_t max_count);

struct MlpaConfig {
  int sbox = 0;  // target S-box of round 1, 0..7
  std::size_t window_begin = 0;
  std::size_t window_end = SIZE_MAX;
  /// Approximations to combine (before the span-completing extension).
  std::size_t max_approx = 10;
};

struct MlpaResult {
  int best_guess = -1;
  double best_score = 0.0;  // combined statistic T of the best guess
  std::array<double, 64> score_per_guess{};
  std::size_t traces_used = 0;

  [[nodiscard]] double margin() const;
};

/// Streaming MLPA accumulator: feed (plaintext, trace) pairs, then solve.
class MlpaAttack {
 public:
  explicit MlpaAttack(const MlpaConfig& config);

  /// Test hook (the scalar reference for the bitsliced parity plane): the
  /// selection function parity(in_mask & e) for the public round-1
  /// expanded-input chunk e of `sbox`.
  [[nodiscard]] static int selection_parity(std::uint64_t plaintext, int sbox,
                                            int in_mask);

  /// Installs a batched hypothesis backend supplying one selection parity
  /// per approximation (in approximations() order).  Null restores the
  /// scalar path.
  void set_provider(std::shared_ptr<HypothesisProvider> provider);

  void add_trace(std::uint64_t plaintext, const Trace& trace);
  [[nodiscard]] MlpaResult solve() const;

  [[nodiscard]] const std::vector<LinearApprox>& approximations() const {
    return approx_;
  }

 private:
  MlpaConfig config_;
  std::vector<LinearApprox> approx_;
  std::shared_ptr<HypothesisProvider> provider_;
  std::vector<int> parities_;
  /// One single-hypothesis engine per approximation tracking the
  /// selection parity's per-cycle correlation.
  std::vector<GenericCpa> engines_;
};

}  // namespace emask::analysis
