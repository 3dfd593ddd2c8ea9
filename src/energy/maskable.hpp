// Maskable datapath structures: behave as conventional (data-dependent)
// hardware for normal instructions and as dual-rail pre-charged (constant
// energy) hardware when driven by a secure instruction.
#pragma once

#include <cstdint>

#include "bitslice/hamming.hpp"
#include "util/bitops.hpp"

namespace emask::energy {

/// A static bus that can be driven in secure mode.
///
/// Normal transfer: supply energy is drawn for every line that rises 0 -> 1
/// relative to the previously transmitted word (the paper's Sec. 4.2 "values
/// of d in two successive cycles" example).
///
/// Secure transfer: the bus widens to normal + complementary lines, all
/// pre-charged high; exactly `width` of the 2*width lines recharge per
/// cycle, independent of the data.  The lines are left in the pre-charged
/// (all-ones) state, so no residue of the secure value influences — or is
/// leaked by — the next normal transfer.
class MaskableBus {
 public:
  /// `coupling_energy_joules` models inter-wire (adjacent-line) coupling
  /// capacitance, the effect the paper's conclusion flags as the limit of
  /// dual-rail masking: "power consumption differences will also arise due
  /// to signal transitions on adjacent lines of on-chip buses [Sotiriadis &
  /// Chandrakasan].  Current dual-rail encoding schemes do not mask the key
  /// leakage arising due to these differences."  It defaults to zero (the
  /// paper's main model); the coupling ablation experiment turns it on.
  MaskableBus(int width, double line_energy_joules,
              double coupling_energy_joules = 0.0)
      : width_(width),
        mask_(width >= 64 ? ~0ull : ((1ull << width) - 1ull)),
        line_energy_(line_energy_joules),
        coupling_energy_(coupling_energy_joules) {}

  [[nodiscard]] double transfer(std::uint64_t value, bool secure) {
    // Up to 64 lines so the 33-bit instruction word (32-bit encoding plus
    // the secure bit) rides the same model as the 32-bit buses.  Coupling
    // is off in the default TechParams; the [[unlikely]] branches keep the
    // inlined coupling kernels out of the per-cycle hot path.
    value &= mask_;
    if (secure) {
      last_ = mask_;  // lines are pre-charged again after the evaluation
      double coupling = 0.0;
      if (coupling_energy_ > 0.0) [[unlikely]] {
        // Dual-rail layout [d0, ~d0, d1, ~d1, ...]: during evaluation each
        // pair discharges exactly one line, so total switched capacitance
        // is constant — but WHICH line falls depends on the data.  Within
        // a pair the two lines always move oppositely (constant term);
        // across a pair boundary the falling lines are (d_i, ~d_{i+1}),
        // which oppose each other exactly when d_i == d_{i+1}.  Coupling
        // therefore leaks the adjacent-bit-equality pattern even in secure
        // mode — the residual channel the paper warns about.
        coupling = coupling_energy_ * bitslice::secure_opposing(value, width_);
      }
      return line_energy_ * width_ + coupling;
    }
    const std::uint64_t rising = ~last_ & value;
    double coupling = 0.0;
    if (coupling_energy_ > 0.0) [[unlikely]] {
      // delta_i in {-1, 0, +1}: falling, quiet, rising.  Each adjacent
      // pair pays in proportion to how differently its lines move.
      coupling =
          coupling_energy_ * bitslice::coupling_events(last_, value, width_);
    }
    last_ = value;
    return line_energy_ * util::popcount(rising) + coupling;
  }

  /// Random-precharge transfer: the bus is precharged to the random word
  /// `rand` in the first clock phase, then evaluates `value`; every line
  /// whose precharge and evaluation states differ switches.  For uniform
  /// `rand`, popcount(value ^ rand) is Binomial(width, 1/2) regardless of
  /// `value` — the per-cycle energy carries no first-order information
  /// about the data.  History-free by construction: the next cycle
  /// precharges again before anything is driven.
  [[nodiscard]] double transfer_random(std::uint64_t value,
                                       std::uint64_t rand) {
    value &= mask_;
    rand &= mask_;
    double coupling = 0.0;
    if (coupling_energy_ > 0.0) [[unlikely]] {
      coupling =
          coupling_energy_ * bitslice::coupling_events(rand, value, width_);
    }
    last_ = value;
    return line_energy_ * util::popcount(value ^ rand) + coupling;
  }

 private:
  int width_;
  std::uint64_t mask_;  // the low `width_` lines
  double line_energy_;
  double coupling_energy_;
  std::uint64_t last_ = 0;
};

/// A pipeline register modeled as a pre-charged structure: per-cycle energy
/// follows the number of asserted payload bits (value-dependent,
/// history-free).  Secure writes activate the complementary half: constant
/// `width` recharges per cycle.
class MaskableLatch {
 public:
  explicit MaskableLatch(double bit_energy_joules)
      : bit_energy_(bit_energy_joules) {}

  [[nodiscard]] double write(std::uint64_t payload, int width,
                             bool secure) const {
    if (secure) return bit_energy_ * width;
    const std::uint64_t mask =
        width >= 64 ? ~0ull : ((1ull << width) - 1ull);
    return bit_energy_ * util::popcount(payload & mask);
  }

 private:
  double bit_energy_;
};

/// A 32-bit dynamic-logic functional unit (adder / logic / shifter): energy
/// follows the number of asserted result bits plus a fixed activation cost.
/// The secure version evaluates the complementary network as well: constant
/// 32 node recharges.
class DynamicUnit {
 public:
  DynamicUnit(double node_energy_joules, double base_energy_joules)
      : node_energy_(node_energy_joules), base_energy_(base_energy_joules) {}

  [[nodiscard]] double evaluate(std::uint32_t result, bool secure) const {
    const int nodes = secure ? 32 : util::popcount(result);
    return base_energy_ + node_energy_ * nodes;
  }

 private:
  double node_energy_;
  double base_energy_;
};

}  // namespace emask::energy
