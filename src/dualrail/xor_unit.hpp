// 32-bit dual-rail pre-charged XOR unit (paper Fig. 5).
//
// The required rail computes a_i XOR b_i per bit with a dynamic gate; the
// complementary rail computes NOT(a_i XOR b_i).  When an instruction's
// secure bit is set, both rails evaluate, so exactly 32 of the 64 nodes
// discharge each cycle and the recharge energy is a constant
// 32 * C_node * Vdd^2 regardless of the operand values.  When the secure bit
// is clear, the complementary rail's evaluation clock is gated off
// ("secure & v" in the paper's figure), halving the energy but making it
// data-dependent again.
//
// Every node is a DynamicNode of the same capacitance, so the circuit's
// state is just which nodes the last evaluation discharged (one mask per
// rail), and a cycle's pre-charge energy depends only on how many of them
// there are: the unit keeps the two masks and a table of those energies.
#pragma once

#include <array>
#include <cstdint>

#include "util/bitops.hpp"

namespace emask::dualrail {

/// Per-cycle energy report of a dual-rail unit, in joules.
struct CycleEnergy {
  double precharge = 0.0;
  double evaluate = 0.0;  // conduction losses are folded into precharge cost
  [[nodiscard]] double total() const { return precharge + evaluate; }
};

class DualRailXor32 {
 public:
  DualRailXor32(double node_cap_farads, double vdd);

  /// Runs one full clock cycle (pre-charge phase then evaluation phase) with
  /// operands `a` and `b`.  `secure` enables the complementary rail.
  /// Returns the supply energy drawn this cycle.
  CycleEnergy cycle(std::uint32_t a, std::uint32_t b, bool secure);

  /// Result latched at the end of the last evaluation (true rail).  The
  /// output inverter reads 1 where the node discharged, 0 where it held.
  [[nodiscard]] std::uint32_t result() const { return true_discharged_; }

  /// Number of nodes (true + complement rails) discharged during the last
  /// evaluation.  With `secure` this is always 32.
  [[nodiscard]] int discharged_nodes() const {
    return util::popcount(
        true_discharged_ |
        static_cast<std::uint64_t>(complement_discharged_) << 32);
  }

 private:
  /// precharge_sums_[k]: the supply energy of recharging k nodes, summed one
  /// node at a time as the circuit's node-by-node pre-charge accumulates it
  /// (nodes that stayed charged add an exact 0.0), so each entry is
  /// bit-identical to metering the individual DynamicNodes.
  std::array<double, 65> precharge_sums_{};
  std::uint32_t true_discharged_ = 0;        // true-rail nodes (a ^ b)
  std::uint32_t complement_discharged_ = 0;  // complement nodes, ~(a ^ b)
};

}  // namespace emask::dualrail
