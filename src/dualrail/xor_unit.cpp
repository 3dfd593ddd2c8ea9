#include "dualrail/xor_unit.hpp"

namespace emask::dualrail {

DualRailXor32::DualRailXor32(double node_cap_farads, double vdd) {
  // The same C * Vdd^2 product DynamicNode meters per recharge.
  const double recharge = node_cap_farads * vdd * vdd;
  for (std::size_t k = 1; k < precharge_sums_.size(); ++k) {
    precharge_sums_[k] = precharge_sums_[k - 1] + recharge;
  }
}

CycleEnergy DualRailXor32::cycle(std::uint32_t a, std::uint32_t b,
                                 bool secure) {
  CycleEnergy e;
  // Phase 1 (v = 0): pre-charge.  Every node the last evaluation discharged
  // is recharged; the complementary rail too, which costs nothing after
  // gated cycles because it never discharged.
  e.precharge =
      precharge_sums_[static_cast<std::size_t>(discharged_nodes())];
  // Phase 2 (v = 1): evaluate.  The true rail discharges where a^b == 1.
  // The complementary rail's clock is "secure & v": it only evaluates for
  // secure instructions, where it discharges where a^b == 0.
  const std::uint32_t x = a ^ b;
  true_discharged_ = x;
  complement_discharged_ = secure ? ~x : 0u;
  return e;
}

}  // namespace emask::dualrail
