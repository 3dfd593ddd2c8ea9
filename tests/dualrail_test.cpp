// Gate-level dual-rail circuit model (paper Fig. 5): the whole point is
// that the *number* of nodes discharging per cycle — and hence the supply
// energy — is independent of the operand data in secure mode.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dualrail/adder_unit.hpp"
#include "dualrail/dynamic_gate.hpp"
#include "dualrail/precharged_bus.hpp"
#include "dualrail/xor_unit.hpp"
#include "util/rng.hpp"

namespace emask::dualrail {
namespace {

constexpr double kVdd = 2.5;
constexpr double kNodeCap = 3e-15;  // paper-calibrated XOR node

TEST(DynamicNode, PrechargeOnlyPaysAfterDischarge) {
  DynamicNode n(1e-12, kVdd);
  EXPECT_EQ(n.precharge(), 0.0);  // powered up charged
  n.evaluate(false);
  EXPECT_EQ(n.precharge(), 0.0);  // did not discharge
  n.evaluate(true);
  EXPECT_FALSE(n.charged());
  const double e = n.precharge();
  EXPECT_DOUBLE_EQ(e, 1e-12 * kVdd * kVdd);  // C*V^2 = 6.25 pJ for 1 pF
  EXPECT_TRUE(n.charged());
}

TEST(DynamicNode, PaperWireExampleSixPointTwoFivePicojoules) {
  // Sec. 4.2: "for an internal wire of 1pF and a supply voltage of 2.5V,
  // the first case consumes 6.25pJ more energy than the second case."
  DynamicNode n(1e-12, 2.5);
  n.evaluate(true);
  EXPECT_NEAR(n.precharge() * 1e12, 6.25, 1e-9);
}

TEST(DualRailXor, ComputesXor) {
  DualRailXor32 x(kNodeCap, kVdd);
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    x.cycle(a, b, (i & 1) != 0);
    EXPECT_EQ(x.result(), a ^ b);
  }
}

TEST(DualRailXor, SecureModeDischargesExactly32Nodes) {
  DualRailXor32 x(kNodeCap, kVdd);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    x.cycle(rng.next_u32(), rng.next_u32(), /*secure=*/true);
    EXPECT_EQ(x.discharged_nodes(), 32);
  }
}

TEST(DualRailXor, SecureSteadyStateEnergyIsConstant) {
  DualRailXor32 x(kNodeCap, kVdd);
  util::Rng rng(4);
  x.cycle(rng.next_u32(), rng.next_u32(), true);  // warm up
  const double first = x.cycle(rng.next_u32(), rng.next_u32(), true).total();
  for (int i = 0; i < 100; ++i) {
    const double e = x.cycle(rng.next_u32(), rng.next_u32(), true).total();
    EXPECT_DOUBLE_EQ(e, first);
  }
  // Paper: 0.6 pJ in secure mode.
  EXPECT_NEAR(first * 1e12, 0.6, 0.01);
}

TEST(DualRailXor, NormalModeEnergyIsDataDependent) {
  DualRailXor32 x(kNodeCap, kVdd);
  // Steady-state normal mode: energy follows popcount of the previous
  // result (that is what gets recharged).
  x.cycle(0xFFFFFFFFu, 0, false);  // result all-ones: 32 discharges
  const double heavy = x.cycle(0, 0, false).precharge;  // recharge 32
  const double light = x.cycle(0, 0, false).precharge;  // recharge 0
  EXPECT_GT(heavy, light);
  EXPECT_DOUBLE_EQ(light, 0.0);
  EXPECT_NEAR(heavy * 1e12, 0.6, 0.01);  // 32 nodes = the secure constant
}

TEST(DualRailXor, NormalModeAveragesHalfTheSecureEnergy) {
  // Paper: "as opposed to energy consumption of 0.6pJ in the secure mode,
  // the XOR unit consumes only 0.3pJ in the normal mode" (random data).
  DualRailXor32 x(kNodeCap, kVdd);
  util::Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += x.cycle(rng.next_u32(), rng.next_u32(), false).total();
  }
  EXPECT_NEAR(sum / n * 1e12, 0.3, 0.01);
}

TEST(DualRailXor, GatedComplementRailCostsNothingWhenUnused) {
  // Running only normal cycles, the complement rail never discharges, so a
  // later secure cycle's precharge pays only for the true rail's history.
  DualRailXor32 x(kNodeCap, kVdd);
  x.cycle(0, 0, false);  // result 0: nothing discharges anywhere
  const CycleEnergy e = x.cycle(0xFFFF0000u, 0, true);
  EXPECT_DOUBLE_EQ(e.precharge, 0.0);  // nothing to recharge yet
  EXPECT_EQ(x.discharged_nodes(), 32);
}

// Per-node reference model of the Fig. 5 XOR: 64 DynamicNodes driven
// through the two clock phases exactly as the circuit prescribes.
// DualRailXor32 computes the same thing in closed form and must match it
// bit for bit.
class NodeLevelXor32 {
 public:
  NodeLevelXor32(double node_cap_farads, double vdd) {
    for (int i = 0; i < 32; ++i) {
      true_rail_.emplace_back(node_cap_farads, vdd);
      complement_rail_.emplace_back(node_cap_farads, vdd);
    }
  }

  CycleEnergy cycle(std::uint32_t a, std::uint32_t b, bool secure) {
    CycleEnergy e;
    for (std::size_t i = 0; i < 32; ++i) {
      e.precharge += true_rail_[i].precharge();
      e.precharge += complement_rail_[i].precharge();
    }
    const std::uint32_t x = a ^ b;
    discharged_ = 0;
    for (unsigned i = 0; i < 32; ++i) {
      const bool bit = ((x >> i) & 1u) != 0;
      true_rail_[i].evaluate(bit);
      if (bit) ++discharged_;
      if (secure) {
        complement_rail_[i].evaluate(!bit);
        if (!bit) ++discharged_;
      }
    }
    result_ = 0;
    for (unsigned i = 0; i < 32; ++i) {
      if (!true_rail_[i].output()) result_ |= 1u << i;
    }
    return e;
  }

  [[nodiscard]] std::uint32_t result() const { return result_; }
  [[nodiscard]] int discharged_nodes() const { return discharged_; }

 private:
  std::vector<DynamicNode> true_rail_;
  std::vector<DynamicNode> complement_rail_;
  std::uint32_t result_ = 0;
  int discharged_ = 0;
};

TEST(DualRailXor, ClosedFormMatchesNodeLevelModel) {
  DualRailXor32 unit(kNodeCap, kVdd);
  NodeLevelXor32 reference(kNodeCap, kVdd);
  util::Rng rng(0xF15);
  for (int step = 0; step < 100000; ++step) {
    const std::uint32_t a = rng.next_u32();
    // Equal and complementary operands reach the extreme node counts.
    const std::uint64_t kind = rng.next_below(4);
    const std::uint32_t b = kind == 0   ? a
                            : kind == 1 ? ~a
                                        : rng.next_u32();
    const bool secure = rng.next_below(2) != 0;
    const CycleEnergy got = unit.cycle(a, b, secure);
    const CycleEnergy want = reference.cycle(a, b, secure);
    ASSERT_EQ(std::memcmp(&got.precharge, &want.precharge, sizeof(double)), 0)
        << "step " << step << ": " << got.precharge << " vs "
        << want.precharge;
    ASSERT_EQ(std::memcmp(&got.evaluate, &want.evaluate, sizeof(double)), 0)
        << "step " << step;
    ASSERT_EQ(unit.discharged_nodes(), reference.discharged_nodes())
        << "step " << step;
    ASSERT_EQ(unit.result(), reference.result()) << "step " << step;
  }
}

TEST(DualRailAdder, ComputesSum) {
  DualRailAdder32 adder(kNodeCap, kVdd);
  util::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    adder.cycle(a, b, (i & 1) != 0);
    EXPECT_EQ(adder.result(), a + b);
  }
}

TEST(DualRailAdder, SecureModeDischargesExactly64Nodes) {
  // 32 sum pairs + 32 carry pairs, one node of each pair per evaluation.
  DualRailAdder32 adder(kNodeCap, kVdd);
  util::Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    adder.cycle(rng.next_u32(), rng.next_u32(), /*secure=*/true);
    EXPECT_EQ(adder.discharged_nodes(), 64);
  }
}

TEST(DualRailAdder, SecureSteadyStateEnergyConstant) {
  DualRailAdder32 adder(kNodeCap, kVdd);
  util::Rng rng(23);
  adder.cycle(rng.next_u32(), rng.next_u32(), true);  // warm up
  const double first = adder.cycle(rng.next_u32(), rng.next_u32(), true).total();
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(adder.cycle(rng.next_u32(), rng.next_u32(), true).total(),
                     first);
  }
}

TEST(DualRailAdder, NormalModeIsDataDependent) {
  DualRailAdder32 adder(kNodeCap, kVdd);
  // 0xFFFFFFFF + 1: every bit carries, sum = 0 -> 32 discharges (carries).
  adder.cycle(0xFFFFFFFFu, 1, false);
  const int heavy = adder.discharged_nodes();
  adder.cycle(0, 0, false);
  const int light = adder.discharged_nodes();
  EXPECT_GT(heavy, light);
  EXPECT_EQ(light, 0);
}

TEST(StaticBus, RisingEdgesOnly) {
  StaticBus bus(32, 1e-12, kVdd);
  EXPECT_EQ(bus.transfer(0), 0.0);
  const double e1 = bus.transfer(0xF);         // 4 rising
  EXPECT_NEAR(e1 * 1e12, 4 * 6.25, 1e-9);
  EXPECT_EQ(bus.transfer(0xF), 0.0);           // no change
  EXPECT_EQ(bus.transfer(0x3), 0.0);           // falling edges are free
  const double e2 = bus.transfer(0xC);         // 2 rising
  EXPECT_NEAR(e2 * 1e12, 2 * 6.25, 1e-9);
}

TEST(StaticBus, WidthMasksHighBits) {
  StaticBus bus(8, 1e-12, kVdd);
  const double e = bus.transfer(0xFFFFFFFFu);
  EXPECT_NEAR(e * 1e12, 8 * 6.25, 1e-9);
}

TEST(PrechargedBus, ConstantEnergyIndependentOfData) {
  PrechargedDualRailBus bus(32, 1e-12, kVdd);
  (void)bus.transfer(0xDEADBEEF);  // first evaluation: nothing to recharge
  util::Rng rng(6);
  const double steady = bus.transfer(rng.next_u32());
  EXPECT_NEAR(steady * 1e12, 32 * 6.25, 1e-9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(bus.transfer(rng.next_u32()), steady);
    EXPECT_EQ(bus.last_recharged(), 32);
  }
}

TEST(PrechargedBus, FirstCycleRechargesNothing) {
  PrechargedDualRailBus bus(32, 1e-12, kVdd);
  EXPECT_EQ(bus.transfer(0x12345678), 0.0);
  EXPECT_EQ(bus.last_recharged(), 0);
}

}  // namespace
}  // namespace emask::dualrail
