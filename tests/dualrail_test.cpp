// Gate-level dual-rail circuit models (paper Figs. 3 and 5) and the
// energy-model structures they are the oracles for.  The whole point of
// the circuits is that the *number* of nodes discharging per cycle — and
// hence the supply energy — is independent of the operand data in secure
// mode.  The energy model prices the same structures in closed form
// (energy::MaskableBus, MaskableLatch, DynamicUnit, dualrail::DualRailXor32);
// the node- and line-level models here must agree with it bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "bitslice/hamming.hpp"
#include "dualrail/xor_unit.hpp"
#include "energy/activity.hpp"
#include "energy/maskable.hpp"
#include "energy/model.hpp"
#include "energy/params.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace emask::dualrail {
namespace {

constexpr double kVdd = 2.5;
constexpr double kNodeCap = 3e-15;  // paper-calibrated XOR node

// ---- Gate-level oracles ----

// Dynamic (pre-charged / domino style) logic node.  In the first clock
// phase (v = 0) the output node is pre-charged to 1; in the evaluation
// phase (v = 1) the pull-down network conditionally discharges it.  Supply
// energy is drawn whenever a node is re-charged after having been
// discharged, so per-cycle energy is
//     E = C_node * Vdd^2 * (#nodes recharged this cycle).
// A dual-rail pair (true + complement) guarantees exactly one of the two
// nodes discharges every evaluation, making the count input-independent.
class DynamicNode {
 public:
  DynamicNode(double node_cap_farads, double vdd)
      : recharge_energy_joules_(node_cap_farads * vdd * vdd) {}

  /// Pre-charge phase: recharges the node if it was discharged.  Returns
  /// the supply energy drawn, in joules.
  double precharge() {
    if (charged_) return 0.0;
    charged_ = true;
    return recharge_energy_joules_;
  }

  /// Evaluation phase: `pulldown_active` discharges the node.  Discharging
  /// draws no supply energy; the cost is paid at the next pre-charge.
  void evaluate(bool pulldown_active) {
    if (pulldown_active) charged_ = false;
  }

  [[nodiscard]] bool charged() const { return charged_; }

  /// Logic value at the end of evaluation: 1 if still charged.
  [[nodiscard]] bool output() const { return charged_; }

 private:
  double recharge_energy_joules_;
  bool charged_ = true;  // powered up in the pre-charged state
};

/// Conventional single-rail static bus of `width` (<= 64) lines, walked one
/// line at a time: a line draws C * Vdd^2 when driven 0 -> 1, so energy
/// depends on the Hamming relationship of consecutive words (the paper's
/// 6.25 pJ 1 pF wire example).
class StaticBus {
 public:
  StaticBus(int width, double wire_cap_farads, double vdd)
      : width_(width), line_energy_joules_(wire_cap_farads * vdd * vdd) {}

  /// Drives `value`; returns the supply energy drawn (rising lines only).
  double transfer(std::uint64_t value) {
    int rising = 0;
    for (int i = 0; i < width_; ++i) {
      const bool was = util::bit_of64(last_, static_cast<unsigned>(i)) != 0;
      const bool now = util::bit_of64(value, static_cast<unsigned>(i)) != 0;
      if (now && !was) ++rising;
      last_ = (last_ & ~(1ull << i)) | (static_cast<std::uint64_t>(now) << i);
    }
    return line_energy_joules_ * rising;
  }

  [[nodiscard]] std::uint64_t last_value() const { return last_; }

 private:
  int width_;
  double line_energy_joules_;
  std::uint64_t last_ = 0;
};

/// The paper's secure bus (Sec. 4.2): the data lines are doubled (true +
/// complement) and pre-charged to 1 in the first clock phase; in the
/// evaluation phase exactly one line of each pair discharges, so every
/// cycle after the first recharges exactly `width` lines, whatever the
/// data.  Power-up leaves all lines high, so the first cycle pays nothing.
class PrechargedDualRailBus {
 public:
  PrechargedDualRailBus(int width, double wire_cap_farads, double vdd)
      : width_(width), line_energy_joules_(wire_cap_farads * vdd * vdd) {}

  double transfer(std::uint64_t value) {
    (void)value;  // by construction the energy does not depend on the data
    last_recharged_ = warm_ ? width_ : 0;
    warm_ = true;
    return line_energy_joules_ * last_recharged_;
  }

  /// Lines recharged during the last transfer (== width in steady state).
  [[nodiscard]] int last_recharged() const { return last_recharged_; }

 private:
  int width_;
  double line_energy_joules_;
  bool warm_ = false;  // false until the first evaluation has discharged
  int last_recharged_ = 0;
};

/// 32-bit dual-rail pre-charged ripple-carry adder: the secure address
/// path of Fig. 3.  Per bit, dynamic nodes for the sum and the carry; the
/// complementary rail computes their negations.  Secure mode discharges
/// one node of every pair (64 discharges, data-independent); the gated
/// normal mode discharges popcount(sum) + popcount(carries) nodes.
class DualRailAdder32 {
 public:
  DualRailAdder32(double node_cap_farads, double vdd) {
    for (int i = 0; i < 32; ++i) {
      sum_true_.emplace_back(node_cap_farads, vdd);
      sum_comp_.emplace_back(node_cap_farads, vdd);
      carry_true_.emplace_back(node_cap_farads, vdd);
      carry_comp_.emplace_back(node_cap_farads, vdd);
    }
  }

  /// One pre-charge + evaluate cycle computing a + b.
  CycleEnergy cycle(std::uint32_t a, std::uint32_t b, bool secure) {
    CycleEnergy e;
    for (std::size_t i = 0; i < 32; ++i) {
      e.precharge += sum_true_[i].precharge();
      e.precharge += sum_comp_[i].precharge();
      e.precharge += carry_true_[i].precharge();
      e.precharge += carry_comp_[i].precharge();
    }
    // Evaluate: ripple the carries, discharging nodes as values resolve.
    sum_discharged_ = 0;
    carry_discharged_ = 0;
    std::uint32_t carry = 0;
    std::uint32_t sum = 0;
    for (unsigned i = 0; i < 32; ++i) {
      const std::uint32_t ai = util::bit_of(a, i);
      const std::uint32_t bi = util::bit_of(b, i);
      const std::uint32_t si = ai ^ bi ^ carry;
      const std::uint32_t ci = (ai & bi) | (ai & carry) | (bi & carry);
      sum |= si << i;
      sum_true_[i].evaluate(si != 0);
      carry_true_[i].evaluate(ci != 0);
      sum_discharged_ += static_cast<int>(si);
      carry_discharged_ += static_cast<int>(ci);
      if (secure) {
        sum_comp_[i].evaluate(si == 0);
        carry_comp_[i].evaluate(ci == 0);
        sum_discharged_ += static_cast<int>(1 - si);
        carry_discharged_ += static_cast<int>(1 - ci);
      }
      carry = ci;
    }
    result_ = sum;
    return e;
  }

  [[nodiscard]] std::uint32_t result() const { return result_; }
  [[nodiscard]] int discharged_nodes() const {
    return sum_discharged_ + carry_discharged_;
  }
  /// Sum-rail nodes (true + complement) the last evaluation discharged.
  [[nodiscard]] int sum_discharged() const { return sum_discharged_; }

 private:
  std::vector<DynamicNode> sum_true_;
  std::vector<DynamicNode> sum_comp_;
  std::vector<DynamicNode> carry_true_;
  std::vector<DynamicNode> carry_comp_;
  std::uint32_t result_ = 0;
  int sum_discharged_ = 0;
  int carry_discharged_ = 0;
};

/// A bank of `width` (<= 64) true/complement DynamicNode pairs that
/// evaluates a word and pre-charges again within the same cycle — the
/// pre-charged structures the energy model prices history-free (pipeline
/// registers, functional-unit result nodes).  A true node discharges where
/// its bit is 1; the complement rail evaluates only on a secure cycle and
/// discharges where the bit is 0.  Returns the nodes recharged.
class NodeLevelRail {
 public:
  explicit NodeLevelRail(int width) {
    for (int i = 0; i < width; ++i) {
      true_rail_.emplace_back(1.0, 1.0);  // counts recharges, not joules
      complement_rail_.emplace_back(1.0, 1.0);
    }
  }

  int evaluate(std::uint64_t word, bool secure) {
    for (unsigned i = 0; i < true_rail_.size(); ++i) {
      const bool bit = util::bit_of64(word, i) != 0;
      true_rail_[i].evaluate(bit);
      if (secure) complement_rail_[i].evaluate(!bit);
    }
    int recharged = 0;
    for (std::size_t i = 0; i < true_rail_.size(); ++i) {
      recharged += true_rail_[i].precharge() > 0.0 ? 1 : 0;
      recharged += complement_rail_[i].precharge() > 0.0 ? 1 : 0;
    }
    return recharged;
  }

 private:
  std::vector<DynamicNode> true_rail_;
  std::vector<DynamicNode> complement_rail_;
};

/// energy::MaskableBus rebuilt from the gate-level buses.  The true lines
/// are a StaticBus.  A secure transfer runs a PrechargedDualRailBus —
/// warmed up, so every transfer recharges `width` lines — and leaves every
/// true line pre-charged high.  A random transfer pre-charges the true
/// lines to `rand`, then drives `value`: each line whose two levels differ
/// switches once.  Coupling events are walked pair by pair with the
/// scalar references of bitslice/hamming.hpp.
class BusOracle {
 public:
  BusOracle(int width, double wire_cap_farads, double coupling_cap_farads)
      : width_(width),
        mask_(width >= 64 ? ~0ull : (1ull << width) - 1ull),
        line_energy_(wire_cap_farads * kVdd * kVdd),
        coupling_energy_(coupling_cap_farads * kVdd * kVdd),
        lines_(width, wire_cap_farads, kVdd),
        dual_rail_(width, wire_cap_farads, kVdd) {
    (void)dual_rail_.transfer(0);  // past the free power-up cycle
  }

  double normal(std::uint64_t value) {
    const double coupling =
        coupling_energy_ * bitslice::coupling_events_scalar(
                               lines_.last_value(), value & mask_, width_);
    return lines_.transfer(value) + coupling;
  }

  double secure(std::uint64_t value) {
    const double coupling =
        coupling_energy_ * bitslice::secure_opposing_scalar(value & mask_,
                                                            width_);
    // The dual-rail bus paid for the recharge that leaves the lines high.
    (void)lines_.transfer(mask_);
    return dual_rail_.transfer(value) + coupling;
  }

  double random(std::uint64_t value, std::uint64_t rand) {
    int switched = 0;
    for (unsigned i = 0; i < static_cast<unsigned>(width_); ++i) {
      if (util::bit_of64(value, i) != util::bit_of64(rand, i)) ++switched;
    }
    const double coupling =
        coupling_energy_ *
        bitslice::coupling_events_scalar(rand & mask_, value & mask_, width_);
    (void)lines_.transfer(rand);   // pre-charge phase sets the lines...
    (void)lines_.transfer(value);  // ...and evaluation leaves `value`
    return line_energy_ * switched + coupling;
  }

 private:
  int width_;
  std::uint64_t mask_;
  double line_energy_;
  double coupling_energy_;
  StaticBus lines_;
  PrechargedDualRailBus dual_rail_;
};

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

// ---- The energy model's structures against the gate-level oracles ----

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(GateLevelOracle, MaskableBusNormalSecureAndRandomTransfers) {
  const energy::TechParams p;
  for (const int width : {32, 33}) {
    for (const double coupling_cap : {0.0, 20e-15}) {
      SCOPED_TRACE(testing::Message() << "width " << width << " coupling "
                                      << coupling_cap);
      energy::MaskableBus bus(width, p.line_energy(p.c_instr_bus_line),
                              p.line_energy(coupling_cap));
      BusOracle oracle(width, p.c_instr_bus_line, coupling_cap);
      util::Rng rng(0xB05 + static_cast<std::uint64_t>(width));
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t value = rng.next_u64();
        double got = 0.0;
        double want = 0.0;
        switch (rng.next_below(3)) {
          case 0:
            got = bus.transfer(value, false);
            want = oracle.normal(value);
            break;
          case 1:
            got = bus.transfer(value, true);
            want = oracle.secure(value);
            break;
          default: {
            const std::uint64_t rand = rng.next_u64();
            got = bus.transfer_random(value, rand);
            want = oracle.random(value, rand);
          }
        }
        ASSERT_TRUE(same_bits(got, want))
            << "step " << step << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(GateLevelOracle, MaskableLatchAtEverySlotWidth) {
  const energy::TechParams p;
  const energy::MaskableLatch latch(p.line_energy(p.c_latch_bit));
  for (const int width : {33, 64, 32}) {
    NodeLevelRail rail(width);
    util::Rng rng(0x1A7C + static_cast<std::uint64_t>(width));
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t payload = rng.next_u64();
      const bool secure = rng.next_below(2) != 0;
      const double want =
          p.line_energy(p.c_latch_bit) * rail.evaluate(payload, secure);
      ASSERT_TRUE(same_bits(latch.write(payload, width, secure), want))
          << "width " << width << " step " << step;
    }
  }
}

TEST(GateLevelOracle, DynamicUnitPricesTheAdderSumRail) {
  // The energy model's adder is the dual-rail adder's sum rail: normal
  // mode discharges popcount(a + b) sum nodes, secure mode exactly 32.
  const energy::TechParams p;
  const double node_energy = p.line_energy(p.c_adder_node);
  const energy::DynamicUnit unit(node_energy, p.e_unit_base);
  DualRailAdder32 adder(p.c_adder_node, p.vdd);
  util::Rng rng(0xADD);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    const bool secure = rng.next_below(2) != 0;
    (void)adder.cycle(a, b, secure);
    const double want = p.e_unit_base + node_energy * adder.sum_discharged();
    ASSERT_TRUE(same_bits(unit.evaluate(adder.result(), secure), want))
        << "step " << step;
  }
}

// The whole model, without random precharge, against the oracles: every
// gate-level component's breakdown total must equal the oracle's sum of
// the same cycles in the same order.  Under wddl every structure takes
// its secure path whatever the instruction's secure bit says.
void expect_model_matches_oracles(energy::HidingMode mode,
                                  const energy::TechParams& p) {
  using energy::Component;
  energy::ProcessorEnergyModel model(p, energy::HidingConfig{mode, 0});
  const bool wddl = mode == energy::HidingMode::kConstant;
  BusOracle instr_bus(33, p.c_instr_bus_line, p.c_bus_coupling);
  BusOracle addr_bus(32, p.c_addr_bus_line, p.c_bus_coupling);
  BusOracle data_bus(32, p.c_data_bus_line, p.c_bus_coupling);
  NodeLevelRail unit_nodes(32);
  NodeLevelXor32 xor_unit(p.c_xor_node, p.vdd);
  std::array<NodeLevelRail, 4> latches{NodeLevelRail(33), NodeLevelRail(64),
                                       NodeLevelRail(64), NodeLevelRail(32)};
  std::array<double, energy::kNumComponents> sums{};
  const auto add = [&](Component c, double joules) {
    sums[static_cast<std::size_t>(c)] += joules;
  };
  const auto bus = [](BusOracle& b, std::uint64_t value, bool secure) {
    return secure ? b.secure(value) : b.normal(value);
  };
  util::Rng rng(0x0AC1E);
  const auto flag = [&] { return rng.next_below(4) != 0; };
  for (int step = 0; step < 5000; ++step) {
    energy::CycleActivity a;
    a.fetch = flag();
    a.fetch_bits = rng.next_u64();
    a.ex.valid = flag();
    a.ex.unit = static_cast<isa::FuncUnit>(rng.next_below(5));
    a.ex.secure = rng.next_below(2) != 0;
    a.ex.a = rng.next_u32();
    a.ex.b = rng.next_u32();
    a.ex.result = rng.next_u32();
    a.mem.read = flag();
    a.mem.secure = rng.next_below(2) != 0;
    a.mem.address = rng.next_u32();
    a.mem.data = rng.next_u32();
    for (energy::LatchWrite* w : {&a.if_id, &a.id_ex, &a.ex_mem, &a.mem_wb}) {
      *w = energy::LatchWrite{flag(), rng.next_below(2) != 0, rng.next_u64()};
    }
    (void)model.cycle(a);

    if (a.fetch) add(Component::kInstrBus, bus(instr_bus, a.fetch_bits, wddl));
    if (a.ex.valid) {
      const bool secure = wddl || a.ex.secure;
      const auto unit = [&](Component c, double node_cap) {
        add(c, p.e_unit_base + p.line_energy(node_cap) *
                                   unit_nodes.evaluate(a.ex.result, secure));
      };
      switch (a.ex.unit) {
        case isa::FuncUnit::kAdder:
          unit(Component::kAdder, p.c_adder_node);
          break;
        case isa::FuncUnit::kLogic:
          unit(Component::kLogicUnit, p.c_logic_node);
          break;
        case isa::FuncUnit::kShifter:
          unit(Component::kShifter, p.c_shift_node);
          break;
        case isa::FuncUnit::kXorUnit:
          add(Component::kXorUnit,
              xor_unit.cycle(a.ex.a, a.ex.b, secure).total());
          break;
        case isa::FuncUnit::kNone:
          break;
      }
    }
    if (a.mem.read) {
      const bool secure = wddl || a.mem.secure;
      add(Component::kAddrBus, bus(addr_bus, a.mem.address, secure));
      add(Component::kDataBus, bus(data_bus, a.mem.data, secure));
    }
    const std::array<std::pair<Component, const energy::LatchWrite*>, 4>
        slots{{{Component::kPipeIfId, &a.if_id},
               {Component::kPipeIdEx, &a.id_ex},
               {Component::kPipeExMem, &a.ex_mem},
               {Component::kPipeMemWb, &a.mem_wb}}};
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const energy::LatchWrite& w = *slots[i].second;
      if (!w.wrote) continue;
      add(slots[i].first, p.line_energy(p.c_latch_bit) *
                              latches[i].evaluate(w.payload, wddl || w.secure));
    }
  }
  for (const Component c :
       {Component::kInstrBus, Component::kAdder, Component::kLogicUnit,
        Component::kShifter, Component::kXorUnit, Component::kPipeIfId,
        Component::kPipeIdEx, Component::kPipeExMem, Component::kPipeMemWb,
        Component::kAddrBus, Component::kDataBus}) {
    EXPECT_TRUE(same_bits(model.breakdown().get(c),
                          sums[static_cast<std::size_t>(c)]))
        << energy::component_name(c) << ": " << model.breakdown().get(c)
        << " vs " << sums[static_cast<std::size_t>(c)];
  }
}

TEST(GateLevelOracle, MaskingOnlyModelFollowsSecureBits) {
  expect_model_matches_oracles(energy::HidingMode::kNone,
                               energy::TechParams::smartcard_025um());
  expect_model_matches_oracles(
      energy::HidingMode::kNone,
      energy::TechParams::smartcard_025um_with_coupling());
}

TEST(GateLevelOracle, WddlForcesEveryStructureOntoItsSecurePath) {
  expect_model_matches_oracles(energy::HidingMode::kConstant,
                               energy::TechParams::smartcard_025um());
  expect_model_matches_oracles(
      energy::HidingMode::kConstant,
      energy::TechParams::smartcard_025um_with_coupling());
}

}  // namespace
}  // namespace emask::dualrail
