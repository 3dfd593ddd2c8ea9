// Processor energy model: maskable structures, per-component accounting,
// and the central security property — secure activity has data-independent
// energy.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "energy/activity.hpp"
#include "energy/components.hpp"
#include "energy/maskable.hpp"
#include "energy/model.hpp"
#include "energy/params.hpp"
#include "util/rng.hpp"

namespace emask::energy {
namespace {

TEST(TechParams, LineEnergyIsCV2) {
  TechParams p;
  EXPECT_NEAR(p.line_energy(1e-12) * 1e12, 6.25, 1e-9);  // paper example
}

TEST(MaskableBus, SecureTransferConstantAndResidueFree) {
  const TechParams p;
  MaskableBus bus(32, p.line_energy(100e-15));
  util::Rng rng(1);
  const double secure = bus.transfer(rng.next_u32(), true);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(bus.transfer(rng.next_u32(), true), secure);
  }
  // After a secure transfer the lines are left pre-charged: the following
  // normal transfer has no rising edges, whatever the secure value was.
  EXPECT_DOUBLE_EQ(bus.transfer(0x12345678u, false), 0.0);
}

TEST(MaskableBus, NormalTransferDependsOnHistory) {
  const TechParams p;
  MaskableBus bus(32, p.line_energy(100e-15));
  (void)bus.transfer(0, false);
  const double e1 = bus.transfer(0xFF, false);
  (void)bus.transfer(0, false);
  (void)bus.transfer(0xFF, false);
  const double e2 = bus.transfer(0xFF00, false);  // 8 rising from 0xFF
  EXPECT_DOUBLE_EQ(e1, e2);
  EXPECT_GT(e1, 0.0);
}

TEST(MaskableBus, CouplingLeaksThroughSecureTransfers) {
  // The ablation of the paper's conclusion: with adjacent-line coupling,
  // secure transfers are no longer data-independent.
  const TechParams p;
  MaskableBus coupled(32, p.line_energy(100e-15), p.line_energy(20e-15));
  const double e1 = coupled.transfer(0x00000000u, true);  // all-equal bits
  const double e2 = coupled.transfer(0x55555555u, true);  // alternating bits
  EXPECT_GT(e1, e2);

  MaskableBus uncoupled(32, p.line_energy(100e-15));
  EXPECT_DOUBLE_EQ(uncoupled.transfer(0x00000000u, true),
                   uncoupled.transfer(0x55555555u, true));
}

TEST(MaskableBus, CouplingChargesOpposingNormalTransitions) {
  const TechParams p;
  const double unit = p.line_energy(10e-15);
  MaskableBus bus(32, 0.0, unit);  // isolate the coupling term
  (void)bus.transfer(0b01u, false);
  // 0b01 -> 0b10: line0 falls while line1 rises (|delta| sum = 2), plus
  // line1-line2 boundary (rise vs quiet = 1): 3 events.
  EXPECT_DOUBLE_EQ(bus.transfer(0b10u, false), 3 * unit);
  // No transitions: no coupling energy.
  EXPECT_DOUBLE_EQ(bus.transfer(0b10u, false), 0.0);
}

// Regression: the instruction bus is 33 lines wide (32-bit encoding plus
// the secure bit), but the transfer path used to truncate values to 32
// bits, so line 32 — the one line whose toggles encode the secure/normal
// instruction boundary — never drew energy.
TEST(MaskableBus, ThirtyThirdLineCarriesEnergy) {
  const TechParams p;
  const double unit = p.line_energy(100e-15);
  MaskableBus bus(33, unit);
  (void)bus.transfer(0, false);
  EXPECT_DOUBLE_EQ(bus.transfer(1ull << 32, false), unit);  // bit 32 rises
  (void)bus.transfer(0, false);
  // Lines beyond the declared width are still masked off.
  EXPECT_DOUBLE_EQ(bus.transfer(1ull << 33, false), 0.0);
}

TEST(MaskableLatch, SecureWriteConstant) {
  const TechParams p;
  const MaskableLatch latch(p.line_energy(p.c_latch_bit));
  util::Rng rng(2);
  const double secure = latch.write(rng.next_u64(), 64, true);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(latch.write(rng.next_u64(), 64, true), secure);
  }
  EXPECT_DOUBLE_EQ(secure, 64 * p.line_energy(p.c_latch_bit));
}

TEST(MaskableLatch, NormalWriteFollowsPopcount) {
  const TechParams p;
  const MaskableLatch latch(p.line_energy(p.c_latch_bit));
  EXPECT_DOUBLE_EQ(latch.write(0, 64, false), 0.0);
  EXPECT_DOUBLE_EQ(latch.write(0xF, 64, false),
                   4 * p.line_energy(p.c_latch_bit));
  // Bits beyond the declared width are ignored.
  EXPECT_DOUBLE_EQ(latch.write(0xF00000000ull, 32, false), 0.0);
}

TEST(DynamicUnit, SecureConstantNormalValueDependent) {
  const TechParams p;
  const DynamicUnit adder(p.line_energy(p.c_adder_node), p.e_unit_base);
  util::Rng rng(3);
  const double secure = adder.evaluate(rng.next_u32(), true);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(adder.evaluate(rng.next_u32(), true), secure);
  }
  EXPECT_LT(adder.evaluate(0x1, false), adder.evaluate(0xFFFF, false));
}

// ---- Whole-model accounting ----

CycleActivity idle_cycle() { return CycleActivity{}; }

TEST(ProcessorModel, IdleCycleCostsOnlyClock) {
  ProcessorEnergyModel m;
  const double e = m.cycle(idle_cycle());
  EXPECT_DOUBLE_EQ(e, m.params().e_clock_tree);
  EXPECT_DOUBLE_EQ(m.breakdown().get(Component::kClockTree), e);
  EXPECT_DOUBLE_EQ(m.breakdown().get(Component::kDecode), 0.0);
}

TEST(ProcessorModel, CycleEnergyEqualsBreakdownDelta) {
  ProcessorEnergyModel m;
  util::Rng rng(4);
  double sum = 0.0;
  for (int i = 0; i < 200; ++i) {
    CycleActivity a;
    a.fetch = true;
    a.fetch_bits = rng.next_u64() & 0x1FFFFFFFFull;
    a.decode = true;
    a.rf_reads = 2;
    a.ex.valid = true;
    a.ex.unit = isa::FuncUnit::kAdder;
    a.ex.result = rng.next_u32();
    a.mem.read = (i % 3) == 0;
    a.mem.address = rng.next_u32() & ~3u;
    a.mem.data = rng.next_u32();
    a.rf_write = true;
    a.id_ex = LatchWrite{true, false, rng.next_u64()};
    sum += m.cycle(a);
  }
  EXPECT_NEAR(sum, m.total_joules(), 1e-18);
}

TEST(ProcessorModel, SecureMemCycleIsDataIndependent) {
  // Two models fed identical activity except for the (secure) memory data
  // and address values must report identical energy.
  ProcessorEnergyModel m1, m2;
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    CycleActivity a1, a2;
    a1.mem.read = a2.mem.read = true;
    a1.mem.secure = a2.mem.secure = true;
    a1.mem.address = rng.next_u32() & ~3u;
    a2.mem.address = rng.next_u32() & ~3u;
    a1.mem.data = rng.next_u32();
    a2.mem.data = rng.next_u32();
    EXPECT_DOUBLE_EQ(m1.cycle(a1), m2.cycle(a2));
  }
}

TEST(ProcessorModel, NormalMemCycleIsDataDependent) {
  ProcessorEnergyModel m1, m2;
  CycleActivity a1, a2;
  a1.mem.read = a2.mem.read = true;
  a1.mem.address = a2.mem.address = 0x1000;
  a1.mem.data = 0x0;
  a2.mem.data = 0xFFFFFFFFu;
  EXPECT_LT(m1.cycle(a1), m2.cycle(a2));
}

TEST(ProcessorModel, SecureExecuteIsDataIndependentPerUnit) {
  for (const isa::FuncUnit unit :
       {isa::FuncUnit::kAdder, isa::FuncUnit::kLogic, isa::FuncUnit::kShifter,
        isa::FuncUnit::kXorUnit}) {
    ProcessorEnergyModel m1, m2;
    util::Rng rng(6);
    // Warm both XOR circuits identically (one secure cycle).
    for (ProcessorEnergyModel* m : {&m1, &m2}) {
      CycleActivity w;
      w.ex.valid = true;
      w.ex.unit = unit;
      w.ex.secure = true;
      w.ex.a = 1;
      w.ex.b = 2;
      w.ex.result = 3;
      (void)m->cycle(w);
    }
    for (int i = 0; i < 50; ++i) {
      CycleActivity a1, a2;
      for (auto* a : {&a1, &a2}) {
        a->ex.valid = true;
        a->ex.unit = unit;
        a->ex.secure = true;
      }
      a1.ex.a = rng.next_u32();
      a1.ex.b = rng.next_u32();
      a1.ex.result = a1.ex.a ^ a1.ex.b;
      a2.ex.a = rng.next_u32();
      a2.ex.b = rng.next_u32();
      a2.ex.result = a2.ex.a ^ a2.ex.b;
      EXPECT_DOUBLE_EQ(m1.cycle(a1), m2.cycle(a2))
          << "unit " << static_cast<int>(unit);
    }
  }
}

TEST(ProcessorModel, SecureLatchWritesAreDataIndependent) {
  ProcessorEnergyModel m1, m2;
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    CycleActivity a1, a2;
    a1.id_ex = LatchWrite{true, true, rng.next_u64()};
    a2.id_ex = LatchWrite{true, true, rng.next_u64()};
    EXPECT_DOUBLE_EQ(m1.cycle(a1), m2.cycle(a2));
  }
}

TEST(ProcessorModel, XorUnitMatchesPaperConstants) {
  // Secure XOR ~0.6 pJ steady-state; normal averages ~0.3 pJ.
  ProcessorEnergyModel m;
  util::Rng rng(8);
  auto xor_cycle = [&](bool secure) {
    CycleActivity a;
    a.ex.valid = true;
    a.ex.unit = isa::FuncUnit::kXorUnit;
    a.ex.secure = secure;
    a.ex.a = rng.next_u32();
    a.ex.b = rng.next_u32();
    a.ex.result = a.ex.a ^ a.ex.b;
    return m.cycle(a) - m.params().e_clock_tree;
  };
  (void)xor_cycle(true);  // warm up
  EXPECT_NEAR(xor_cycle(true) * 1e12, 0.6, 0.01);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += xor_cycle(false);
  EXPECT_NEAR(sum / n * 1e12, 0.3, 0.02);
}

TEST(ProcessorModel, SecureBitTogglesInstrBusLine) {
  // Two fresh models fetch words identical except for the secure bit
  // (fetch_bits bit 32).  The extra rising line costs one instruction-bus
  // line charge plus one coupling event at the line-31/32 boundary —
  // before the 33rd-line fix the two cycles cost exactly the same.
  ProcessorEnergyModel m1, m2;
  CycleActivity a1, a2;
  a1.fetch = a2.fetch = true;
  a1.fetch_bits = 0x12345678ull;
  a2.fetch_bits = 0x12345678ull | (1ull << 32);
  const double e1 = m1.cycle(a1);
  const double e2 = m2.cycle(a2);
  const TechParams& p = m1.params();
  EXPECT_NEAR(e2 - e1,
              p.line_energy(p.c_instr_bus_line) +
                  p.line_energy(p.c_bus_coupling),
              1e-18);
  EXPECT_GT(m2.breakdown().get(Component::kInstrBus),
            m1.breakdown().get(Component::kInstrBus));
}

TEST(ProcessorModel, DummyLoadChargedPerSecureWriteback) {
  ProcessorEnergyModel m;
  CycleActivity a;
  a.rf_write = true;
  a.wb_secure = true;
  (void)m.cycle(a);
  EXPECT_DOUBLE_EQ(m.breakdown().get(Component::kDummyLoad),
                   m.params().e_dummy_load);
}

TEST(Breakdown, TotalSumsComponents) {
  Breakdown b;
  b.add(Component::kAdder, 1.0);
  b.add(Component::kDataBus, 2.5);
  b.add(Component::kAdder, 0.5);
  EXPECT_DOUBLE_EQ(b.get(Component::kAdder), 1.5);
  EXPECT_DOUBLE_EQ(b.total(), 4.0);
  b.clear();
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(Components, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    const auto n = component_name(static_cast<Component>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_TRUE(names.insert(n).second) << n;
  }
}

// ---- EnergyGolden: the model's bits over synthetic activity ----
//
// SimGolden pins whole DES runs, but DES programs never reach some model
// paths: the bus coupling terms, XOR-unit operands under random precharge,
// secure latches under wddl.  These digests pin the per-cycle joule bits
// and the final breakdown for seeded random activity under every hiding
// mode, with coupling off and on.  Payload fields are random whether or
// not their flag is set (a stale payload must be ignored), except
// rf_reads, which is meaningful only on a decode cycle.

/// FNV-1a 64 over the object bytes of every double added.
class Fnv1a {
 public:
  void add(double value) {
    unsigned char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    for (const unsigned char b : bytes) {
      state_ = (state_ ^ b) * 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

CycleActivity random_activity(util::Rng& rng) {
  // Each flag is set with probability 3/4, so most cycles are busy.
  const auto flag = [&] { return rng.next_below(4) != 0; };
  const auto latch = [&] {
    LatchWrite w;
    w.wrote = flag();
    w.secure = rng.next_below(2) != 0;
    w.payload = rng.next_u64();
    return w;
  };
  CycleActivity a;
  a.fetch = flag();
  a.fetch_bits = rng.next_u64();
  a.decode = flag();
  a.rf_reads = a.decode ? static_cast<int>(rng.next_below(3)) : 0;
  a.ex.valid = flag();
  a.ex.unit = static_cast<isa::FuncUnit>(rng.next_below(5));
  a.ex.secure = rng.next_below(2) != 0;
  a.ex.a = rng.next_u32();
  // Equal and complementary XOR operands reach the extreme node counts.
  const std::uint64_t kind = rng.next_below(4);
  a.ex.b = kind == 0 ? a.ex.a : kind == 1 ? ~a.ex.a : rng.next_u32();
  a.ex.result = rng.next_u32();
  const std::uint64_t mem = rng.next_below(3);  // 0 idle, 1 read, 2 write
  a.mem.read = mem == 1;
  a.mem.write = mem == 2;
  a.mem.secure = rng.next_below(2) != 0;
  a.mem.address = rng.next_u32();
  a.mem.data = rng.next_u32();
  a.rf_write = flag();
  a.wb_secure = rng.next_below(2) != 0;
  a.if_id = latch();
  a.id_ex = latch();
  a.ex_mem = latch();
  a.mem_wb = latch();
  return a;
}

std::uint64_t golden_digest(HidingMode mode, bool coupling) {
  const TechParams params = coupling
                                ? TechParams::smartcard_025um_with_coupling()
                                : TechParams::smartcard_025um();
  ProcessorEnergyModel model(params, HidingConfig{mode, 0x5EED});
  util::Rng rng(0xE6E7);
  Fnv1a h;
  for (int i = 0; i < 20000; ++i) h.add(model.cycle(random_activity(rng)));
  for (std::size_t c = 0; c < kNumComponents; ++c) {
    h.add(model.breakdown().get(static_cast<Component>(c)));
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

struct ModeGolden {
  HidingMode mode;
  const char* name;
  std::uint64_t uncoupled;
  std::uint64_t coupled;
};

// Computed on the model that still re-tested the hiding mode inside every
// structure's pricing (with each latch at its slot's width); every later
// model must reproduce them.
constexpr std::array<ModeGolden, 3> kModeGoldens = {{
    {HidingMode::kNone, "none", 0xA8FB8168F7A792FF, 0x717A23126D4A5AB3},
    {HidingMode::kConstant, "wddl", 0x07BD5119F961E87C, 0x1D2931E8B473BF7A},
    {HidingMode::kRandomPrecharge, "random_precharge", 0x1A7E4BE6D655EC77,
     0x97C1AF14E7A31DFE},
}};

TEST(EnergyGolden, RandomActivityDigestsUnderEveryHidingMode) {
  for (const ModeGolden& g : kModeGoldens) {
    EXPECT_EQ(hex(golden_digest(g.mode, false)), hex(g.uncoupled)) << g.name;
    EXPECT_EQ(hex(golden_digest(g.mode, true)), hex(g.coupled))
        << g.name << " with coupling";
  }
}

}  // namespace
}  // namespace emask::energy
