#include "energy/model.hpp"

namespace emask::energy {

namespace {
constexpr std::array<std::string_view, kNumComponents> kComponentNames = {
    "clock_tree", "fetch_array", "instr_bus", "decode",      "reg_file",
    "adder",      "logic_unit",  "shifter",   "xor_unit",    "pipe_if_id",
    "pipe_id_ex", "pipe_ex_mem", "pipe_mem_wb", "addr_bus",  "data_bus",
    "mem_array",  "dummy_load"};
}  // namespace

std::string_view component_name(Component c) {
  return kComponentNames[static_cast<std::size_t>(c)];
}

ProcessorEnergyModel::ProcessorEnergyModel(const TechParams& params,
                                           const HidingConfig& hiding)
    : params_(params),
      hiding_(hiding),
      rng_(hiding.seed),
      instr_bus_(33, params.line_energy(params.c_instr_bus_line),
                 params.line_energy(params.c_bus_coupling)),
      addr_bus_(32, params.line_energy(params.c_addr_bus_line),
                params.line_energy(params.c_bus_coupling)),
      data_bus_(32, params.line_energy(params.c_data_bus_line),
                params.line_energy(params.c_bus_coupling)),
      latch_(params.line_energy(params.c_latch_bit)),
      adder_(params.line_energy(params.c_adder_node), params.e_unit_base),
      logic_(params.line_energy(params.c_logic_node), params.e_unit_base),
      shifter_(params.line_energy(params.c_shift_node), params.e_unit_base),
      xor_unit_(params.c_xor_node, params.vdd) {}

double ProcessorEnergyModel::cycle(const CycleActivity& a) {
  switch (hiding_.mode) {
    case HidingMode::kConstant:
      return cycle_in<HidingMode::kConstant>(a);
    case HidingMode::kRandomPrecharge:
      return cycle_in<HidingMode::kRandomPrecharge>(a);
    case HidingMode::kNone:
      break;
  }
  return cycle_in<HidingMode::kNone>(a);
}

template <HidingMode Mode>
double ProcessorEnergyModel::cycle_in(const CycleActivity& a) {
  // Accumulate this cycle's energy locally (exact, history-independent sum)
  // and fold it into the running per-component breakdown.  Computing the
  // cycle energy as a difference of running totals would contaminate it
  // with floating-point rounding that depends on the accumulated history.
  double cycle_energy = 0.0;
  const auto charge = [&](Component c, double joules) {
    cycle_energy += joules;
    breakdown_.add(c, joules);
  };

  // Hiding transforms (see HidingMode): WDDL forces every structure onto
  // its dual-rail secure path; random precharge recharges each structure
  // to a fresh word from the per-run stream.  Words are drawn only for
  // active structures, in the fixed order they appear below, so the
  // stream consumption is a deterministic function of the run.
  constexpr bool wddl = Mode == HidingMode::kConstant;
  constexpr bool randomize = Mode == HidingMode::kRandomPrecharge;
  const auto rand_word = [&] { return rng_.next_u64(); };

  // Clock tree and global control run every cycle.
  charge(Component::kClockTree, params_.e_clock_tree);

  // IF: instruction memory array (data-independent) + instruction bus
  // (depends on the bit-level Hamming relationship of consecutive fetches).
  if (a.fetch) {
    charge(Component::kFetchArray, params_.e_fetch_array);
    // All 33 lines of the fetch word, including the secure bit (bit 32):
    // a secure/normal instruction boundary toggles that line and draws
    // energy like any other — exactly the per-policy fetch difference a
    // masked program exhibits.  The 33-line bus masks the word.
    if constexpr (randomize) {
      charge(Component::kInstrBus,
             instr_bus_.transfer_random(a.fetch_bits, rand_word()));
    } else {
      charge(Component::kInstrBus, instr_bus_.transfer(a.fetch_bits, wddl));
    }
  }

  // ID: decoder + register-file reads (both data-independent; the register
  // file "can be considered as another memory array", Sec. 4.2).
  if (a.decode) {
    charge(Component::kDecode, params_.e_decode);
    if (a.rf_reads > 0) {
      charge(Component::kRegFile, params_.e_rf_read * a.rf_reads);
    }
  }

  // EX: one dynamic functional unit evaluates.  Under WDDL every unit
  // runs both rails (constant 32 node recharges); under random precharge
  // an unmasked result is evaluated against a random precharge word, so
  // the node count popcount(result ^ r) is value-independent on average.
  if (a.ex.valid) {
    const bool ex_secure = wddl || a.ex.secure;
    const auto unit_energy = [&](const DynamicUnit& unit) {
      if (randomize && !ex_secure) {
        return unit.evaluate(
            a.ex.result ^ static_cast<std::uint32_t>(rand_word()), false);
      }
      return unit.evaluate(a.ex.result, ex_secure);
    };
    switch (a.ex.unit) {
      case isa::FuncUnit::kAdder:
        charge(Component::kAdder, unit_energy(adder_));
        break;
      case isa::FuncUnit::kLogic:
        charge(Component::kLogicUnit, unit_energy(logic_));
        break;
      case isa::FuncUnit::kShifter:
        charge(Component::kShifter, unit_energy(shifter_));
        break;
      case isa::FuncUnit::kXorUnit: {
        // Driven by the gate-level pre-charged dual-rail circuit of Fig. 5.
        std::uint32_t xa = a.ex.a;
        std::uint32_t xb = a.ex.b;
        if (randomize && !ex_secure) {
          xa ^= static_cast<std::uint32_t>(rand_word());
          xb ^= static_cast<std::uint32_t>(rand_word());
        }
        charge(Component::kXorUnit,
               xor_unit_.cycle(xa, xb, ex_secure).total());
        break;
      }
      case isa::FuncUnit::kNone:
        break;
    }
  }

  // MEM: SRAM array is data-independent (differential reads), but the
  // address and data buses between the core and the array are not.
  if (a.mem.read || a.mem.write) {
    charge(Component::kMemArray,
           a.mem.read ? params_.e_mem_read : params_.e_mem_write);
    const bool mem_secure = wddl || a.mem.secure;
    if (randomize && !mem_secure) {
      charge(Component::kAddrBus,
             addr_bus_.transfer_random(a.mem.address, rand_word()));
      charge(Component::kDataBus,
             data_bus_.transfer_random(a.mem.data, rand_word()));
    } else {
      charge(Component::kAddrBus,
             addr_bus_.transfer(a.mem.address, mem_secure));
      charge(Component::kDataBus,
             data_bus_.transfer(a.mem.data, mem_secure));
    }
  }

  // WB: register-file write (data-independent) and, for secure
  // instructions, the dummy capacitive load that terminates the
  // complementary rail (Sec. 4.2, Fig. 3).  Under WDDL every retiring
  // instruction terminates a complementary rail, so the dummy load is
  // paid whenever the WB stage is occupied — data-independent either way.
  if (a.rf_write) charge(Component::kRegFile, params_.e_rf_write);
  if (wddl ? a.mem_wb.wrote : a.wb_secure) {
    charge(Component::kDummyLoad, params_.e_dummy_load);
  }

  // Pipeline registers written at the clock edge, each at its fixed width.
  const auto latch = [&](Component c, const LatchWrite& w, int width) {
    if (!w.wrote) return;
    const bool secure = wddl || w.secure;
    if (randomize && !secure) {
      charge(c, latch_.write(w.payload ^ rand_word(), width, false));
      return;
    }
    charge(c, latch_.write(w.payload, width, secure));
  };
  latch(Component::kPipeIfId, a.if_id, 33);
  latch(Component::kPipeIdEx, a.id_ex, 64);
  latch(Component::kPipeExMem, a.ex_mem, 64);
  latch(Component::kPipeMemWb, a.mem_wb, 32);

  return cycle_energy;
}

}  // namespace emask::energy
