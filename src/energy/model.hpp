// Transition-sensitive processor energy model (SimplePower-style back end).
//
// Consumes one CycleActivity per clock from the pipeline simulator and
// produces energy in joules, split by component.  See params.hpp for the
// modeling conventions and calibration targets.
#pragma once

#include <cstdint>

#include "dualrail/xor_unit.hpp"
#include "energy/activity.hpp"
#include "energy/components.hpp"
#include "energy/maskable.hpp"
#include "energy/params.hpp"
#include "util/rng.hpp"

namespace emask::energy {

/// Whole-processor hiding transform applied on top of the per-instruction
/// secure bits (which still work as before; hiding composes with masking).
enum class HidingMode {
  kNone,
  /// WDDL-style precharge wave: every bus, latch and functional unit runs
  /// its dual-rail secure path every cycle, instruction secure bit or not.
  /// Per-cycle energy is data-independent (modulo the adjacent-line
  /// coupling residue MaskableBus models in secure mode).
  kConstant,
  /// Every structure precharges to a fresh random word from a per-run
  /// deterministic util::Rng stream and pays for the lines that differ:
  /// popcount(value ^ r) is independent of `value` for uniform r, so the
  /// first-order value leakage averages away.  Instructions the masking
  /// policy already secures keep their constant dual-rail path.
  kRandomPrecharge,
};

/// Per-run hiding configuration; `seed` feeds the random-precharge stream
/// and must be a pure function of the run's inputs so BatchRunner's
/// bit-identity contract holds at any thread count.
struct HidingConfig {
  HidingMode mode = HidingMode::kNone;
  std::uint64_t seed = 0;
};

class ProcessorEnergyModel {
 public:
  explicit ProcessorEnergyModel(
      const TechParams& params = TechParams::smartcard_025um(),
      const HidingConfig& hiding = HidingConfig{});

  /// Accounts one clock cycle of activity; returns this cycle's energy in
  /// joules (also accumulated into the running breakdown).  Reads each
  /// payload field of `activity` only under the flag that gates it.
  double cycle(const CycleActivity& activity);

  [[nodiscard]] const Breakdown& breakdown() const { return breakdown_; }
  [[nodiscard]] double total_joules() const { return breakdown_.total(); }
  [[nodiscard]] const TechParams& params() const { return params_; }
  [[nodiscard]] const HidingConfig& hiding() const { return hiding_; }

 private:
  /// cycle()'s one body, instantiated per hiding mode: the mode tests fold
  /// away at compile time, so the masking-only instantiation carries no
  /// wddl or random-precharge branch and draws no random word.
  template <HidingMode Mode>
  double cycle_in(const CycleActivity& activity);

  TechParams params_;
  HidingConfig hiding_;
  util::Rng rng_{0};  // random-precharge stream; reseeded per run
  Breakdown breakdown_;

  MaskableBus instr_bus_;
  MaskableBus addr_bus_;
  MaskableBus data_bus_;
  MaskableLatch latch_;
  DynamicUnit adder_;
  DynamicUnit logic_;
  DynamicUnit shifter_;
  dualrail::DualRailXor32 xor_unit_;  // the gate-level circuit of Fig. 5
};

}  // namespace emask::energy
