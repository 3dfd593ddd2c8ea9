// Phase-level energy profiling: energy per labelled program region.
//
// Text labels partition the instruction index space; each cycle's energy
// is attributed to the phase of the instruction retiring that cycle.  For
// the DES program this reproduces, in numbers, what the paper's Fig. 6
// shows as a picture: how much each permutation/round phase consumes, and
// (diffing two policies) where the masking overhead concentrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/masking_pipeline.hpp"

namespace emask::core {

struct PhaseEnergy {
  std::string label;          // the phase's leading text label
  std::uint32_t begin = 0;    // instruction index range [begin, end)
  std::uint32_t end = 0;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;

  [[nodiscard]] double pj_per_cycle() const {
    return cycles ? energy_uj * 1e6 / static_cast<double>(cycles) : 0.0;
  }
};

/// Profiles `pipeline.run(request)` (a cold run; the profile takes the
/// request's observer slot) and returns per-phase totals, ordered by first
/// instruction index.  Bubble and stall cycles attribute to the phase of the
/// most recent retirement.  The totals are the run's own: the phase cycles
/// sum to its sim.cycles and the phase energy to its total_uj().
[[nodiscard]] std::vector<PhaseEnergy> profile_phases(
    const MaskingPipeline& pipeline, const RunRequest& request);

/// Round-1 cycle window [begin, end) of one DES S-box (0..7), located via
/// the retire cycles of the assembly generator's `sbox_loop` /
/// `round_loop` labels with a dry pipeline run (no energy model).  The
/// per-S-box attacks (MLPA, collision) window this tightly because
/// adjacent S-boxes share expansion bits, so their cycles plant ghost
/// correlations for wrong guesses.  Returns begin == end == 0 when the
/// program lacks the labels (non-generator DES source).
struct SboxWindow {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool valid() const { return end > begin; }
};

[[nodiscard]] SboxWindow des_round1_sbox_window(
    const assembler::Program& program, int sbox);

/// Shuffle-aware variant: the widest round-1 window of S-box `sbox` over
/// every nop_tab schedule a shuffle_slots program can draw.  `begin` comes
/// from a zero-delay dry run (the earliest the S-box can start), `end` from
/// a run with every slot poked to `max_delay` (the latest it can finish).
/// For programs without a nop_tab this is exactly des_round1_sbox_window.
/// Attacks on shuffled devices must window with these bounds — a
/// fixed-schedule window silently truncates late-shifted traces.
[[nodiscard]] SboxWindow des_round1_sbox_window_bounds(
    const assembler::Program& program, int sbox, std::uint32_t max_delay);

}  // namespace emask::core
