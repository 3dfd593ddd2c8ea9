#include "core/phase_profile.hpp"

#include <algorithm>
#include <map>

#include "des/asm_generator.hpp"

namespace emask::core {

std::vector<PhaseEnergy> profile_phases(const MaskingPipeline& pipeline,
                                        const RunRequest& request) {
  // Build the phase table from the text labels, ordered by address.
  const assembler::Program& program = pipeline.program();
  std::vector<PhaseEnergy> phases;
  {
    std::map<std::uint32_t, std::string> by_index;
    for (const auto& [label, index] : program.text_labels) {
      // Keep the first label at each index (multiple labels may alias).
      by_index.emplace(index, label);
    }
    if (by_index.empty() || by_index.begin()->first != 0) {
      by_index.emplace(0, "(entry)");
    }
    for (auto it = by_index.begin(); it != by_index.end(); ++it) {
      PhaseEnergy phase;
      phase.label = it->second;
      phase.begin = it->first;
      const auto next = std::next(it);
      phase.end = next != by_index.end()
                      ? next->first
                      : static_cast<std::uint32_t>(program.text.size());
      phases.push_back(std::move(phase));
    }
  }
  const auto phase_of = [&](std::uint32_t index) -> PhaseEnergy& {
    auto it = std::upper_bound(
        phases.begin(), phases.end(), index,
        [](std::uint32_t i, const PhaseEnergy& p) { return i < p.begin; });
    return *(it == phases.begin() ? it : std::prev(it));
  };

  PhaseEnergy* current = &phases.front();
  RunRequest observed = request;
  observed.observer = [&](const energy::CycleActivity& a, double pj) {
    if (a.retired) current = &phase_of(a.retire_pc);
    current->cycles += 1;
    current->energy_uj += pj * 1e-6;
  };
  (void)pipeline.run(observed);
  return phases;
}

SboxWindow des_round1_sbox_window(const assembler::Program& program,
                                  int sbox) {
  SboxWindow w;
  if (sbox < 0 || sbox > 7) return w;
  const auto sbox_label = program.text_labels.find("sbox_loop");
  const auto round_label = program.text_labels.find("round_loop");
  if (sbox_label == program.text_labels.end() ||
      round_label == program.text_labels.end()) {
    return w;
  }
  std::vector<std::uint64_t> sboxes;
  std::vector<std::uint64_t> rounds;
  sim::Pipeline p(program);
  energy::CycleActivity a;
  // Round 2's first retirement of round_loop bounds S-box 7's window; no
  // need to simulate further.
  while (p.step(a) && rounds.size() < 2) {
    if (!a.retired) continue;
    if (a.retire_pc == sbox_label->second) sboxes.push_back(p.cycles());
    if (a.retire_pc == round_label->second) rounds.push_back(p.cycles());
  }
  if (sboxes.size() < 8 || rounds.size() < 2) return w;
  w.begin = static_cast<std::size_t>(sboxes[static_cast<std::size_t>(sbox)]);
  w.end = sbox < 7
              ? static_cast<std::size_t>(
                    sboxes[static_cast<std::size_t>(sbox) + 1])
              : static_cast<std::size_t>(rounds[1]);
  return w;
}

SboxWindow des_round1_sbox_window_bounds(const assembler::Program& program,
                                         int sbox, std::uint32_t max_delay) {
  const SboxWindow zero = des_round1_sbox_window(program, sbox);
  if (!zero.valid() || max_delay == 0 || !des::has_nop_table(program)) {
    return zero;
  }
  assembler::Program padded = program;
  des::poke_nop_schedule(
      padded, std::vector<std::uint32_t>(des::kShuffleSlotCount, max_delay));
  const SboxWindow widest = des_round1_sbox_window(padded, sbox);
  if (!widest.valid()) return SboxWindow{};
  return SboxWindow{zero.begin, widest.end};
}

}  // namespace emask::core
