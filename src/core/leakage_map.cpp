#include "core/leakage_map.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "analysis/tvla.hpp"
#include "util/rng.hpp"

namespace emask::core {

LeakageMap localize_des_leakage(const MaskingPipeline& pipeline,
                                std::uint64_t fixed_key,
                                std::uint64_t fixed_plaintext, int pairs,
                                std::uint64_t seed, double threshold) {
  // TVLA campaign over the full run.
  analysis::TvlaAssessment tvla;
  util::Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    tvla.add_fixed(pipeline.run_des(fixed_key, fixed_plaintext).trace);
    tvla.add_random(pipeline.run_des(fixed_key, rng.next_u64()).trace);
  }
  const analysis::TvlaResult t = tvla.solve();

  // One instrumented fixed-class run records which instruction retires at
  // each cycle (same inputs, so the same shuffle_nop schedule).
  std::vector<std::int64_t> retire_at_cycle;  // -1 = bubble
  (void)pipeline.run(
      {.key = fixed_key,
       .plaintext = fixed_plaintext,
       .observer = [&](const energy::CycleActivity& a, double) {
         retire_at_cycle.push_back(
             a.retired ? static_cast<std::int64_t>(a.retire_pc) : -1);
       }});

  // Aggregate leaking cycles per source line.
  struct Agg {
    std::uint32_t instr_index = 0;
    std::size_t cycles = 0;
    double max_t = 0.0;
  };
  std::map<int, Agg> by_line;
  LeakageMap out;
  const std::size_t n = std::min(retire_at_cycle.size(), t.t_per_cycle.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double abs_t = std::abs(t.t_per_cycle[i]);
    if (abs_t <= threshold) continue;
    ++out.total_leaking_cycles;
    out.max_abs_t = std::max(out.max_abs_t, abs_t);
    std::int64_t pc = retire_at_cycle[i];
    // Attribute bubbles to the most recent retirement.
    for (std::size_t back = i; pc < 0 && back > 0; --back) {
      pc = retire_at_cycle[back - 1];
    }
    if (pc < 0) continue;
    const auto index = static_cast<std::uint32_t>(pc);
    const int line = index < pipeline.program().text_locs.size()
                         ? pipeline.program().text_locs[index].line
                         : 0;
    Agg& agg = by_line[line];
    if (agg.cycles == 0) agg.instr_index = index;
    ++agg.cycles;
    agg.max_t = std::max(agg.max_t, abs_t);
  }

  for (const auto& [line, agg] : by_line) {
    LeakSite site;
    site.source_line = line;
    site.instr_index = agg.instr_index;
    site.instruction = pipeline.program().text[agg.instr_index].to_string();
    site.leaking_cycles = agg.cycles;
    site.max_abs_t = agg.max_t;
    out.sites.push_back(std::move(site));
  }
  std::sort(out.sites.begin(), out.sites.end(),
            [](const LeakSite& a_, const LeakSite& b_) {
              return a_.max_abs_t > b_.max_abs_t;
            });
  return out;
}

}  // namespace emask::core
