// emask-run: assemble, protect, and simulate an annotated assembly program.
//
//   emask-run program.s [options]
//
// Exit status: 0 on success, 1 on usage errors, 2 on compile/run errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "energy/components.hpp"
#include "tool_common.hpp"
#include "util/csv.hpp"

using namespace emask;

int main(int argc, char** argv) {
  std::string source_path;
  std::string trace_path;
  std::string policy_name = "selective";
  bool listing = false;
  bool breakdown = false;
  bool phases = false;
  double coupling_ff = 0.0;
  std::uint64_t max_cycles = 50'000'000;

  util::ArgParser parser("emask-run", "program.s [options]");
  parser.positional("program.s", &source_path, true,
                    "annotated assembly source");
  parser.opt_string("policy", &policy_name, "NAME",
                    "countermeasure (default selective): masking (original, "
                    "selective, naive_loadstore, all_secure), hiding (wddl, "
                    "random_precharge), or masking+hiding; shuffle_nop needs "
                    "the DES generator's delay slots and is rejected here");
  parser.opt_string("trace", &trace_path, "FILE",
                    "write the per-cycle energy trace CSV");
  parser.flag("listing", &listing,
              "print the compiled program with secure markings");
  parser.flag("breakdown", &breakdown,
              "print the per-component energy table");
  parser.flag("phases", &phases, "print energy per labelled program phase");
  parser.opt_double("coupling", &coupling_ff,
                    "adjacent-line bus coupling, fF");
  parser.opt_u64("max-cycles", &max_cycles,
                 "simulation budget (default 50M)");
  const int parsed = tools::parse_or_usage(parser, argc, argv);
  if (parsed != 0) return parsed > 0 ? 1 : 0;

  std::ifstream in(source_path);
  if (!in) {
    std::fprintf(stderr, "emask-run: cannot open %s\n", source_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  try {
    const hiding::Countermeasure policy = tools::to_countermeasure(policy_name);
    const energy::TechParams params = tools::tech_params(coupling_ff);
    auto pipeline =
        core::MaskingPipeline::from_source(buffer.str(), policy, params);

    const auto& mr = pipeline.mask_result();
    std::printf("policy    : %s\n", policy.name().c_str());
    std::printf("program   : %zu instructions, %zu secured\n",
                pipeline.program().text.size(), mr.secured_count);
    for (const auto& d : mr.slice.diagnostics) {
      std::printf("diagnostic: line %d: %s\n", d.source_line,
                  d.message.c_str());
    }
    if (listing) {
      for (std::size_t i = 0; i < pipeline.program().text.size(); ++i) {
        std::printf("%5zu  %s\n", i,
                    pipeline.program().text[i].to_string().c_str());
      }
    }

    sim::SimConfig config = pipeline.sim_config();
    config.max_cycles = max_cycles;
    pipeline.set_sim_config(config);
    const core::RunRequest request{.image = &pipeline.program()};
    const core::EncryptionRun run = pipeline.run(request);

    std::printf("cycles    : %llu (%llu instructions, CPI %.3f, %llu "
                "stalls, %llu flushes)\n",
                static_cast<unsigned long long>(run.sim.cycles),
                static_cast<unsigned long long>(run.sim.instructions),
                run.sim.cpi(), static_cast<unsigned long long>(run.sim.stalls),
                static_cast<unsigned long long>(run.sim.flushes));
    std::printf("energy    : %.3f uJ (%.1f pJ/cycle)\n", run.total_uj(),
                run.mean_pj_per_cycle());

    if (breakdown) {
      std::printf("\n%-14s %12s\n", "component", "energy (uJ)");
      for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
        const auto comp = static_cast<energy::Component>(c);
        std::printf("%-14s %12.4f\n",
                    std::string(energy::component_name(comp)).c_str(),
                    run.breakdown.get(comp) * 1e6);
      }
    }
    if (phases) {
      std::printf("\n%-16s %10s %12s %12s\n", "phase", "cycles",
                  "energy (uJ)", "pJ/cycle");
      for (const core::PhaseEnergy& p :
           core::profile_phases(pipeline, request)) {
        if (p.cycles == 0) continue;
        std::printf("%-16s %10llu %12.4f %12.1f\n", p.label.c_str(),
                    static_cast<unsigned long long>(p.cycles), p.energy_uj,
                    p.pj_per_cycle());
      }
    }
    if (!trace_path.empty()) {
      util::CsvWriter csv(trace_path);
      csv.write_header({"cycle", "energy_pj"});
      for (std::size_t i = 0; i < run.trace.size(); ++i) {
        csv.write_row({static_cast<double>(i), run.trace[i]});
      }
      csv.flush();
      std::printf("trace     : %s (%zu samples)\n", trace_path.c_str(),
                  run.trace.size());
    }
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), parser.usage().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emask-run: %s\n", e.what());
    return 2;
  }
  return 0;
}
