// Core MaskingPipeline API behaviours.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "assembler/assembler.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "des/asm_generator.hpp"
#include "des/des.hpp"
#include "hiding/policy.hpp"
#include "isa/encoding.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

TEST(MaskingPipeline, FromSourceCompilesAndRuns) {
  const auto p = MaskingPipeline::from_source(R"(
.data
x: .word 21
.text
main:
  la $t0, x
  lw $t1, 0($t0)
  addu $t1, $t1, $t1
  sw $t1, 0($t0)
  halt
)",
                                              compiler::Policy::kOriginal);
  const EncryptionRun run = p.run({.image = &p.program()});
  EXPECT_TRUE(run.sim.halted);
  EXPECT_GT(run.total_uj(), 0.0);
  EXPECT_EQ(run.trace.size(), run.sim.cycles);
}

TEST(MaskingPipeline, BadSourcePropagatesAsmError) {
  EXPECT_THROW(MaskingPipeline::from_source("main:\n  bogus\n",
                                            compiler::Policy::kOriginal),
               assembler::AsmError);
}

TEST(MaskingPipeline, StopAfterCyclesTruncates) {
  const auto p = MaskingPipeline::des(compiler::Policy::kOriginal);
  const EncryptionRun run = p.run_des(1, 2, /*stop_after_cycles=*/5000);
  EXPECT_EQ(run.trace.size(), 5000u);
  EXPECT_FALSE(run.sim.halted);
  EXPECT_EQ(run.cipher, 0u);  // truncated runs report no ciphertext
}

TEST(MaskingPipeline, TruncatedPrefixMatchesFullRun) {
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  const EncryptionRun full = p.run_des(3, 4);
  const EncryptionRun part = p.run_des(3, 4, 4000);
  for (std::size_t i = 0; i < part.trace.size(); ++i) {
    ASSERT_EQ(part.trace[i], full.trace[i]) << "cycle " << i;
  }
}

TEST(MaskingPipeline, CustomTechParamsChangeEnergyNotBehaviour) {
  energy::TechParams hot = energy::TechParams::smartcard_025um();
  hot.e_clock_tree *= 2.0;
  const auto base = MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto hotter = MaskingPipeline::des(compiler::Policy::kOriginal, hot);
  const auto r1 = base.run_des(7, 8);
  const auto r2 = hotter.run_des(7, 8);
  EXPECT_EQ(r1.cipher, r2.cipher);
  EXPECT_EQ(r1.sim.cycles, r2.sim.cycles);
  EXPECT_GT(r2.total_uj(), r1.total_uj());
}

TEST(MaskingPipeline, SimConfigCycleBudgetEnforced) {
  auto p = MaskingPipeline::des(compiler::Policy::kOriginal);
  sim::SimConfig config;
  config.max_cycles = 100;
  p.set_sim_config(config);
  EXPECT_THROW(p.run_des(1, 2), std::runtime_error);
}

TEST(MaskingPipeline, BreakdownTotalsMatchTrace) {
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  const EncryptionRun run = p.run_des(5, 6);
  EXPECT_NEAR(run.breakdown.total() * 1e6, run.total_uj(), 1e-6);
}

TEST(MaskingPipeline, SecureBitsSurviveEncoding) {
  // The secure bit the compiler sets must round-trip through the binary
  // encoding the fetch stage uses.
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  for (const auto& inst : p.program().text) {
    EXPECT_EQ(isa::decode(isa::encode(inst)), inst);
  }
}

// Sums a phase table's cycles and energy.
std::pair<std::uint64_t, double> phase_totals(
    const std::vector<PhaseEnergy>& phases) {
  std::uint64_t cycles = 0;
  double uj = 0.0;
  for (const auto& phase : phases) {
    cycles += phase.cycles;
    uj += phase.energy_uj;
  }
  return {cycles, uj};
}

TEST(PhaseProfile, TotalsMatchWholeRunAndCoverEveryCycle) {
  // Every countermeasure of the countermeasures.ini campaign: the phase
  // profile must account for exactly the run the device reports, hiding
  // energy and shuffle_nop delay slots included.
  constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
  constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;
  for (const char* name :
       {"original", "selective", "naive_loadstore", "all_secure", "wddl",
        "random_precharge", "shuffle_nop", "selective+wddl"}) {
    SCOPED_TRACE(name);
    const auto p = MaskingPipeline::des(hiding::countermeasure_from_name(name));
    const auto phases =
        core::profile_phases(p, {.key = kKey, .plaintext = kPlain});
    const EncryptionRun run = p.run_des(kKey, kPlain);
    const auto [cycles, uj] = phase_totals(phases);
    EXPECT_EQ(cycles, run.sim.cycles);
    EXPECT_NEAR(uj, run.total_uj(), 1e-9 * run.total_uj());
    // Phase table covers the whole text contiguously.
    for (std::size_t i = 1; i < phases.size(); ++i) {
      EXPECT_EQ(phases[i].begin, phases[i - 1].end);
    }
    EXPECT_EQ(phases.back().end, p.program().text.size());
    // The sixteen-round phases dominate the run.
    double round_uj = 0.0;
    for (const auto& phase : phases) {
      if (phase.label != "ip_loop" && phase.label != "pc1_loop" &&
          phase.label != "fp_loop" && phase.label != "pre_r" &&
          phase.label != "pre_l" && phase.label != "main") {
        round_uj += phase.energy_uj;
      }
    }
    EXPECT_GT(round_uj / uj, 0.9);
  }
}

TEST(PhaseProfile, FromSourcePricesHiding) {
  // A non-DES program: the profile must price the device's hiding too.
  std::ifstream in(EMASK_TEST_DATA_DIR "/toy_cipher.s");
  ASSERT_TRUE(in) << "cannot open toy_cipher.s";
  std::ostringstream source;
  source << in.rdbuf();
  std::map<std::string, double> uj;
  for (const char* name : {"original", "wddl", "random_precharge"}) {
    SCOPED_TRACE(name);
    const auto p = MaskingPipeline::from_source(
        source.str(), hiding::countermeasure_from_name(name));
    const RunRequest request{.image = &p.program()};
    const EncryptionRun run = p.run(request);
    const auto [cycles, total] =
        phase_totals(core::profile_phases(p, request));
    EXPECT_EQ(cycles, run.sim.cycles);
    EXPECT_NEAR(total, run.total_uj(), 1e-9 * run.total_uj());
    uj[name] = total;
  }
  EXPECT_GE(uj["wddl"], 1.5 * uj["original"]);
  EXPECT_GT(uj["random_precharge"], uj["original"]);
}

TEST(MaskingPipeline, PolicyAccessorsConsistent) {
  const auto p = MaskingPipeline::des(compiler::Policy::kNaiveLoadStore);
  EXPECT_EQ(p.policy(), compiler::Policy::kNaiveLoadStore);
  EXPECT_EQ(p.mask_result().secured_count, [&] {
    std::size_t n = 0;
    for (const auto& inst : p.program().text) n += inst.secure;
    return n;
  }());
}

// --- Shared-prefix snapshot/fork capture -------------------------------

const MaskingPipeline& forkable(compiler::Policy policy) {
  static std::map<compiler::Policy, MaskingPipeline> cache;
  auto it = cache.find(policy);
  if (it == cache.end()) {
    des::DesAsmOptions opts;
    opts.hoist_key_schedule = true;
    it = cache.emplace(policy, MaskingPipeline::des(
                                   policy,
                                   energy::TechParams::smartcard_025um(),
                                   opts))
             .first;
  }
  return it->second;
}

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;

// The hoisted program is still correct DES, and the selective compiler
// still covers its whole slice (the hoisted key schedule introduces no
// unsecurable operations).
TEST(SnapshotFork, HoistedProgramEncryptsCorrectly) {
  const MaskingPipeline& p = forkable(compiler::Policy::kSelective);
  ASSERT_TRUE(p.has_fork_point());
  EXPECT_TRUE(p.mask_result().slice.diagnostics.empty());
  const EncryptionRun run = p.run_des(kKey, kPlain);
  EXPECT_EQ(run.cipher, des::encrypt_block(kPlain, kKey));
  EXPECT_EQ(run.cipher, 0x85E813540F0AB405ull);
}

// The headline contract: a forked run is bit-identical to a cold run —
// trace samples, sim counters, breakdown, and ciphertext.
TEST(SnapshotFork, ForkedRunIsBitIdenticalToColdRun) {
  for (const auto policy :
       {compiler::Policy::kOriginal, compiler::Policy::kSelective}) {
    const MaskingPipeline& p = forkable(policy);
    const DesSnapshot snap = p.snapshot_des(kKey);
    EXPECT_GT(snap.fork_cycle, 0u);
    EXPECT_EQ(snap.prefix.size(), snap.fork_cycle);
    for (const std::uint64_t pt : {kPlain, std::uint64_t{0}, ~std::uint64_t{0}}) {
      const EncryptionRun cold = p.run_des(kKey, pt);
      const EncryptionRun forked = p.run_des_from(snap, pt);
      EXPECT_EQ(forked.cipher, cold.cipher);
      EXPECT_EQ(forked.cipher, des::encrypt_block(pt, kKey));
      EXPECT_EQ(forked.sim.cycles, cold.sim.cycles);
      EXPECT_EQ(forked.sim.instructions, cold.sim.instructions);
      EXPECT_EQ(forked.sim.stalls, cold.sim.stalls);
      EXPECT_EQ(forked.trace.samples(), cold.trace.samples());
      EXPECT_EQ(forked.breakdown.total(), cold.breakdown.total());
    }
  }
}

// One snapshot serves many forks without interference (copy-on-write: no
// fork ever mutates the captured memory).
TEST(SnapshotFork, SnapshotIsReusableAcrossForks) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  util::Rng rng(0xF0F0);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(p.run_des_from(snap, pt).cipher, des::encrypt_block(pt, kKey));
  }
}

// Budget boundaries around the fork point: a stop at or before the fork
// cycle falls back to a cold start; either way the emitted trace is the
// exact cold-run prefix, never longer than requested.
TEST(SnapshotFork, StopAfterCyclesBoundary) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  const std::uint64_t fc = snap.fork_cycle;
  ASSERT_GT(fc, 2u);
  for (const std::uint64_t stop : {fc - 1, fc, fc + 1, fc + 500}) {
    const EncryptionRun forked = p.run_des_from(snap, kPlain, stop);
    const EncryptionRun cold = p.run_des(kKey, kPlain, stop);
    EXPECT_EQ(forked.trace.size(), stop) << "stop " << stop;
    EXPECT_EQ(forked.trace.samples(), cold.trace.samples())
        << "stop " << stop;
    EXPECT_EQ(forked.sim.cycles, cold.sim.cycles) << "stop " << stop;
  }
}

// Misuse is caught loudly.
TEST(SnapshotFork, SnapshotWithoutForkMarkerThrows) {
  const auto plain = MaskingPipeline::des(compiler::Policy::kOriginal);
  EXPECT_FALSE(plain.has_fork_point());
  EXPECT_THROW((void)plain.snapshot_des(kKey), std::logic_error);
}

TEST(SnapshotFork, ForeignSnapshotRejected) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  const auto other = MaskingPipeline::des(compiler::Policy::kOriginal);
  EXPECT_THROW((void)other.run_des_from(snap, kPlain), std::invalid_argument);

  // A fork runs the device's own decoded text, so a text of the same length
  // is no licence: another policy's secure bits differ per instruction, and
  // even a separately built twin is a different device.
  const MaskingPipeline& selective = forkable(compiler::Policy::kSelective);
  ASSERT_EQ(selective.program().text.size(), p.program().text.size());
  EXPECT_THROW((void)selective.run_des_from(snap, kPlain),
               std::invalid_argument);
  des::DesAsmOptions opts;
  opts.hoist_key_schedule = true;
  const auto twin = MaskingPipeline::des(
      compiler::Policy::kOriginal, energy::TechParams::smartcard_025um(), opts);
  EXPECT_THROW((void)twin.run_des_from(snap, kPlain), std::invalid_argument);

  // A copy shares the decoded text, so it forks the snapshot as is.
  const MaskingPipeline copy = p;
  EXPECT_EQ(copy.run_des_from(snap, kPlain).trace.samples(),
            p.run_des_from(snap, kPlain).trace.samples());
}

TEST(SnapshotFork, ForkRequestsMustBeColdCompatible) {
  // Image and observed runs are cold by contract, and a fork resumes the
  // snapshot's key — each mismatch is rejected, even when the budget
  // would fall back to a cold start anyway.
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  const auto observer = [](const energy::CycleActivity&, double) {};
  EXPECT_THROW((void)p.run({.key = kKey, .plaintext = kPlain, .from = &snap,
                            .observer = observer}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)p.run({.image = &p.program(), .key = kKey, .from = &snap}),
      std::invalid_argument);
  EXPECT_THROW((void)p.run({.key = kKey ^ 1, .plaintext = kPlain,
                            .stop_after_cycles = 1, .from = &snap}),
               std::invalid_argument);
}

// Every run of a device borrows its once-decoded text, so an unencodable
// instruction must still fail only when a run fetches it — here on the
// forked path, after the shared prefix.  The assembler rejects every
// unencodable instruction, so the test patches one into the assembled
// program, in the slot before `halt`.
TEST(SnapshotFork, ForkedRunFetchingAnUnencodableInstructionThrows) {
  assembler::Program program = assembler::assemble(R"(
.data
key: .space 256
plain: .space 256
.text
main:
  li $t0, 1
  fork
  nop
  nop
  nop
  nop
  nop
  nop
  nop
  halt
)");
  program.text[program.text.size() - 2] =
      isa::make_branch(isa::Opcode::kBeq, isa::kZero, isa::kZero, 70000);
  const auto p =
      MaskingPipeline::from_program(program, compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  try {
    (void)p.run_des_from(snap, kPlain);
    ADD_FAILURE() << "fetching an unencodable instruction must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "encode branch: immediate out of 16-bit range: 70000");
  }
  // A budget that stops before the fetch runs without error.
  EXPECT_EQ(p.run_des_from(snap, kPlain, snap.fork_cycle + 1).trace.size(),
            snap.fork_cycle + 1);
}

TEST(MaskingPipeline, ObserverSeesEveryCycleOfTheRun) {
  const MaskingPipeline& p = forkable(compiler::Policy::kSelective);
  const EncryptionRun plain = p.run_des(kKey, kPlain, 3000);
  std::vector<double> seen;
  const EncryptionRun observed =
      p.run({.key = kKey, .plaintext = kPlain, .stop_after_cycles = 3000,
             .observer = [&](const energy::CycleActivity&, double pj) {
               seen.push_back(pj);
             }});
  EXPECT_EQ(seen, observed.trace.samples());
  EXPECT_EQ(observed.trace.samples(), plain.trace.samples());
}

}  // namespace
}  // namespace emask::core
