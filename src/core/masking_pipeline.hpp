// End-to-end driver: the paper's system, assembled.
//
//   annotated assembly --(compiler: forward slice + secure rewriting)-->
//   secured program --(cycle-accurate pipeline + energy model)-->
//   ciphertext + per-cycle energy trace + component breakdown
//
// This is the top-level public API: every experiment and example builds on
// MaskingPipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace.hpp"
#include "assembler/program.hpp"
#include "compiler/masking.hpp"
#include "des/asm_generator.hpp"
#include "energy/model.hpp"
#include "energy/params.hpp"
#include "hiding/policy.hpp"
#include "sim/pipeline.hpp"

namespace emask::core {

/// Result of simulating one encryption.
struct EncryptionRun {
  analysis::Trace trace;          // energy per cycle, picojoules
  energy::Breakdown breakdown;    // per-component totals, joules
  sim::SimResult sim;
  std::uint64_t cipher = 0;

  [[nodiscard]] double total_uj() const { return trace.total_uj(); }
  [[nodiscard]] double mean_pj_per_cycle() const { return trace.mean_pj(); }
};

/// The machine captured at the program's `fork` marker, plus everything a
/// forked run needs to resume: the key-poked program copy the simulator
/// references, the energy-model state mid-trace, and the shared prefix
/// trace spliced in front of every forked trace.  Capture once per (key,
/// program) with MaskingPipeline::snapshot_des, then fork any number of
/// per-plaintext runs with run_des_from — each is bit-identical to the
/// corresponding cold run_des call.  Immutable after capture; safe to share
/// read-only across threads (memory forks copy-on-write at page
/// granularity).
struct DesSnapshot {
  assembler::Program program;  // key poked; referenced by restored machines
  sim::Snapshot machine;
  energy::ProcessorEnergyModel model;  // state as of fork_cycle
  analysis::Trace prefix;              // samples for cycles [0, fork_cycle)
  std::uint64_t key = 0;
  std::uint64_t fork_cycle = 0;  // cycle count at capture
};

class MaskingPipeline {
 public:
  /// Builds the DES program and applies `policy` — a masking policy, a
  /// hiding policy, or any masking+hiding combination
  /// (hiding::Countermeasure converts implicitly from compiler::Policy).
  /// A shuffle_nop countermeasure forces DesAsmOptions::shuffle_slots on.
  static MaskingPipeline des(
      const hiding::Countermeasure& policy,
      const energy::TechParams& params = energy::TechParams::smartcard_025um(),
      const des::DesAsmOptions& asm_options = {});

  /// Compiles arbitrary annotated assembly under `policy`.  shuffle_nop
  /// requires the DES generator's nop_tab slots, so non-DES sources accept
  /// only wddl / random_precharge hiding (throws std::invalid_argument).
  static MaskingPipeline from_source(
      const std::string& source, const hiding::Countermeasure& policy,
      const energy::TechParams& params = energy::TechParams::smartcard_025um());

  /// Simulates one DES encryption: pokes `key`/`plaintext` into the data
  /// image, runs to halt, returns the trace and the ciphertext.
  ///
  /// `stop_after_cycles` truncates the simulation (0 = run to halt): an
  /// attacker capturing only the first round does not need to pay for the
  /// remaining fifteen.  A truncated run reports cipher = 0.
  [[nodiscard]] EncryptionRun run_des(std::uint64_t key,
                                      std::uint64_t plaintext,
                                      std::uint64_t stop_after_cycles = 0) const;

  /// run_des for a CBC-chained program (DesAsmOptions::cbc_chain): also
  /// pokes the chaining value into the `iv` symbol.  Throws
  /// std::invalid_argument when the program has no `iv` symbol.
  [[nodiscard]] EncryptionRun run_des_cbc(
      std::uint64_t key, std::uint64_t plaintext, std::uint64_t iv,
      std::uint64_t stop_after_cycles = 0) const;

  /// True when the compiled program carries the cbc_chain `iv` symbol —
  /// its runs must go through run_des_cbc / run_des_cbc_from.
  [[nodiscard]] bool has_iv() const {
    return des::has_iv_symbol(masked_.program);
  }

  /// Simulates the program as-is (non-DES sources).
  [[nodiscard]] EncryptionRun run_raw() const;

  /// True when the compiled program declares a `fork` marker (the DES
  /// generator emits one under DesAsmOptions::hoist_key_schedule).
  [[nodiscard]] bool has_fork_point() const {
    return masked_.program.fork_point.has_value();
  }

  /// True when snapshot/fork capture is both possible (fork marker) and
  /// sound for this device's countermeasure: random_precharge draws its
  /// precharge stream from cycle 0, so a shared prefix would pin every
  /// forked trace to the same randomness — such devices must run cold.
  [[nodiscard]] bool fork_eligible() const {
    return has_fork_point() && policy_.fork_compatible();
  }

  /// Runs the shared, plaintext-independent prefix once — frame setup,
  /// PC-1, the hoisted key schedule — and captures the machine at the cycle
  /// the `fork` marker retires.  Throws if the program has no marker, or if
  /// it halts (or exhausts the cycle budget) before reaching it.
  [[nodiscard]] DesSnapshot snapshot_des(std::uint64_t key) const;

  /// Forks one encryption from a snapshot: pokes `plaintext` into the
  /// forked memory, resumes at the fork point, and returns a run whose
  /// trace, sim counters, breakdown, and cipher are bit-identical to
  /// run_des(snapshot.key, plaintext, stop_after_cycles).  A budget that
  /// ends at or before the fork point falls back to a cold start, so the
  /// trace is never longer than requested.
  [[nodiscard]] EncryptionRun run_des_from(const DesSnapshot& snapshot,
                                           std::uint64_t plaintext,
                                           std::uint64_t stop_after_cycles = 0) const;

  /// run_des_from for a CBC-chained program: pokes both the plaintext and
  /// the chaining value into the forked memory (both symbols are first read
  /// after the fork marker).  Bit-identical to the corresponding
  /// run_des_cbc cold start.
  [[nodiscard]] EncryptionRun run_des_cbc_from(
      const DesSnapshot& snapshot, std::uint64_t plaintext, std::uint64_t iv,
      std::uint64_t stop_after_cycles = 0) const;

  /// Simulates an externally patched copy of the compiled program (e.g.
  /// after poking a new SHA-1 message block into its data image).  The
  /// image must come from this pipeline's program().
  [[nodiscard]] EncryptionRun run_image(const assembler::Program& image,
                                        std::uint64_t stop_after_cycles = 0) const;

  [[nodiscard]] const assembler::Program& program() const {
    return masked_.program;
  }
  [[nodiscard]] const compiler::MaskResult& mask_result() const {
    return masked_;
  }
  /// The masking half of the countermeasure (historical accessor).
  [[nodiscard]] compiler::Policy policy() const { return policy_.masking; }
  /// The full masking+hiding countermeasure.
  [[nodiscard]] const hiding::Countermeasure& countermeasure() const {
    return policy_;
  }
  [[nodiscard]] const energy::TechParams& params() const { return params_; }

  /// Overrides the simulator configuration (cycle budget, memory size,
  /// operand-isolation ablation) for subsequent runs.
  void set_sim_config(const sim::SimConfig& config) { sim_config_ = config; }
  [[nodiscard]] const sim::SimConfig& sim_config() const { return sim_config_; }

  /// Base seed for per-trace hiding randomness (random_precharge stream,
  /// shuffle_nop schedule).  Each run derives its own stream as a pure
  /// function of (base seed, plaintext), preserving BatchRunner's
  /// bit-identity contract at any thread count.  Campaigns set this from
  /// the scenario seed; the default keeps standalone runs deterministic.
  void set_hiding_seed(std::uint64_t seed) { hiding_seed_ = seed; }
  [[nodiscard]] std::uint64_t hiding_seed() const { return hiding_seed_; }

  /// The per-run hiding stream seed for `plaintext` (exposed so tests can
  /// reproduce the schedule a run used).
  [[nodiscard]] std::uint64_t run_hiding_seed(std::uint64_t plaintext) const;

  /// The shuffle_nop delay schedule drawn for one run seed: one entry per
  /// nop_tab slot, each uniform in [0, hiding::kShuffleNopMaxDelay].
  [[nodiscard]] static std::vector<std::uint32_t> shuffle_schedule(
      std::uint64_t run_seed);

 private:
  MaskingPipeline(compiler::MaskResult masked, hiding::Countermeasure policy,
                  const energy::TechParams& params)
      : masked_(std::move(masked)), policy_(policy), params_(params) {}

  [[nodiscard]] energy::HidingConfig hiding_config(
      std::uint64_t run_seed) const;

  [[nodiscard]] EncryptionRun simulate(const assembler::Program& program,
                                       std::uint64_t stop_after_cycles = 0) const;

  [[nodiscard]] EncryptionRun cold_des(const std::uint64_t* iv,
                                       std::uint64_t key,
                                       std::uint64_t plaintext,
                                       std::uint64_t stop_after_cycles) const;
  [[nodiscard]] EncryptionRun forked_des(const DesSnapshot& snapshot,
                                         const std::uint64_t* iv,
                                         std::uint64_t plaintext,
                                         std::uint64_t stop_after_cycles) const;

  compiler::MaskResult masked_;
  hiding::Countermeasure policy_;
  energy::TechParams params_;
  sim::SimConfig sim_config_;
  std::uint64_t hiding_seed_ = 0x9E3779B97F4A7C15ull;
};

}  // namespace emask::core
