// End-to-end driver: the paper's system, assembled.
//
//   annotated assembly --(compiler: forward slice + secure rewriting)-->
//   secured program --(cycle-accurate pipeline + energy model)-->
//   ciphertext + per-cycle energy trace + component breakdown
//
// This is the top-level public API: every experiment and example builds on
// MaskingPipeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
  /// The capturing device's decoded text.  A fork runs the device's own
  /// decoded text, so only that device (or a copy, which shares it) may
  /// fork from this snapshot.
  std::shared_ptr<const sim::DecodedText> text;
  sim::Snapshot machine;
  energy::ProcessorEnergyModel model;  // state as of fork_cycle
  analysis::Trace prefix;              // samples for cycles [0, fork_cycle)
  std::uint64_t key = 0;
  std::uint64_t fork_cycle = 0;  // cycle count at capture

  /// Whether a run of `run_key` stopping after `stop_after_cycles` (0 = at
  /// halt) forks from this snapshot.  The key must match, and a budget
  /// ending at or before the fork point cannot reuse the captured prefix
  /// without overrunning it, so such a run starts cold.
  [[nodiscard]] bool forks(std::uint64_t run_key,
                           std::uint64_t stop_after_cycles) const {
    return run_key == key &&
           (stop_after_cycles == 0 || stop_after_cycles > fork_cycle);
  }
};

/// One simulated run, described by parameters: what runs (an image, or DES
/// inputs poked into a fresh machine), where it stops, whether it forks
/// from a snapshot, and who watches each cycle.  Every run path goes
/// through MaskingPipeline::run, so the device's hiding configuration
/// applies the same way to all of them.
struct RunRequest {
  /// A patched copy of this pipeline's program(), run as-is with the
  /// image-run hiding seed (0) and no input pokes.  An image whose text
  /// still equals program()'s reuses the device's decoded text; any other
  /// is decoded for the run.  When null, the run is a DES encryption of
  /// the fields below.
  const assembler::Program* image = nullptr;
  std::uint64_t key = 0;
  std::uint64_t plaintext = 0;
  /// CBC chaining value, for cbc_chain programs (`iv` symbol).
  std::optional<std::uint64_t> iv{};
  /// Truncates the simulation (0 = run to halt); a truncated run reports
  /// cipher = 0.
  std::uint64_t stop_after_cycles = 0;
  /// Forks the DES run from this snapshot (its key must match `key`).  A
  /// budget ending at or before the fork point falls back to a cold start
  /// (DesSnapshot::forks).
  const DesSnapshot* from = nullptr;
  /// Called after every cycle with its activity and energy (pJ).  Observed
  /// runs are cold: combining an observer with `from` throws.
  std::function<void(const energy::CycleActivity&, double pj)> observer{};
};

class MaskingPipeline {
 public:
  /// Samples a cold run to halt reserves beyond the length of the device's
  /// previous run to halt.  shuffle_nop makes run lengths differ per
  /// plaintext: a run takes 144 delays (16 round + 8 × 16 S-box slots) of
  /// 0 to kShuffleNopMaxDelay loop iterations, 4 cycles an iteration past
  /// the first, so two runs differ by at most 144 × 11 × 4 = 6,336 cycles.
  static constexpr std::size_t kHaltTraceSlack = 8192;

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

  /// from_source over an already assembled program.
  static MaskingPipeline from_program(
      const assembler::Program& program, const hiding::Countermeasure& policy,
      const energy::TechParams& params = energy::TechParams::smartcard_025um());

  /// The run primitive: simulates `request` (see RunRequest) and returns
  /// its trace, breakdown, counters and — for a DES run to halt — cipher.
  /// Throws std::invalid_argument on a request that mixes an image or an
  /// observer with a snapshot, or a snapshot from another program or key.
  [[nodiscard]] EncryptionRun run(const RunRequest& request) const;

  /// Simulates one DES encryption: pokes `key`/`plaintext` into the data
  /// image, runs to halt (or `stop_after_cycles`), returns the trace and
  /// the ciphertext.
  [[nodiscard]] EncryptionRun run_des(
      std::uint64_t key, std::uint64_t plaintext,
      std::uint64_t stop_after_cycles = 0) const {
    return run({.key = key, .plaintext = plaintext,
                .stop_after_cycles = stop_after_cycles});
  }

  /// run_des for a CBC-chained program (DesAsmOptions::cbc_chain): also
  /// pokes the chaining value into the `iv` symbol.  Throws
  /// std::invalid_argument when the program has no `iv` symbol.
  [[nodiscard]] EncryptionRun run_des_cbc(
      std::uint64_t key, std::uint64_t plaintext, std::uint64_t iv,
      std::uint64_t stop_after_cycles = 0) const {
    return run({.key = key, .plaintext = plaintext, .iv = iv,
                .stop_after_cycles = stop_after_cycles});
  }

  /// True when the compiled program carries the cbc_chain `iv` symbol —
  /// its runs must go through run_des_cbc / run_des_cbc_from.
  [[nodiscard]] bool has_iv() const {
    return des::has_iv_symbol(masked_.program);
  }

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

  /// Forks one encryption from a snapshot: a run whose trace, sim
  /// counters, breakdown, and cipher are bit-identical to
  /// run_des(snapshot.key, plaintext, stop_after_cycles).
  [[nodiscard]] EncryptionRun run_des_from(
      const DesSnapshot& snapshot, std::uint64_t plaintext,
      std::uint64_t stop_after_cycles = 0) const {
    return run({.key = snapshot.key, .plaintext = plaintext,
                .stop_after_cycles = stop_after_cycles, .from = &snapshot});
  }

  /// run_des_from for a CBC-chained program (the plaintext and chaining
  /// value are both first read after the fork marker).
  [[nodiscard]] EncryptionRun run_des_cbc_from(
      const DesSnapshot& snapshot, std::uint64_t plaintext, std::uint64_t iv,
      std::uint64_t stop_after_cycles = 0) const {
    return run({.key = snapshot.key, .plaintext = plaintext, .iv = iv,
                .stop_after_cycles = stop_after_cycles, .from = &snapshot});
  }

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

  /// Overrides the simulator configuration (cycle budget, operand-isolation
  /// ablation) for subsequent runs.
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
      : masked_(std::move(masked)),
        text_(sim::predecode(masked_.program)),
        policy_(policy),
        params_(params) {}

  [[nodiscard]] energy::HidingConfig hiding_config(
      std::uint64_t run_seed) const;

  /// Length of the device's latest run to halt, so the next cold run to
  /// halt can reserve its whole trace at once instead of regrowing it.  A
  /// capacity hint only: it never reaches an output.  Relaxed atomic,
  /// because BatchRunner workers share one const device; copies of the
  /// device carry it along.
  class LengthHint {
   public:
    LengthHint() = default;
    LengthHint(const LengthHint& other) : cycles_(other.get()) {}
    LengthHint& operator=(const LengthHint& other) {
      set(other.get());
      return *this;
    }
    [[nodiscard]] std::uint64_t get() const {
      return cycles_.load(std::memory_order_relaxed);
    }
    void set(std::uint64_t cycles) const {
      cycles_.store(cycles, std::memory_order_relaxed);
    }

   private:
    mutable std::atomic<std::uint64_t> cycles_{0};
  };

  compiler::MaskResult masked_;
  /// masked_.program's text, decoded once: every run and snapshot of the
  /// device, and every copy of it, shares this.
  std::shared_ptr<const sim::DecodedText> text_;
  hiding::Countermeasure policy_;
  energy::TechParams params_;
  sim::SimConfig sim_config_;
  std::uint64_t hiding_seed_ = 0x9E3779B97F4A7C15ull;
  LengthHint halt_length_;
};

}  // namespace emask::core
