#include "core/masking_pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "assembler/assembler.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

/// Steps `pipeline` to halt (stop_after_cycles == 0) or until that many
/// cycles have run, appending one pJ sample per clock to `run.trace`; a
/// completed DES run also gets its cipher.
void drive(sim::Pipeline& pipeline, const assembler::Program& program,
           energy::ProcessorEnergyModel& model,
           std::uint64_t stop_after_cycles, EncryptionRun& run) {
  if (stop_after_cycles == 0) {
    run.sim = pipeline.run([&](const energy::CycleActivity& activity) {
      run.trace.push(model.cycle(activity) * 1e12);  // J -> pJ
    });
    // The DES convention: a 64-bit-per-word "cipher" symbol.  Other
    // workloads (AES, SHA-1) expose their outputs through their own
    // read_* helpers.
    const assembler::DataSymbol* cipher = program.find_symbol("cipher");
    if (cipher != nullptr && cipher->size_bytes >= 64 * 4) {
      run.cipher = des::read_cipher(pipeline.memory(), program);
    }
  } else {
    run.trace.reserve(stop_after_cycles);
    energy::CycleActivity activity;
    while (pipeline.cycles() < stop_after_cycles && pipeline.step(activity)) {
      run.trace.push(model.cycle(activity) * 1e12);
    }
    run.sim = pipeline.result();
  }
  run.breakdown = model.breakdown();
}

}  // namespace

MaskingPipeline MaskingPipeline::des(const hiding::Countermeasure& policy,
                                     const energy::TechParams& params,
                                     const des::DesAsmOptions& asm_options) {
  des::DesAsmOptions options = asm_options;
  if (policy.hiding == hiding::HidingPolicy::kShuffleNop) {
    options.shuffle_slots = true;
  }
  // Key/plaintext placeholders; run_des pokes real values per run.
  const std::string source = des::generate_des_asm(0, 0, options);
  return from_source(source, policy, params);
}

MaskingPipeline MaskingPipeline::from_source(const std::string& source,
                                             const hiding::Countermeasure& policy,
                                             const energy::TechParams& params) {
  assembler::Program program = assembler::assemble(source);
  if (policy.hiding == hiding::HidingPolicy::kShuffleNop &&
      !des::has_nop_table(program)) {
    throw std::invalid_argument(
        "from_source: shuffle_nop needs the DES generator's nop_tab delay "
        "slots (generate with DesAsmOptions::shuffle_slots)");
  }
  compiler::MaskResult masked = compiler::apply_masking(program, policy.masking);
  return MaskingPipeline(std::move(masked), policy, params);
}

std::uint64_t MaskingPipeline::run_hiding_seed(std::uint64_t plaintext) const {
  // Pure function of (base seed, plaintext): forked and cold runs of the
  // same input draw identical streams at any thread count.
  return util::Rng(hiding_seed_ ^
                   (plaintext * 0x9E3779B97F4A7C15ull)).next_u64();
}

std::vector<std::uint32_t> MaskingPipeline::shuffle_schedule(
    std::uint64_t run_seed) {
  std::vector<std::uint32_t> delays(des::kShuffleSlotCount);
  util::Rng rng(run_seed);
  for (std::uint32_t& d : delays) {
    d = static_cast<std::uint32_t>(
        rng.next_below(hiding::kShuffleNopMaxDelay + 1));
  }
  return delays;
}

energy::HidingConfig MaskingPipeline::hiding_config(
    std::uint64_t run_seed) const {
  energy::HidingConfig cfg;
  switch (policy_.hiding) {
    case hiding::HidingPolicy::kWddl:
      cfg.mode = energy::HidingMode::kConstant;
      break;
    case hiding::HidingPolicy::kRandomPrecharge:
      cfg.mode = energy::HidingMode::kRandomPrecharge;
      cfg.seed = run_seed;
      break;
    case hiding::HidingPolicy::kNone:
    case hiding::HidingPolicy::kShuffleNop:  // program-level; model untouched
      break;
  }
  return cfg;
}

EncryptionRun MaskingPipeline::simulate(
    const assembler::Program& program, std::uint64_t stop_after_cycles) const {
  sim::Pipeline pipeline(program, sim_config_);
  energy::ProcessorEnergyModel model(params_, hiding_config(0));
  EncryptionRun run;
  drive(pipeline, program, model, stop_after_cycles, run);
  return run;
}

EncryptionRun MaskingPipeline::cold_des(const std::uint64_t* iv,
                                        std::uint64_t key,
                                        std::uint64_t plaintext,
                                        std::uint64_t stop_after_cycles) const {
  // Inputs go straight into the fresh machine's memory, as a fork pokes
  // them, so no per-run copy of the program is made.
  const assembler::Program& program = masked_.program;
  sim::Pipeline pipeline(program, sim_config_);
  des::poke_key(pipeline.memory(), program, key);
  des::poke_plaintext(pipeline.memory(), program, plaintext);
  if (iv != nullptr) des::poke_iv(pipeline.memory(), program, *iv);
  const std::uint64_t run_seed = run_hiding_seed(plaintext);
  if (policy_.hiding == hiding::HidingPolicy::kShuffleNop) {
    des::poke_nop_schedule(pipeline.memory(), program,
                           shuffle_schedule(run_seed));
  }
  energy::ProcessorEnergyModel model(params_, hiding_config(run_seed));
  EncryptionRun run;
  drive(pipeline, program, model, stop_after_cycles, run);
  return run;
}

EncryptionRun MaskingPipeline::run_des(std::uint64_t key,
                                       std::uint64_t plaintext,
                                       std::uint64_t stop_after_cycles) const {
  return cold_des(nullptr, key, plaintext, stop_after_cycles);
}

EncryptionRun MaskingPipeline::run_des_cbc(
    std::uint64_t key, std::uint64_t plaintext, std::uint64_t iv,
    std::uint64_t stop_after_cycles) const {
  return cold_des(&iv, key, plaintext, stop_after_cycles);
}

DesSnapshot MaskingPipeline::snapshot_des(std::uint64_t key) const {
  if (!masked_.program.fork_point) {
    throw std::logic_error(
        "snapshot_des: program declares no fork marker (generate with "
        "DesAsmOptions::hoist_key_schedule)");
  }
  if (!policy_.fork_compatible()) {
    throw std::logic_error(
        "snapshot_des: " + policy_.name() +
        " draws per-trace randomness from cycle 0, so a shared prefix would "
        "pin every forked trace to the same stream — run cold instead");
  }
  assembler::Program program = masked_.program;  // copy, then poke the key
  des::poke_key(program, key);
  // The plaintext placeholder stays zero: the prefix must be
  // plaintext-independent, and by construction the marker precedes the
  // first `plain` load.
  const std::uint32_t fork_pc = *program.fork_point;
  sim::Pipeline pipeline(program, sim_config_);
  // The prefix is plaintext-independent, so it cannot consume any of the
  // per-run hiding stream; wddl's constant mode is stateless and safe.
  energy::ProcessorEnergyModel model(params_, hiding_config(0));
  analysis::Trace prefix;
  energy::CycleActivity activity;
  bool reached = false;
  while (pipeline.step(activity)) {
    prefix.push(model.cycle(activity) * 1e12);  // J -> pJ
    if (activity.retired && activity.retire_pc == fork_pc) {
      reached = true;
      break;
    }
    if (pipeline.cycles() >= sim_config_.max_cycles) {
      throw std::runtime_error(
          "snapshot_des: fork marker not retired within the cycle budget");
    }
  }
  if (!reached) {
    throw std::runtime_error(
        "snapshot_des: program halted before the fork marker retired");
  }
  // Capture before moving `program` out: Pipeline::snapshot() reads the
  // program it references, and braced-init evaluates left to right.
  sim::Snapshot machine = pipeline.snapshot();
  const std::uint64_t fork_cycle = pipeline.cycles();
  return DesSnapshot{std::move(program), std::move(machine), std::move(model),
                     std::move(prefix), key, fork_cycle};
}

EncryptionRun MaskingPipeline::run_des_from(
    const DesSnapshot& snapshot, std::uint64_t plaintext,
    std::uint64_t stop_after_cycles) const {
  return forked_des(snapshot, nullptr, plaintext, stop_after_cycles);
}

EncryptionRun MaskingPipeline::run_des_cbc_from(
    const DesSnapshot& snapshot, std::uint64_t plaintext, std::uint64_t iv,
    std::uint64_t stop_after_cycles) const {
  return forked_des(snapshot, &iv, plaintext, stop_after_cycles);
}

EncryptionRun MaskingPipeline::forked_des(
    const DesSnapshot& snapshot, const std::uint64_t* iv,
    std::uint64_t plaintext, std::uint64_t stop_after_cycles) const {
  // A budget ending at or before the fork point cannot reuse the captured
  // prefix without overrunning it — fall back to a cold start so the
  // emitted trace is never longer than requested.
  if (stop_after_cycles != 0 && stop_after_cycles <= snapshot.fork_cycle) {
    return cold_des(iv, snapshot.key, plaintext, stop_after_cycles);
  }
  if (snapshot.machine.text_size != masked_.program.text.size()) {
    throw std::invalid_argument(
        "run_des_from: snapshot was captured from a different program");
  }
  sim::Pipeline pipeline(snapshot.program, snapshot.machine);
  des::poke_plaintext(pipeline.memory(), snapshot.program, plaintext);
  if (iv != nullptr) des::poke_iv(pipeline.memory(), snapshot.program, *iv);
  if (policy_.hiding == hiding::HidingPolicy::kShuffleNop) {
    // The nop_tab slots are first read after the fork marker, so a forked
    // run can draw the same per-plaintext schedule a cold run would.
    des::poke_nop_schedule(pipeline.memory(), snapshot.program,
                           shuffle_schedule(run_hiding_seed(plaintext)));
  }
  energy::ProcessorEnergyModel model = snapshot.model;  // resume mid-trace
  EncryptionRun run;
  // The hoisted DES shape spends ~40% of its cycles before the fork
  // marker, so three prefixes hold the whole trace in one allocation.
  // Regrowing a copied prefix twice per fork churns the worker threads'
  // malloc arenas and measurably raises a forked batch's peak memory.
  run.trace.reserve(3 * snapshot.prefix.size());
  for (const double pj : snapshot.prefix.samples()) {
    run.trace.push(pj);  // splice the shared prefix in front
  }
  drive(pipeline, snapshot.program, model, stop_after_cycles, run);
  return run;
}

EncryptionRun MaskingPipeline::run_raw() const { return simulate(masked_.program); }

EncryptionRun MaskingPipeline::run_image(const assembler::Program& image,
                                         std::uint64_t stop_after_cycles) const {
  return simulate(image, stop_after_cycles);
}

}  // namespace emask::core
