#include "core/masking_pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "assembler/assembler.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

/// The one step loop: runs `pipeline` to halt (stop == 0, under the
/// simulator's cycle budget) or until `stop` cycles have run, appending
/// one pJ sample per clock to `trace`.  `tap(activity, pj)` sees every
/// sample; on a truncated run it returning true ends the run early.
template <typename Tap>
sim::SimResult drive(sim::Pipeline& pipeline,
                     energy::ProcessorEnergyModel& model, std::uint64_t stop,
                     analysis::Trace& trace, Tap&& tap) {
  const auto sample = [&](const energy::CycleActivity& activity) {
    const double pj = model.cycle(activity) * 1e12;  // J -> pJ
    trace.push(pj);
    return tap(activity, pj);
  };
  if (stop == 0) return pipeline.run(sample);
  energy::CycleActivity activity;
  while (pipeline.cycles() < stop && pipeline.step(activity)) {
    if (sample(activity)) break;
  }
  return pipeline.result();
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
  return from_program(assembler::assemble(source), policy, params);
}

MaskingPipeline MaskingPipeline::from_program(
    const assembler::Program& program, const hiding::Countermeasure& policy,
    const energy::TechParams& params) {
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

EncryptionRun MaskingPipeline::run(const RunRequest& request) const {
  const std::uint64_t stop = request.stop_after_cycles;
  if (request.from != nullptr) {
    if (request.image != nullptr || request.observer) {
      throw std::invalid_argument(
          "run: image and observed runs are cold; they cannot fork from a "
          "snapshot");
    }
    if (request.from->text != text_) {
      throw std::invalid_argument(
          "run_des_from: snapshot was captured from a different device");
    }
    if (request.from->key != request.key) {
      throw std::invalid_argument(
          "run: request key differs from the snapshot's key");
    }
  }
  // A budget ending at or before the fork point falls back to a cold
  // start, so the emitted trace is never longer than requested.
  const DesSnapshot* from =
      request.from != nullptr && request.from->forks(request.key, stop)
          ? request.from
          : nullptr;

  const assembler::Program& program =
      from != nullptr            ? from->program
      : request.image != nullptr ? *request.image
                                 : masked_.program;
  // A snapshot's and an unchanged image's text are the device's own, so
  // their machines borrow its decoded text.
  std::shared_ptr<const sim::DecodedText> text =
      request.image == nullptr || request.image->text == masked_.program.text
          ? text_
          : sim::predecode(program);
  sim::Pipeline pipeline =
      from != nullptr ? sim::Pipeline(program, std::move(text), from->machine)
                      : sim::Pipeline(program, std::move(text), sim_config_);
  // Image runs keep their data image as-is; DES inputs go straight into
  // the machine's memory, so no per-run copy of the program is made.
  const std::uint64_t run_seed =
      request.image != nullptr ? 0 : run_hiding_seed(request.plaintext);
  if (request.image == nullptr) {
    if (from == nullptr) des::poke_key(pipeline.memory(), program, request.key);
    des::poke_plaintext(pipeline.memory(), program, request.plaintext);
    if (request.iv) des::poke_iv(pipeline.memory(), program, *request.iv);
    if (policy_.hiding == hiding::HidingPolicy::kShuffleNop) {
      // The nop_tab slots are first read after the fork marker, so a forked
      // run draws the same per-plaintext schedule a cold run does.
      des::poke_nop_schedule(pipeline.memory(), program,
                             shuffle_schedule(run_seed));
    }
  }
  energy::ProcessorEnergyModel model =
      from != nullptr
          ? from->model  // resume mid-trace
          : energy::ProcessorEnergyModel(params_, hiding_config(run_seed));

  EncryptionRun run;
  if (from != nullptr) {
    // The hoisted DES shape spends ~40% of its cycles before the fork
    // marker, so three prefixes hold the whole trace in one allocation.
    // Regrowing a copied prefix twice per fork churns the worker threads'
    // malloc arenas and measurably raises a forked batch's peak memory.
    run.trace.reserve(3 * from->prefix.size());
    for (const double pj : from->prefix.samples()) {
      run.trace.push(pj);  // splice the shared prefix in front
    }
  } else if (stop == 0) {
    // A cold run to halt is about as long as the device's last one; with
    // no hint yet (the device's first run) the trace grows as it goes.
    const std::uint64_t last = halt_length_.get();
    if (last != 0) run.trace.reserve(last + kHaltTraceSlack);
  }
  run.trace.reserve(stop);  // exact for truncated runs
  if (request.observer) {
    run.sim = drive(pipeline, model, stop, run.trace,
                    [&](const energy::CycleActivity& activity, double pj) {
                      request.observer(activity, pj);
                      return false;
                    });
  } else {
    run.sim = drive(pipeline, model, stop, run.trace,
                    [](const energy::CycleActivity&, double) { return false; });
  }
  // The DES convention: a 64-bit-per-word "cipher" symbol.  Other
  // workloads (AES, SHA-1) expose their outputs through their own read_*
  // helpers.
  const assembler::DataSymbol* cipher = program.find_symbol("cipher");
  if (stop == 0 && cipher != nullptr && cipher->size_bytes >= 64 * 4) {
    run.cipher = des::read_cipher(pipeline.memory(), program);
  }
  if (stop == 0) halt_length_.set(run.trace.size());
  run.breakdown = model.breakdown();
  return run;
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
  sim::Pipeline pipeline(program, text_, sim_config_);
  // The prefix is plaintext-independent, so it cannot consume any of the
  // per-run hiding stream; wddl's constant mode is stateless and safe.
  energy::ProcessorEnergyModel model(params_, hiding_config(0));
  analysis::Trace prefix;
  bool reached = false;
  (void)drive(pipeline, model, sim_config_.max_cycles, prefix,
              [&](const energy::CycleActivity& activity, double) {
                reached = activity.retired && activity.retire_pc == fork_pc;
                return reached;
              });
  if (!reached) {
    throw std::runtime_error(
        pipeline.cycles() >= sim_config_.max_cycles
            ? "snapshot_des: fork marker not retired within the cycle budget"
            : "snapshot_des: program halted before the fork marker retired");
  }
  // Capture before moving `program` out: Pipeline::snapshot() reads the
  // program it references, and braced-init evaluates left to right.
  sim::Snapshot machine = pipeline.snapshot();
  const std::uint64_t fork_cycle = pipeline.cycles();
  return DesSnapshot{std::move(program), text_, std::move(machine),
                     std::move(model), std::move(prefix), key, fork_cycle};
}

}  // namespace emask::core
