// The four emask-perf workloads.  Each is a closed loop: one caller issues
// the next unit only when the previous one has returned.  A run repeats its
// set-up kSetupRepeats times, then runs whole rounds (one unit of every
// class) until the requested seconds have passed.
//
//   encrypt_cold   cold MaskingPipeline::run_des, 1 thread, round-robin over
//                  the four masking policies
//   attack_round1  dpa / cpa / mlpa / collision scenarios on the unmasked
//                  device, streamed through BatchRunner::capture_each
//   session_cbc    DES-CBC and 3DES-EDE-CBC sessions (SessionEngine)
//   campaign_zoo   CampaignRunner on the countermeasure matrix, then the
//                  report
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/collision.hpp"
#include "analysis/cpa.hpp"
#include "analysis/disclosure.hpp"
#include "analysis/dpa.hpp"
#include "analysis/mlpa.hpp"
#include "assembler/assembler.hpp"
#include "bitslice/providers.hpp"
#include "campaign/runner.hpp"
#include "compiler/masking.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "des/asm_generator.hpp"
#include "des/des.hpp"
#include "energy/model.hpp"
#include "hiding/policy.hpp"
#include "perf.hpp"
#include "report/html.hpp"
#include "report/model.hpp"
#include "session/session.hpp"
#include "sim/pipeline.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace emask::perf {
namespace {

namespace fs = std::filesystem;

// Set-up is short and noisy next to the timed part, so each run sets up
// several times and reports the median.
constexpr int kSetupRepeats = 9;
// Batch workloads use 3 BatchRunner workers; the calling thread runs the
// sink, so a run keeps at most 4 threads busy.
constexpr std::size_t kWorkers = 3;
// Attack captures stop at cycle 13000 (the campaign default window end);
// dpa/cpa window [3000, 13000) like a campaign, mlpa/collision window the
// S-box's round-1 cycles like a campaign.
constexpr std::uint64_t kAttackStop = 13000;
constexpr std::size_t kAttackWindowBegin = 3000;
constexpr std::size_t kDesCbcBlocks = 128;
constexpr std::size_t kTdesBlocks = 32;
constexpr std::size_t kCampaignTraces = 100;

const compiler::Policy kMaskingPolicies[] = {
    compiler::Policy::kOriginal, compiler::Policy::kSelective,
    compiler::Policy::kNaiveLoadStore, compiler::Policy::kAllSecure};

// The countermeasures.ini policy axis.
const char* const kZooPolicies[] = {
    "original", "selective", "naive_loadstore", "all_secure",
    "wddl",     "random_precharge", "shuffle_nop", "selective+wddl"};
// Policies that leave CPA and MLPA no first-order signal in their window:
// every guess scores the same, whatever the key and plaintexts.
const char* const kFlatPolicies[] = {"selective", "all_secure", "wddl",
                                     "selective+wddl"};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The workload's own stream: --seed mixed with the workload name.
std::uint64_t workload_seed(const Options& o) {
  Digest d;
  d.add(std::string_view(o.workload));
  d.add(o.seed);
  return util::Rng(d.value()).next_u64();
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t index) {
  return util::Rng::nth(seed, index);
}

std::uint64_t draw_key(std::uint64_t seed, std::uint64_t index) {
  return des::with_odd_parity(draw(seed, index));
}

bool same_bits(const analysis::Trace& a, const analysis::Trace& b) {
  return a.size() == b.size() &&
         std::memcmp(a.samples().data(), b.samples().data(),
                     a.size() * sizeof(double)) == 0;
}

void add_trace_bits(Digest& d, const analysis::Trace& trace) {
  d.add_bytes(trace.samples().data(), trace.size() * sizeof(double));
}

/// Repeats `make` kSetupRepeats times, recording each duration, and keeps
/// the last result.
template <typename Make>
auto repeated_setup(WorkloadResult& r, Tracer* t, Make&& make) {
  std::optional<decltype(make())> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(t, "setup", 0);
      state.emplace(make());
    }
    r.setup_s.push_back(seconds_since(t0));
  }
  return std::move(*state);
}

/// Runs whole rounds until `seconds` have passed, and at least `min_rounds`,
/// recording each round's DES passes per second.
template <typename Round>
void timed_rounds(const Options& o, std::size_t min_rounds, WorkloadResult& r,
                  Round&& round) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < min_rounds || seconds_since(t0) < o.seconds;
       ++i) {
    const auto round_t0 = Clock::now();
    const std::uint64_t passes = r.passes;
    round(i);
    r.round_rate.push_back(static_cast<double>(r.passes - passes) /
                           seconds_since(round_t0));
  }
  r.wall_s = seconds_since(t0);
}

// ---- Per-layer replay (traced runs only) --------------------------------
//
// The per-cycle layers are too fine for a span per call, so a fixed sample
// of runs goes through a bench-side copy of the public cold path: program
// copy and pokes, sim::Pipeline construction, the step loop, the energy
// model, the trace append.  Each phase is timed as a whole.  The copy must
// reproduce MaskingPipeline bit for bit, which it checks.

struct Sample {
  const core::MaskingPipeline* device = nullptr;
  des::DesAsmOptions asm_options;  // the options the device was built with
  std::uint64_t key = 0;
  std::uint64_t plaintext = 0;
  std::optional<std::uint64_t> iv;
  std::uint64_t stop = 0;  // 0 = run to halt
};

void replay_build(const Sample& s, Tracer* t, std::uint32_t unit,
                  WorkloadResult& r) {
  des::DesAsmOptions options = s.asm_options;
  if (s.device->countermeasure().hiding == hiding::HidingPolicy::kShuffleNop) {
    options.shuffle_slots = true;  // as MaskingPipeline::des does
  }
  std::string source;
  {
    ScopedSpan span(t, "des.generate", unit);
    source = des::generate_des_asm(0, 0, options);
  }
  assembler::Program program;
  {
    ScopedSpan span(t, "assembler.assemble", unit);
    program = assembler::assemble(source);
  }
  compiler::MaskResult masked;
  {
    ScopedSpan span(t, "compiler.mask", unit);
    masked = compiler::apply_masking(program, s.device->policy());
  }
  t->count("compiler.builds", 1);
  t->count("compiler.secured", static_cast<double>(masked.secured_count));
  r.check(masked.secured_count == s.device->mask_result().secured_count &&
              masked.program.text.size() == s.device->program().text.size(),
          "replayed build of " + s.device->countermeasure().name() +
              " differs from the device");
}

core::EncryptionRun reference_run(const Sample& s) {
  const core::MaskingPipeline& d = *s.device;
  return s.iv ? d.run_des_cbc(s.key, s.plaintext, *s.iv, s.stop)
              : d.run_des(s.key, s.plaintext, s.stop);
}

/// Replays one cold run layer by layer; returns the reference run_des.
core::EncryptionRun replay_run(const Sample& s, Tracer* t, std::uint32_t unit,
                               WorkloadResult& r) {
  const core::MaskingPipeline& d = *s.device;
  const hiding::HidingPolicy hiding_policy = d.countermeasure().hiding;
  const std::uint64_t run_seed = d.run_hiding_seed(s.plaintext);
  assembler::Program image;
  {
    ScopedSpan span(t, "core.run_setup", unit);
    image = d.program();
    des::poke_key(image, s.key);
    des::poke_plaintext(image, s.plaintext);
    if (s.iv) des::poke_iv(image, *s.iv);
    if (hiding_policy == hiding::HidingPolicy::kShuffleNop) {
      des::poke_nop_schedule(image,
                             core::MaskingPipeline::shuffle_schedule(run_seed));
    }
  }
  energy::HidingConfig hiding_config;
  if (hiding_policy == hiding::HidingPolicy::kWddl) {
    hiding_config.mode = energy::HidingMode::kConstant;
  } else if (hiding_policy == hiding::HidingPolicy::kRandomPrecharge) {
    hiding_config.mode = energy::HidingMode::kRandomPrecharge;
    hiding_config.seed = run_seed;
  }

  // Two identical machines: one steps bare (timed), one records activity
  // for the energy model.
  std::optional<sim::Pipeline> timed;
  std::optional<sim::Pipeline> recorded;
  {
    ScopedSpan span(t, "core.pipeline_ctor", unit);
    timed.emplace(image, d.sim_config());
  }
  {
    ScopedSpan span(t, "core.pipeline_ctor", unit);
    recorded.emplace(image, d.sim_config());
  }
  // Both MaskingPipeline loops: a full run keeps the halting cycle
  // (Pipeline::run), a truncated one stops at the budget or the halt.
  energy::CycleActivity activity;
  const auto step = [&](sim::Pipeline& p) {
    if (s.stop != 0) return p.cycles() < s.stop && p.step(activity);
    if (p.halted()) return false;
    p.step(activity);
    return true;
  };
  std::uint64_t steps = 0;
  {
    ScopedSpan span(t, "sim.step_loop", unit);
    while (step(*timed)) ++steps;
  }
  std::vector<energy::CycleActivity> activities;
  activities.reserve(steps);
  while (step(*recorded)) activities.push_back(activity);

  energy::ProcessorEnergyModel model(d.params(), hiding_config);
  std::vector<double> joules(activities.size());
  {
    ScopedSpan span(t, "energy.cycle_loop", unit);
    for (std::size_t i = 0; i < activities.size(); ++i) {
      joules[i] = model.cycle(activities[i]);
    }
  }
  analysis::Trace trace;
  {
    ScopedSpan span(t, "analysis.push_loop", unit);
    for (const double j : joules) trace.push(j * 1e12);  // J -> pJ
  }
  t->count("sim.steps", static_cast<double>(steps));
  t->count("energy.cycles", static_cast<double>(joules.size()));
  t->count("analysis.pushes", static_cast<double>(joules.size()));

  const std::uint64_t cipher =
      s.stop == 0 ? des::read_cipher(recorded->memory(), image) : 0;
  core::EncryptionRun ref;
  {
    ScopedSpan span(t, "core.run_des", unit);
    ref = reference_run(s);
  }
  r.check(same_bits(ref.trace, trace) && ref.cipher == cipher &&
              ref.sim.cycles == recorded->cycles(),
          "layer replay of a " + d.countermeasure().name() +
              " run differs from run_des");
  t->count("replay.runs", 1);
  t->count("sim.cycles", static_cast<double>(ref.sim.cycles));
  t->count("sim.instructions", static_cast<double>(ref.sim.instructions));
  t->count("sim.stalls", static_cast<double>(ref.sim.stalls));
  t->count("sim.flushes", static_cast<double>(ref.sim.flushes));
  t->count("energy.uj", ref.total_uj());
  return ref;
}

/// Snapshot + one forked run of a hoisted device, checked against the cold
/// reference.
void replay_fork(const Sample& s, const core::EncryptionRun& cold, Tracer* t,
                 std::uint32_t unit, WorkloadResult& r) {
  const core::MaskingPipeline& d = *s.device;
  std::optional<core::DesSnapshot> snapshot;
  {
    ScopedSpan span(t, "core.snapshot", unit);
    snapshot.emplace(d.snapshot_des(s.key));
  }
  core::EncryptionRun forked;
  {
    ScopedSpan span(t, "core.fork", unit);
    forked = s.iv ? d.run_des_cbc_from(*snapshot, s.plaintext, *s.iv, s.stop)
                  : d.run_des_from(*snapshot, s.plaintext, s.stop);
  }
  r.check(same_bits(forked.trace, cold.trace) && forked.cipher == cold.cipher,
          "forked " + d.countermeasure().name() + " run differs from cold");
}

void replay_samples(const std::vector<Sample>& samples, bool fork, Tracer* t,
                    WorkloadResult& r) {
  std::uint32_t unit = 1u << 30;  // replay units sit apart from timed ones
  for (const Sample& s : samples) {
    ScopedSpan span(t, "replay", ++unit);
    replay_build(s, t, unit, r);
    const core::EncryptionRun cold = replay_run(s, t, unit, r);
    if (fork) replay_fork(s, cold, t, unit, r);
  }
}

// ---- encrypt_cold ---------------------------------------------------------

WorkloadResult encrypt_cold(const Options& o, Tracer* t) {
  const std::uint64_t seed = workload_seed(o);
  const auto input = [seed](std::uint64_t unit) {
    return std::pair{draw_key(seed, 2 * unit), draw(seed, 2 * unit + 1)};
  };
  WorkloadResult r;
  auto devices = repeated_setup(r, t, [&] {
    std::vector<core::MaskingPipeline> built;
    for (const compiler::Policy p : kMaskingPolicies) {
      ScopedSpan span(t, "core.build", 0);
      built.push_back(core::MaskingPipeline::des(p));
    }
    for (const core::MaskingPipeline& d : built) {
      const auto [key, plaintext] = input(0);
      r.check(d.run_des(key, plaintext).cipher ==
                  des::encrypt_block(plaintext, key),
              "encrypt_cold warm-up: ciphertext differs");
    }
    return built;
  });

  constexpr std::size_t kDigestRounds = 2;
  Digest digest;
  timed_rounds(o, kDigestRounds, r, [&](std::size_t round) {
    for (std::size_t p = 0; p < devices.size(); ++p) {
      const std::uint64_t u = round * devices.size() + p;
      const auto [key, plaintext] = input(u);
      const auto unit = static_cast<std::uint32_t>(u + 1);
      ScopedSpan unit_span(t, "unit", unit);
      const auto t0 = Clock::now();
      core::EncryptionRun run;
      {
        ScopedSpan span(t, "core.run_des", unit);
        run = devices[p].run_des(key, plaintext);
      }
      r.unit_ms[devices[p].countermeasure().name()].push_back(
          seconds_since(t0) * 1e3);
      ++r.passes;
      if (t != nullptr) t->count("core.cold_starts", 1);
      r.check(run.cipher == des::encrypt_block(plaintext, key),
              "encrypt_cold unit " + std::to_string(u) +
                  ": ciphertext differs from des::encrypt_block");
      if (round < kDigestRounds) {
        digest.add(run.cipher);
        add_trace_bits(digest, run.trace);
        ++r.digest_units;
      }
    }
  });
  r.digest = digest.hex();

  if (t != nullptr) {
    std::vector<Sample> samples;
    for (std::size_t p = 0; p < devices.size(); ++p) {
      const auto [key, plaintext] = input(p);
      samples.push_back(Sample{&devices[p], {}, key, plaintext, {}, 0});
    }
    replay_samples(samples, /*fork=*/false, t, r);
  }
  return r;
}

// ---- attack_round1 ------------------------------------------------------

/// Times each provider fill; installed only in traced runs.
class TimedProvider : public analysis::HypothesisProvider {
 public:
  TimedProvider(std::shared_ptr<analysis::HypothesisProvider> inner,
                Tracer* tracer, std::uint32_t unit)
      : inner_(std::move(inner)), tracer_(tracer), unit_(unit) {}
  [[nodiscard]] int count() const override { return inner_->count(); }
  void fill(std::uint64_t plaintext, std::vector<int>& out) override {
    ScopedSpan span(tracer_, "bitslice.fill", unit_);
    inner_->fill(plaintext, out);
  }

 private:
  std::shared_ptr<analysis::HypothesisProvider> inner_;
  Tracer* tracer_;
  std::uint32_t unit_;
};

struct AttackKind {
  const char* name;
  const char* add_trace_span;  // span names must be literals
  std::size_t traces;
};

// A scenario passes when the true subkey chunk ranks among the attack's
// kRankLimit best of 64 guesses.  Exact recovery is not a safe check: CPA's
// Hamming-weight model has a ghost guess that some keys' true guess beats
// by under 3% even at 6000 captures, and single-bit DPA is sample-limited.
constexpr int kRankLimit = 4;
// Captures per attack, sized so that the true chunk's lead over the fourth
// best wrong guess, over random keys, sits more than five standard
// deviations above zero (DPA needs 4200 captures for that).
constexpr AttackKind kAttacks[] = {
    {"dpa", "analysis.add_trace.dpa", 4200},
    {"cpa", "analysis.add_trace.cpa", 1500},
    {"mlpa", "analysis.add_trace.mlpa", 1500},
    {"collision", "analysis.add_trace.collision", 1500},
};

struct AttackOutcome {
  int best_guess = -1;
  std::vector<double> scores;  // final per-guess statistic
  analysis::DisclosureCurve curve;
  core::BatchStats stats;
};

/// Streams one scenario's captures into `attack`, sampling the disclosure
/// curve at its checkpoints, as CampaignRunner does.
template <typename Attack, typename Scores>
AttackOutcome stream_attack(Attack& attack, Scores scores,
                            const core::MaskingPipeline& device,
                            const AttackKind& kind, std::uint64_t key,
                            std::uint64_t plaintext_seed, Tracer* t,
                            std::uint32_t unit) {
  AttackOutcome out;
  const std::vector<std::size_t> checkpoints =
      analysis::DisclosureCurve::schedule(kind.traces);
  std::size_t next = 0;
  core::BatchConfig config;
  config.threads = kWorkers;
  config.stop_after_cycles = kAttackStop;
  {
    ScopedSpan capture(t, "core.capture_each", unit);
    if (t != nullptr) {
      // The device has no fork marker, so captures are cold either way.
      config.run_function = [t, unit, parent = capture.id()](
                                const core::MaskingPipeline& d,
                                const core::BatchInput& in) {
        ScopedSpan span(t, "core.run_des", unit, parent);
        return d.run_des(in.key, in.plaintext, kAttackStop);
      };
    }
    core::BatchRunner runner(device, config);
    runner.capture_each(
        kind.traces, core::random_plaintexts(key, plaintext_seed),
        [&](std::size_t i, const core::BatchInput& in,
            core::EncryptionRun& run) {
          ScopedSpan sink(t, "analysis.sink", unit);
          {
            ScopedSpan span(t, kind.add_trace_span, unit);
            attack.add_trace(in.plaintext, run.trace);
          }
          if (next < checkpoints.size() && i + 1 == checkpoints[next]) {
            ScopedSpan span(t, "analysis.solve", unit);
            out.curve.add_checkpoint(i + 1, scores(attack.solve()));
            ++next;
          }
        });
    out.stats = runner.stats();
  }
  ScopedSpan span(t, "analysis.solve", unit);
  const auto result = attack.solve();
  out.best_guess = result.best_guess;
  out.scores = scores(result);
  return out;
}

template <typename Array>
std::vector<double> as_vector(const Array& a) {
  return std::vector<double>(a.begin(), a.end());
}

std::shared_ptr<analysis::HypothesisProvider> with_timing(
    std::shared_ptr<analysis::HypothesisProvider> provider, Tracer* t,
    std::uint32_t unit) {
  if (t == nullptr) return provider;
  return std::make_shared<TimedProvider>(std::move(provider), t, unit);
}

AttackOutcome run_attack(std::size_t which, const core::MaskingPipeline& device,
                         const core::SboxWindow& sbox_window, std::uint64_t key,
                         std::uint64_t plaintext_seed, Tracer* t,
                         std::uint32_t unit) {
  const AttackKind& kind = kAttacks[which];
  switch (which) {
    case 0: {
      analysis::DpaConfig cfg;
      cfg.window_begin = kAttackWindowBegin;
      cfg.window_end = kAttackStop;
      analysis::DpaAttack attack(cfg);
      attack.set_provider(with_timing(
          std::make_shared<bitslice::DpaProvider>(cfg.sbox, cfg.bit), t, unit));
      return stream_attack(
          attack, [](const auto& res) { return as_vector(res.peak_per_guess); },
          device, kind, key, plaintext_seed, t, unit);
    }
    case 1: {
      analysis::CpaConfig cfg;
      cfg.window_begin = kAttackWindowBegin;
      cfg.window_end = kAttackStop;
      analysis::CpaAttack attack(cfg);
      attack.set_provider(with_timing(
          std::make_shared<bitslice::CpaProvider>(cfg.sbox), t, unit));
      return stream_attack(
          attack, [](const auto& res) { return as_vector(res.corr_per_guess); },
          device, kind, key, plaintext_seed, t, unit);
    }
    case 2: {
      analysis::MlpaConfig cfg;
      cfg.window_begin = sbox_window.begin;
      cfg.window_end = sbox_window.end;
      analysis::MlpaAttack attack(cfg);
      std::vector<int> in_masks;
      for (const analysis::LinearApprox& ap : attack.approximations()) {
        in_masks.push_back(ap.in_mask);
      }
      attack.set_provider(
          with_timing(std::make_shared<bitslice::MlpaProvider>(
                          cfg.sbox, std::move(in_masks)),
                      t, unit));
      return stream_attack(
          attack,
          [](const auto& res) { return as_vector(res.score_per_guess); },
          device, kind, key, plaintext_seed, t, unit);
    }
    default: {
      analysis::CollisionConfig cfg;
      cfg.window_begin = sbox_window.begin;
      cfg.window_end = sbox_window.end;
      analysis::CollisionAttack attack(cfg);
      attack.set_provider(with_timing(
          std::make_shared<bitslice::CollisionProvider>(cfg.sbox), t, unit));
      return stream_attack(
          attack,
          [](const auto& res) { return as_vector(res.score_per_guess); },
          device, kind, key, plaintext_seed, t, unit);
    }
  }
}

WorkloadResult attack_round1(const Options& o, Tracer* t) {
  const std::uint64_t seed = workload_seed(o);
  WorkloadResult r;
  struct State {
    core::MaskingPipeline device;
    core::SboxWindow sbox_window;
  };
  State st = repeated_setup(r, t, [&] {
    std::optional<core::MaskingPipeline> device;
    {
      ScopedSpan span(t, "core.build", 0);
      device.emplace(core::MaskingPipeline::des(compiler::Policy::kOriginal));
    }
    const core::SboxWindow w =
        core::des_round1_sbox_window(device->program(), 0);
    r.check(w.valid() && w.end <= kAttackStop,
            "attack_round1: S-box 0 window does not fit the capture");
    const core::EncryptionRun warm =
        device->run_des(draw_key(seed, 0), draw(seed, 1), kAttackStop);
    r.check(warm.trace.size() == kAttackStop,
            "attack_round1 warm-up: truncated capture has the wrong length");
    return State{std::move(*device), w};
  });

  Digest digest;
  timed_rounds(o, 1, r, [&](std::size_t round) {
    for (std::size_t a = 0; a < std::size(kAttacks); ++a) {
      const std::uint64_t u = round * std::size(kAttacks) + a;
      const std::uint64_t key = draw_key(seed, 2 * u);
      const std::uint64_t plaintext_seed = draw(seed, 2 * u + 1);
      const auto unit = static_cast<std::uint32_t>(u + 1);
      ScopedSpan unit_span(t, "unit", unit);
      const auto t0 = Clock::now();
      const AttackOutcome out = run_attack(a, st.device, st.sbox_window, key,
                                           plaintext_seed, t, unit);
      r.unit_ms[kAttacks[a].name].push_back(seconds_since(t0) * 1e3);
      r.passes += kAttacks[a].traces;
      const int truth = analysis::DpaAttack::true_subkey_chunk(key, 0);
      // Ties count against the true guess.
      const auto rank = std::count_if(
          out.scores.begin(), out.scores.end(),
          [&](double s) { return s >= out.scores[truth]; }) - 1;
      r.check(rank < kRankLimit,
              std::string("attack_round1 ") + kAttacks[a].name + " scenario " +
                  std::to_string(u) + ": true chunk " + std::to_string(truth) +
                  " ranks " + std::to_string(rank) + " (best guess " +
                  std::to_string(out.best_guess) + ")");
      if (t != nullptr) {
        t->count("attack.scenarios", 1);
        t->count("core.fork_hits",
                 static_cast<double>(out.stats.snapshot_forks));
        t->count("core.cold_starts",
                 static_cast<double>(out.stats.cold_starts));
      }
      if (round == 0) {
        digest.add(static_cast<std::uint64_t>(out.best_guess));
        for (const double s : out.scores) digest.add(s);
        for (const analysis::DisclosureCheckpoint& c :
             out.curve.checkpoints()) {
          digest.add(static_cast<std::uint64_t>(c.traces));
          for (const double s : c.scores) digest.add(s);
        }
        ++r.digest_units;
      }
    }
  });
  r.digest = digest.hex();

  if (t != nullptr) {
    std::vector<Sample> samples;
    for (std::uint64_t i = 0; i < 4; ++i) {
      // Each is the first capture of one of the first round's scenarios.
      samples.push_back(Sample{&st.device, {}, draw_key(seed, 2 * i),
                               draw(draw(seed, 2 * i + 1), 0), {},
                               kAttackStop});
    }
    replay_samples(samples, /*fork=*/false, t, r);
  }
  return r;
}

// ---- session_cbc ----------------------------------------------------------

struct SessionKind {
  const char* name;
  session::SessionCipher cipher;
  std::size_t blocks;
};

constexpr SessionKind kSessions[] = {
    {"des_cbc", session::SessionCipher::kDesCbc, kDesCbcBlocks},
    {"tdes_cbc", session::SessionCipher::kTdesEdeCbc, kTdesBlocks},
};

WorkloadResult session_cbc(const Options& o, Tracer* t) {
  const std::uint64_t seed = workload_seed(o);
  const session::SessionKeys keys{draw_key(seed, 0), draw_key(seed, 1),
                                  draw_key(seed, 2)};
  const std::uint64_t iv = draw(seed, 3);
  // Message blocks of session u: a stream of their own.
  const auto message = [seed](std::uint64_t u, std::size_t n) {
    const std::uint64_t stream = draw(seed, 16 + u);
    std::vector<std::uint64_t> blocks(n);
    for (std::size_t i = 0; i < n; ++i) blocks[i] = draw(stream, i);
    return blocks;
  };
  WorkloadResult r;
  auto engines = repeated_setup(r, t, [&] {
    std::vector<session::SessionEngine> built;
    for (const SessionKind& kind : kSessions) {
      session::SessionConfig cfg;
      cfg.cipher = kind.cipher;
      cfg.keys = keys;
      cfg.iv = iv;
      cfg.policy = compiler::Policy::kSelective;
      cfg.threads = kWorkers;
      ScopedSpan span(t, "core.build", 0);
      built.emplace_back(cfg);
    }
    for (std::size_t k = 0; k < built.size(); ++k) {
      const std::vector<std::uint64_t> blocks = message(0, 1);
      const std::vector<std::uint64_t> golden =
          session::golden_encrypt(kSessions[k].cipher, keys, iv, blocks);
      r.check(built[k].encrypt(blocks).output == golden,
              "session_cbc warm-up: ciphertext differs from the golden model");
    }
    return built;
  });

  Digest digest;
  timed_rounds(o, 1, r, [&](std::size_t round) {
    for (std::size_t k = 0; k < engines.size(); ++k) {
      const SessionKind& kind = kSessions[k];
      const std::uint64_t u = round * engines.size() + k;
      const std::vector<std::uint64_t> blocks = message(u, kind.blocks);
      const std::vector<std::uint64_t> golden =
          session::golden_encrypt(kind.cipher, keys, iv, blocks);
      const auto unit = static_cast<std::uint32_t>(u + 1);
      ScopedSpan unit_span(t, "unit", unit);
      const auto t0 = Clock::now();
      session::SessionResult res;
      {
        ScopedSpan span(t, "session.encrypt", unit);
        res = engines[k].encrypt(blocks);
      }
      const std::size_t passes = kind.blocks * engines[k].stages();
      r.unit_ms[kind.name].push_back(seconds_since(t0) * 1e3 /
                                     static_cast<double>(passes));
      r.passes += passes;
      r.check(res.output == golden,
              std::string("session_cbc ") + kind.name + " session " +
                  std::to_string(u) + ": ciphertext differs from the golden "
                                      "model");
      if (t != nullptr) {
        t->count("session.cold_cycles", static_cast<double>(res.cold_cycles));
        t->count("session.saved_cycles",
                 static_cast<double>(res.cold_cycles - res.session_cycles));
      }
      if (round == 0) {
        for (std::size_t i = 0; i < res.blocks.size(); ++i) {
          digest.add(res.output[i]);
          digest.add(res.blocks[i].cycles);
          digest.add(res.blocks[i].energy_uj);
        }
        ++r.digest_units;
      }
    }
  });
  r.digest = digest.hex();

  if (t != nullptr) {
    // Cold replays of every stage device, each also forked from a snapshot.
    const std::vector<std::uint64_t> blocks = message(0, 1);
    std::vector<Sample> samples;
    for (std::size_t k = 0; k < engines.size(); ++k) {
      for (std::size_t s = 0; s < engines[k].stages(); ++s) {
        des::DesAsmOptions options;
        options.hoist_key_schedule = true;
        options.cbc_chain = s == 0;
        options.decrypt = s == 1;
        const std::uint64_t stage_key = s == 0 ? keys.k1 : s == 1 ? keys.k2
                                                                  : keys.k3;
        Sample sample{&engines[k].device(s), options, stage_key, blocks[0],
                      std::nullopt, 0};
        if (s == 0) sample.iv = iv;
        samples.push_back(sample);
      }
    }
    replay_samples(samples, /*fork=*/true, t, r);

    // Fork accounting of one DES-CBC stage batch, driven through
    // BatchRunner the way SessionEngine drives it.
    const std::vector<std::uint64_t> batch = message(0, 8);
    const std::vector<std::uint64_t> cipher =
        des::cbc_encrypt(batch, keys.k1, iv);
    core::BatchConfig config;
    config.threads = kWorkers;
    core::BatchRunner runner(engines[0].device(0), config);
    runner.capture_each(
        batch.size(),
        [&](std::size_t i) {
          return core::BatchInput{keys.k1, batch[i],
                                  i == 0 ? iv : cipher[i - 1]};
        },
        [&](std::size_t i, const core::BatchInput&, core::EncryptionRun& run) {
          r.check(run.cipher == cipher[i],
                  "session_cbc replay batch: ciphertext differs");
        });
    t->count("core.fork_hits",
             static_cast<double>(runner.stats().snapshot_forks));
    t->count("core.cold_starts",
             static_cast<double>(runner.stats().cold_starts));
  }
  return r;
}

// ---- campaign_zoo -------------------------------------------------------

std::string zoo_spec(std::uint64_t campaign_seed, std::uint64_t key) {
  std::string policies;
  for (const char* p : kZooPolicies) {
    policies += policies.empty() ? "" : ", ";
    policies += p;
  }
  return "[campaign]\nname = campaign_zoo\nseed = " + hex64(campaign_seed) +
         "\nkey = " + hex64(key) +
         "\n\n[axes]\ncipher = des\npolicy = " + policies +
         "\nanalysis = energy, dpa, cpa, mlpa, collision\ntraces = " +
         std::to_string(kCampaignTraces) + "\n";
}

/// True when every guess has the same score at every checkpoint of a
/// disclosure.csv table: the attack saw no first-order signal at all.
bool flat_curve(const util::CsvTable& table) {
  const std::size_t traces = table.column("traces");
  const std::size_t score = table.column("score");
  for (std::size_t i = 1; i < table.rows.size(); ++i) {
    const auto& prev = table.rows[i - 1];
    const auto& row = table.rows[i];
    if (row[traces] == prev[traces] && row[score] != prev[score]) return false;
  }
  return !table.rows.empty();
}

/// The manifest without its `generator` line, which names the checkout's
/// git revision rather than anything the campaign computed.
std::string manifest_for_digest(const std::string& text) {
  const std::size_t key = text.find("\"generator\"");
  if (key == std::string::npos) return text;
  const std::size_t line_end = text.find('\n', key);
  return text.substr(0, key) +
         (line_end == std::string::npos ? "" : text.substr(line_end));
}

/// Checks one finished campaign directory against the structural facts
/// that hold for any seed.
void check_campaign(const std::string& dir, std::size_t campaign,
                    const campaign::CampaignReport& ran,
                    const report::Model& model, std::size_t scenarios,
                    WorkloadResult& r) {
  const std::string where = "campaign_zoo campaign " + std::to_string(campaign);
  r.check(ran.complete && ran.outcomes.size() == scenarios &&
              fs::exists(dir + "/manifest.json"),
          where + ": incomplete (missing scenario or manifest)");
  r.check(model.scenarios.size() == scenarios,
          where + ": the report does not list every scenario");
  std::map<std::string, double> energy;
  for (const report::ScenarioEntry& e : model.scenarios) {
    const std::string policy = e.scenario.policy.name();
    const bool attack = campaign::analysis_has_disclosure(e.scenario.analysis);
    r.check(e.artifact_present && (!attack || e.disclosure_present),
            where + ": scenario " + e.scenario.id + " lacks an artifact");
    if (e.scenario.analysis == campaign::Analysis::kEnergy) {
      energy[policy] = e.result.mean_uj();
    }
    const bool correlation = e.scenario.analysis == campaign::Analysis::kCpa ||
                             e.scenario.analysis == campaign::Analysis::kMlpa;
    if (correlation && e.disclosure_present &&
        std::find(std::begin(kFlatPolicies), std::end(kFlatPolicies),
                  policy) != std::end(kFlatPolicies)) {
      r.check(flat_curve(e.disclosure),
              where + ": " + e.scenario.id + " sees a first-order signal");
    }
  }
  // Paper Table 1 order, and every countermeasure costs energy.
  r.check(energy["original"] < energy["selective"] &&
              energy["selective"] < energy["naive_loadstore"] &&
              energy["naive_loadstore"] < energy["all_secure"],
          where + ": masking energies are out of the paper's order");
  for (const char* p : kZooPolicies) {
    if (std::string(p) == "original") continue;
    r.check(energy[p] > energy["original"],
            where + ": " + p + " costs no more energy than original");
  }
}

WorkloadResult campaign_zoo(const Options& o, Tracer* t) {
  const std::uint64_t seed = workload_seed(o);
  const auto spec_text = [seed](std::uint64_t campaign) {
    return zoo_spec(draw(seed, 2 * campaign), draw_key(seed, 2 * campaign + 1));
  };
  WorkloadResult r;
  struct State {
    std::size_t scenarios = 0;
    std::vector<core::MaskingPipeline> devices;
  };
  State st = repeated_setup(r, t, [&] {
    State s;
    {
      ScopedSpan span(t, "campaign.parse", 0);
      s.scenarios = campaign::CampaignSpec::parse(spec_text(0)).expand().size();
    }
    for (const char* name : kZooPolicies) {
      ScopedSpan span(t, "core.build", 0);
      s.devices.push_back(
          core::MaskingPipeline::des(hiding::countermeasure_from_name(name)));
    }
    for (const core::MaskingPipeline& d : s.devices) {
      const std::uint64_t key = draw_key(seed, 0);
      const std::uint64_t plaintext = draw(seed, 1);
      r.check(d.run_des(key, plaintext).cipher ==
                  des::encrypt_block(plaintext, key),
              "campaign_zoo warm-up: " + d.countermeasure().name() +
                  " ciphertext differs");
    }
    return s;
  });

  const std::string dir = o.out_dir + "/campaign";
  Digest digest;
  timed_rounds(o, 1, r, [&](std::size_t round) {
    const auto unit = static_cast<std::uint32_t>(round + 1);
    ScopedSpan unit_span(t, "unit", unit);
    fs::remove_all(dir);
    campaign::RunnerOptions options;
    options.out_dir = dir;
    options.jobs = kWorkers;
    options.quiet = true;
    campaign::CampaignReport ran;
    {
      ScopedSpan span(t, "campaign.run", unit);
      const auto t0 = Clock::now();
      campaign::CampaignRunner runner(
          campaign::CampaignSpec::parse(spec_text(round)), options);
      ran = runner.run();
      if (t != nullptr) {
        double scenario_s = 0.0;
        for (const campaign::ScenarioOutcome& out : ran.outcomes) {
          scenario_s += out.result.wall_seconds;
        }
        t->count("campaign.overhead_s", seconds_since(t0) - scenario_s);
      }
    }
    std::optional<report::Model> model;
    {
      ScopedSpan span(t, "report.load", unit);
      model.emplace(report::Model::load(dir));
    }
    std::string html;
    {
      ScopedSpan span(t, "report.render", unit);
      html = report::render(*model);
    }
    report::write_report(dir + "/report.html", html);

    for (const campaign::ScenarioOutcome& out : ran.outcomes) {
      r.unit_ms[out.scenario.id].push_back(out.result.wall_seconds * 1e3);
      r.passes += out.result.encryptions;
    }
    check_campaign(dir, round, ran, *model, st.scenarios, r);
    if (round == 0) {
      digest.add(
          manifest_for_digest(util::read_text_file(dir + "/manifest.json")));
      for (const report::ScenarioEntry& e : model->scenarios) {
        if (!e.disclosure_present) continue;
        digest.add(util::read_text_file(
            dir + "/" + campaign::scenario_disclosure_path(e.scenario.id)));
      }
      r.digest_units = ran.outcomes.size();
    }
  });
  r.digest = digest.hex();

  if (t != nullptr) {
    std::vector<Sample> samples;
    for (std::size_t p = 0; p < st.devices.size(); ++p) {
      samples.push_back(Sample{&st.devices[p], {}, draw_key(seed, 2 * p),
                               draw(seed, 2 * p + 1), {}, 0});
    }
    replay_samples(samples, /*fork=*/false, t, r);
  }
  return r;
}

// ---- Per-layer metrics ------------------------------------------------------

void derive_layers(const Tracer& t, std::map<std::string, double>& out) {
  const auto totals = t.totals();
  const auto get = [&](std::string_view name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const auto mean = [&](std::string_view name, double scale) {
    const Tracer::Totals s = get(name);
    return s.calls ? s.total_s * scale / static_cast<double>(s.calls) : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto c = [&](const char* name) { return t.counter(name); };

  out["des.generate_ms"] = mean("des.generate", 1e3);
  out["assembler.assemble_ms"] = mean("assembler.assemble", 1e3);
  out["compiler.mask_ms"] = mean("compiler.mask", 1e3);
  out["compiler.secured_count"] =
      ratio(c("compiler.secured"), c("compiler.builds"));

  out["core.run_setup_us"] = mean("core.run_setup", 1e6);
  out["core.pipeline_ctor_us"] = mean("core.pipeline_ctor", 1e6);
  out["core.run_des_ms"] = mean("core.run_des", 1e3);
  out["core.snapshot_ms"] = mean("core.snapshot", 1e3);
  out["core.fork_us"] = mean("core.fork", 1e6);
  out["core.fork_hits"] = c("core.fork_hits");
  out["core.cold_starts"] = c("core.cold_starts");
  out["core.fork_share"] = ratio(
      c("core.fork_hits"), c("core.fork_hits") + c("core.cold_starts"));

  out["sim.step_ns"] =
      ratio(get("sim.step_loop").total_s * 1e9, c("sim.steps"));
  out["energy.cycle_ns"] =
      ratio(get("energy.cycle_loop").total_s * 1e9, c("energy.cycles"));
  out["analysis.trace_push_ns"] =
      ratio(get("analysis.push_loop").total_s * 1e9, c("analysis.pushes"));

  const double scenarios = c("attack.scenarios");
  for (const AttackKind& kind : kAttacks) {
    const Tracer::Totals s = get(kind.add_trace_span);
    out[std::string("analysis.add_trace_us.") + kind.name] =
        ratio(s.self_s * 1e6, static_cast<double>(s.calls));
  }
  out["analysis.solve_ms"] = mean("analysis.solve", 1e3);
  out["analysis.solve_calls"] =
      ratio(static_cast<double>(get("analysis.solve").calls), scenarios);
  out["bitslice.fill_us"] = mean("bitslice.fill", 1e6);
  out["bitslice.fill_calls"] =
      ratio(static_cast<double>(get("bitslice.fill").calls), scenarios);
  const double capture_s = get("core.capture_each").total_s;
  out["analysis.sink_share"] = ratio(get("analysis.sink").total_s, capture_s);
  out["core.capture_wait_share"] =
      capture_s > 0.0 ? 1.0 - out["analysis.sink_share"] : 0.0;

  out["session.encrypt_ms"] = mean("session.encrypt", 1e3);
  out["session.prefix_share"] =
      ratio(c("session.saved_cycles"), c("session.cold_cycles"));

  out["campaign.parse_ms"] = mean("campaign.parse", 1e3);
  out["campaign.run_s"] = mean("campaign.run", 1.0);
  out["campaign.overhead_s"] = ratio(
      c("campaign.overhead_s"), static_cast<double>(get("campaign.run").calls));
  out["report.load_ms"] = mean("report.load", 1e3);
  out["report.render_ms"] = mean("report.render", 1e3);

  const double runs = c("replay.runs");
  out["sim.cycles_per_enc"] = ratio(c("sim.cycles"), runs);
  out["sim.cpi"] = ratio(c("sim.cycles"), c("sim.instructions"));
  out["sim.stall_cycles_per_enc"] = ratio(c("sim.stalls"), runs);
  out["sim.flushes_per_enc"] = ratio(c("sim.flushes"), runs);
  out["energy.uj_per_enc"] = ratio(c("energy.uj"), runs);
  out["trace.spans"] = static_cast<double>(t.span_count());
}

}  // namespace

WorkloadResult run_workload(const Options& options, Tracer* tracer,
                            std::map<std::string, double>* layers) {
  fs::create_directories(options.out_dir);
  WorkloadResult result;
  {
    ScopedSpan span(tracer, "workload", 0);
    if (options.workload == "encrypt_cold") {
      result = encrypt_cold(options, tracer);
    } else if (options.workload == "attack_round1") {
      result = attack_round1(options, tracer);
    } else if (options.workload == "session_cbc") {
      result = session_cbc(options, tracer);
    } else if (options.workload == "campaign_zoo") {
      result = campaign_zoo(options, tracer);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
  }
  if (tracer != nullptr && layers != nullptr) derive_layers(*tracer, *layers);
  return result;
}

}  // namespace emask::perf
