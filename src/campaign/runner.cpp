#include "campaign/runner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "aes/aes128.hpp"
#include "aes/asm_generator.hpp"
#include "analysis/collision.hpp"
#include "analysis/cpa.hpp"
#include "analysis/disclosure.hpp"
#include "analysis/dpa.hpp"
#include "analysis/generic_cpa.hpp"
#include "analysis/mlpa.hpp"
#include "analysis/second_order.hpp"
#include "analysis/trace_io.hpp"
#include "analysis/tvla.hpp"
#include "bitslice/providers.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "energy/components.hpp"
#include "session/session.hpp"
#include "sha/asm_generator.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;

// Second-order preprocessing lag horizon (cycles between the two combined
// leakage samples).
constexpr std::size_t kSecondOrderMaxLag = 4;

std::string fmt(double v) { return util::JsonWriter::format_double(v); }

/// Expands a 64-bit input into the AES key / block / SHA-1 message-block
/// shapes via a private SplitMix64 stream — pure functions of the input,
/// as the BatchRunner determinism contract requires.
aes::Key aes_key_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  aes::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
  return key;
}

aes::Block aes_block_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  aes::Block block;
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_below(256));
  return block;
}

std::array<std::uint32_t, 16> sha_block_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  std::array<std::uint32_t, 16> block;
  for (auto& w : block) w = rng.next_u32();
  return block;
}

/// Builds the scenario's device and configures the batch for its cipher.
core::MaskingPipeline build_device(const Scenario& s,
                                   const energy::TechParams& params,
                                   core::BatchConfig& bc) {
  // Energy scenarios measure the whole encryption; attack scenarios stop
  // at the end of the analysis window (an attacker windowing round 1 does
  // not pay for the other fifteen).
  const std::uint64_t stop =
      s.analysis == Analysis::kEnergy ? 0 : s.window_end;
  bc.stop_after_cycles = stop;
  switch (s.cipher) {
    case Cipher::kDes: {
      core::MaskingPipeline device = core::MaskingPipeline::des(s.policy, params);
      // Per-trace hiding randomness (random_precharge stream, shuffle_nop
      // schedule) derives from the scenario seed, so it is as reproducible
      // as the plaintext sequence.
      device.set_hiding_seed(s.seed ^ 0x48D1D6F0ull);
      return device;
    }
    case Cipher::kAes: {
      const std::string source = aes::generate_aes_asm(
          aes_key_from_u64(s.key), aes::Block{});  // block poked per run
      bc.run_function = [stop](const core::MaskingPipeline& device,
                               const core::BatchInput& input) {
        assembler::Program image = device.program();
        aes::poke_plaintext(image, aes_block_from_u64(input.plaintext));
        return device.run({.image = &image, .stop_after_cycles = stop});
      };
      return core::MaskingPipeline::from_source(source, s.policy, params);
    }
    case Cipher::kSha1: {
      const std::string source =
          sha::generate_sha1_asm(sha_block_from_u64(s.fixed_input));
      bc.run_function = [stop](const core::MaskingPipeline& device,
                               const core::BatchInput& input) {
        assembler::Program image = device.program();
        sha::poke_message(image, sha_block_from_u64(input.plaintext));
        return device.run({.image = &image, .stop_after_cycles = stop});
      };
      return core::MaskingPipeline::from_source(source, s.policy, params);
    }
    case Cipher::kDesCbc:
    case Cipher::kTdesCbc:
      break;  // session ciphers never reach build_device
  }
  throw SpecError("unreachable cipher");
}

void write_result_csv(const std::string& dir, const ScenarioResult& r) {
  util::CsvWriter csv(dir + "/result.csv");
  csv.write_header({"field", "value"});
  csv.write_row({"encryptions", std::to_string(r.encryptions)});
  csv.write_row({"total_cycles", std::to_string(r.total_cycles)});
  csv.write_row(
      {"total_instructions", std::to_string(r.total_instructions)});
  csv.write_row({"total_energy_uj", fmt(r.total_energy_uj)});
  csv.write_row({"mean_uj", fmt(r.mean_uj())});
  csv.write_row({"secured_count", std::to_string(r.secured_count)});
  csv.write_row(
      {"program_instructions", std::to_string(r.program_instructions)});
  csv.write_row({"metric", fmt(r.metric)});
  csv.write_row({"best_guess", std::to_string(r.best_guess)});
  csv.write_row({"true_value", std::to_string(r.true_value)});
  csv.write_row({"success", std::string(r.success ? "1" : "0")});
  csv.write_row({"margin", fmt(r.margin)});
  csv.write_row(
      {"cycles_over_threshold", std::to_string(r.cycles_over_threshold)});
  csv.flush();
}

void write_breakdown_csv(const std::string& dir,
                         const energy::Breakdown& breakdown) {
  util::CsvWriter csv(dir + "/breakdown.csv");
  csv.write_header({"component", "energy_uj"});
  for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
    const auto component = static_cast<energy::Component>(c);
    csv.write_row({std::string(energy::component_name(component)),
                   fmt(breakdown.get(component) * 1e6)});
  }
  csv.flush();
}

template <typename Scores>
void write_guesses_csv(const std::string& dir, const Scores& scores,
                       const char* score_name) {
  util::CsvWriter csv(dir + "/guesses.csv");
  csv.write_header({"guess", score_name});
  for (std::size_t g = 0; g < scores.size(); ++g) {
    csv.write_row({std::to_string(g), fmt(scores[g])});
  }
  csv.flush();
}

/// Samples a streaming attack's per-guess scores at the deterministic
/// DisclosureCurve schedule.  The BatchRunner delivers captures to the
/// sink in batch order regardless of thread count, so the mid-stream
/// solves — and the resulting disclosure.csv — are byte-identical across
/// --jobs values.
class DisclosureRecorder {
 public:
  explicit DisclosureRecorder(std::size_t total)
      : checkpoints_(analysis::DisclosureCurve::schedule(total)) {}

  /// Call once per captured trace; `solve` yields the current 64 scores
  /// and only runs at checkpoint trace counts.
  template <typename Solve>
  void sample(std::size_t index, Solve&& solve) {
    if (next_ == checkpoints_.size() || index + 1 != checkpoints_[next_]) {
      return;
    }
    curve_.add_checkpoint(index + 1, solve());
    ++next_;
  }

  void write(const std::string& dir) const {
    if (!curve_.empty()) curve_.write_csv(dir + "/disclosure.csv");
  }

 private:
  std::vector<std::size_t> checkpoints_;
  analysis::DisclosureCurve curve_;
  std::size_t next_ = 0;
};

template <typename Scores>
std::vector<double> as_scores(const Scores& scores) {
  return std::vector<double>(scores.begin(), scores.end());
}

void fill_batch_stats(ScenarioResult& r, const core::BatchStats& stats) {
  r.encryptions += stats.encryptions;
  r.total_cycles += stats.total_cycles;
  r.total_instructions += stats.total_instructions;
  r.total_energy_uj += stats.total_energy_uj;
  r.threads_used = stats.threads_used;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ key attacks

/// Every campaign key attack targets round-1 S-box 0, the attack configs'
/// default; per-S-box windows are derived for it.
constexpr int kTargetSbox = 0;

/// An analysis window in cycles, [begin, end); end = SIZE_MAX runs to the
/// end of the trace.
struct Window {
  std::size_t begin = 0;
  std::size_t end = SIZE_MAX;
};

/// The spec's [campaign] window (window_end = 0 means "to the end").
Window spec_window(const Scenario& s) {
  return {s.window_begin, s.window_end == 0 ? SIZE_MAX : s.window_end};
}

/// Round-1 window of `sbox` in the compiled program.  Shuffled devices
/// desynchronize the cycle axis, so a fixed-schedule window can silently
/// truncate late-shifted traces: derive the widest window — begin from the
/// zero-delay schedule, end from the all-max schedule — and fail loudly if
/// the program lacks the labels rather than falling back to the spec
/// window.  Unshuffled programs without the labels yield an invalid window.
core::SboxWindow round1_window(const Scenario& s,
                               const assembler::Program& program, int sbox) {
  if (s.policy.hiding != hiding::HidingPolicy::kShuffleNop) {
    return core::des_round1_sbox_window(program, sbox);
  }
  const core::SboxWindow w = core::des_round1_sbox_window_bounds(
      program, sbox, hiding::kShuffleNopMaxDelay);
  if (!w.valid()) {
    throw SpecError(s.id +
                    ": cannot derive a shuffle-aware attack window (the "
                    "program lacks the generator's round_loop/sbox_loop "
                    "labels)");
  }
  return w;
}

/// The target S-box's round-1 window, or the spec window when the program
/// has none.
Window sbox_window(const Scenario& s, const assembler::Program& program) {
  const core::SboxWindow w = round1_window(s, program, kTargetSbox);
  return w.valid() ? Window{w.begin, w.end} : spec_window(s);
}

/// A round-1 DES key attack as the capture loop sees it: a stream of
/// (public DES input, trace) pairs in, 64 per-guess scores out.
class KeyAttack {
 public:
  KeyAttack() = default;
  KeyAttack(const KeyAttack&) = delete;
  KeyAttack& operator=(const KeyAttack&) = delete;
  KeyAttack(KeyAttack&&) = delete;
  KeyAttack& operator=(KeyAttack&&) = delete;
  virtual ~KeyAttack() = default;
  virtual void add_trace(std::uint64_t input,
                         const analysis::Trace& trace) = 0;
  /// The current per-guess scores (one solve).
  [[nodiscard]] virtual std::vector<double> scores() const = 0;
  /// Final solve: sets metric, best guess, true subkey chunk, success and
  /// margin, and returns the per-guess scores for guesses.csv.
  virtual std::vector<double> finish(ScenarioResult& r) const = 0;
};

/// KeyAttack over one analysis:: attack class; `kScores` / `kBest` name
/// its result's per-guess score array and best score.
template <typename Attack, auto kScores, auto kBest>
class KeyAttackOf final : public KeyAttack {
 public:
  template <typename Config>
  KeyAttackOf(const Config& cfg, std::uint64_t key)
      : attack(cfg),
        true_value_(analysis::DpaAttack::true_subkey_chunk(key, cfg.sbox)) {}

  void add_trace(std::uint64_t input, const analysis::Trace& trace) override {
    attack.add_trace(input, trace);
  }
  std::vector<double> scores() const override {
    return as_scores(attack.solve().*kScores);
  }
  std::vector<double> finish(ScenarioResult& r) const override {
    const auto result = attack.solve();
    r.metric = result.*kBest;
    r.best_guess = result.best_guess;
    r.true_value = true_value_;
    r.success = r.best_guess == r.true_value;
    r.margin = result.margin();
    return as_scores(result.*kScores);
  }

  Attack attack;

 private:
  int true_value_;
};

template <typename Config>
Config attack_config(Window w) {
  Config cfg;
  cfg.sbox = kTargetSbox;
  cfg.window_begin = w.begin;
  cfg.window_end = w.end;
  return cfg;
}

/// One row per round-1 DES key attack.  Each builds its attack with the
/// bitsliced hypothesis provider installed (the scalar null-provider path
/// stays in analysis:: as the tests' reference oracle).
struct KeyAttackRow {
  Analysis analysis;
  const char* column;  // guesses.csv score column
  /// Single-block window: the target S-box's round-1 window (true) or the
  /// spec window (false).  Session scenarios always use the S-box window.
  bool sbox_window;
  std::unique_ptr<KeyAttack> (*make)(Window window, std::uint64_t key);
};

const KeyAttackRow kKeyAttacks[] = {
    {Analysis::kDpa, "dom_peak_pj", false,
     [](Window w, std::uint64_t key) -> std::unique_ptr<KeyAttack> {
       const auto cfg = attack_config<analysis::DpaConfig>(w);
       auto a = std::make_unique<KeyAttackOf<
           analysis::DpaAttack, &analysis::DpaResult::peak_per_guess,
           &analysis::DpaResult::best_peak>>(cfg, key);
       a->attack.set_provider(
           std::make_shared<bitslice::DpaProvider>(cfg.sbox, cfg.bit));
       return a;
     }},
    {Analysis::kCpa, "abs_rho", false,
     [](Window w, std::uint64_t key) -> std::unique_ptr<KeyAttack> {
       const auto cfg = attack_config<analysis::CpaConfig>(w);
       auto a = std::make_unique<KeyAttackOf<
           analysis::CpaAttack, &analysis::CpaResult::corr_per_guess,
           &analysis::CpaResult::best_corr>>(cfg, key);
       a->attack.set_provider(
           std::make_shared<bitslice::CpaProvider>(cfg.sbox));
       return a;
     }},
    {Analysis::kMlpa, "mlpa_score", true,
     [](Window w, std::uint64_t key) -> std::unique_ptr<KeyAttack> {
       const auto cfg = attack_config<analysis::MlpaConfig>(w);
       auto a = std::make_unique<KeyAttackOf<
           analysis::MlpaAttack, &analysis::MlpaResult::score_per_guess,
           &analysis::MlpaResult::best_score>>(cfg, key);
       std::vector<int> in_masks;
       for (const analysis::LinearApprox& ap : a->attack.approximations()) {
         in_masks.push_back(ap.in_mask);
       }
       a->attack.set_provider(std::make_shared<bitslice::MlpaProvider>(
           cfg.sbox, std::move(in_masks)));
       return a;
     }},
    {Analysis::kCollision, "collision_score", true,
     [](Window w, std::uint64_t key) -> std::unique_ptr<KeyAttack> {
       const auto cfg = attack_config<analysis::CollisionConfig>(w);
       auto a = std::make_unique<KeyAttackOf<
           analysis::CollisionAttack,
           &analysis::CollisionResult::score_per_guess,
           &analysis::CollisionResult::best_score>>(cfg, key);
       a->attack.set_provider(
           std::make_shared<bitslice::CollisionProvider>(cfg.sbox));
       return a;
     }},
};

/// The row for `a`, or nullptr when `a` is not a round-1 DES key attack.
const KeyAttackRow* find_key_attack(Analysis a) {
  for (const KeyAttackRow& row : kKeyAttacks) {
    if (row.analysis == a) return &row;
  }
  return nullptr;
}

/// The one key-attack sequence both scenario shapes share: capture ->
/// disclosure sampling -> final solve -> guesses.csv / disclosure.csv.
/// `capture(sink)` must call sink(index, des_input, trace) once per trace
/// in index order; the two shapes differ only in that input stream.
template <typename Capture>
void run_key_attack(const KeyAttackRow& row, Window window,
                    std::uint64_t key, std::size_t total,
                    const std::string& dir, ScenarioResult& r,
                    Capture&& capture) {
  const std::unique_ptr<KeyAttack> attack = row.make(window, key);
  DisclosureRecorder disclosure(total);
  capture([&](std::size_t index, std::uint64_t input,
              const analysis::Trace& trace) {
    attack->add_trace(input, trace);
    disclosure.sample(index, [&] { return attack->scores(); });
  });
  write_guesses_csv(dir, attack->finish(r), row.column);
  disclosure.write(dir);
}

// -------------------------------------------------------- scenario shapes

/// Session-cipher execution: the scenario runs a multi-block CBC session
/// through session::SessionEngine instead of a single-block device.  The
/// per-block trace is the unit of attack data (the block index plays the
/// role `traces` plays elsewhere), and the effective single-DES input of
/// the chained first pass — plaintext ^ chain, reported by the engine as
/// BlockEvent::des_input — feeds the round-1 hypotheses exactly like an
/// ECB plaintext.  Attack windows come from the compiled stage-0 program
/// (the hoisted key schedule shifts round 1 far past the single-block
/// spec defaults).  Beside result.csv the scenario writes blocks.csv
/// (per-block attribution) and session.csv (amortization accounting).
ScenarioResult run_session_scenario(const CampaignSpec& spec,
                                    const RunnerOptions& options,
                                    const Scenario& s,
                                    const energy::TechParams& params,
                                    const std::string& dir) {
  session::SessionConfig cfg;
  cfg.cipher = s.cipher == Cipher::kDesCbc
                   ? session::SessionCipher::kDesCbc
                   : session::SessionCipher::kTdesEdeCbc;
  cfg.keys = {s.key, s.key2, s.key3};
  cfg.iv = s.fixed_input;
  cfg.policy = s.policy;
  cfg.params = params;
  cfg.threads = options.jobs;
  cfg.noise_sigma_pj = s.noise_sigma_pj;
  cfg.noise_seed = s.seed ^ 0x5EED50FAull;
  cfg.hiding_seed = s.seed ^ 0x48D1D6F0ull;  // matches the single-block path
  session::SessionEngine engine(cfg);

  ScenarioResult r;
  r.secured_count = engine.device(0).mask_result().secured_count;
  r.program_instructions = engine.device(0).program().text.size();

  // Message blocks are pure functions of the scenario seed — the session
  // counterpart of the random-plaintext convention.
  const std::size_t n = s.session_length;
  std::vector<std::uint64_t> blocks(n);
  for (std::size_t i = 0; i < n; ++i) blocks[i] = util::Rng::nth(s.seed, i);
  std::vector<std::uint64_t> des_inputs(n, 0);

  std::unique_ptr<analysis::TraceSetWriter> trace_writer;
  if (spec.save_traces) {
    trace_writer =
        std::make_unique<analysis::TraceSetWriter>(dir + "/traces.emts", n);
  }

  // Stats accumulate over every simulated (block, stage) run; stage-0
  // bookkeeping (des_input, saved traces) is per block.
  session::SessionResult session;
  const auto encrypt = [&](const auto& each) {
    session = engine.encrypt(blocks, [&](const session::BlockEvent& ev,
                                         core::EncryptionRun& run) {
      ++r.encryptions;
      r.total_cycles += run.sim.cycles;
      r.total_instructions += run.sim.instructions;
      r.total_energy_uj += run.total_uj();
      if (ev.stage == 0) {
        des_inputs[ev.block] = ev.des_input;
        if (trace_writer) trace_writer->append(ev.des_input, run.trace);
      }
      each(ev, run);
    });
  };

  if (s.analysis == Analysis::kEnergy) {
    energy::Breakdown breakdown;
    encrypt([&](const session::BlockEvent&, core::EncryptionRun& run) {
      for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
        const auto component = static_cast<energy::Component>(c);
        breakdown.add(component, run.breakdown.get(component));
      }
    });
    r.metric = r.mean_uj();
    r.success = true;
    write_breakdown_csv(dir, breakdown);
  } else {
    const KeyAttackRow* row = find_key_attack(s.analysis);
    if (row == nullptr) {
      // expand() rejects these; keep the message aligned with its table.
      throw SpecError("analysis '" + std::string(analysis_name(s.analysis)) +
                      "' is not defined for session ciphers "
                      "(expected energy|dpa|cpa|mlpa|collision)");
    }
    // Attack capture windows round 1 of the chained first pass; the
    // session simulates only that pass, truncated at the window's end.
    const Window window = sbox_window(s, engine.device(0).program());
    engine.set_stop_after_cycles(window.end == SIZE_MAX ? 0 : window.end);
    run_key_attack(*row, window, s.key, n, dir, r, [&](const auto& sink) {
      encrypt([&](const session::BlockEvent& ev, core::EncryptionRun& run) {
        sink(ev.block, ev.des_input, run.trace);
      });
    });
  }
  r.threads_used = session.threads_used;

  if (trace_writer) {
    if (trace_writer->written() == n) trace_writer->close();
    trace_writer.reset();
  }

  // Per-block attribution.  Deliberately free of fork/cold columns: the
  // rows are byte-identical whether blocks forked from the key-schedule
  // snapshot or ran cold, which the determinism tests diff.
  util::CsvWriter bcsv(dir + "/blocks.csv");
  bcsv.write_header({"block", "plaintext", "chain", "des_input", "output",
                     "cycles", "energy_uj"});
  for (std::size_t i = 0; i < session.blocks.size(); ++i) {
    const session::BlockResult& b = session.blocks[i];
    bcsv.write_row({std::to_string(i), hex64(b.input), hex64(b.chain),
                    hex64(des_inputs[i]), hex64(b.output),
                    std::to_string(b.cycles), fmt(b.energy_uj)});
  }
  bcsv.flush();

  // Key-schedule amortization accounting (pure cycle math).
  util::CsvWriter scsv(dir + "/session.csv");
  scsv.write_header({"field", "value"});
  scsv.write_row(
      {"cipher", std::string(session::session_cipher_name(cfg.cipher))});
  scsv.write_row({"session_length", std::to_string(n)});
  scsv.write_row({"stages", std::to_string(session.stages)});
  scsv.write_row({"prefix_cycles", std::to_string(session.prefix_cycles)});
  scsv.write_row({"block_cycles", std::to_string(session.block_cycles)});
  scsv.write_row({"session_cycles", std::to_string(session.session_cycles)});
  scsv.write_row({"cold_cycles", std::to_string(session.cold_cycles)});
  scsv.write_row({"amortized_speedup", fmt(session.amortized_speedup())});
  scsv.write_row({"total_uj", fmt(session.total_uj)});
  scsv.write_row({"uj_per_block", fmt(session.uj_per_block())});
  scsv.flush();
  return r;
}

/// Single-block execution (des / aes / sha1): one BatchRunner capture per
/// scenario (two for TVLA's fixed and random classes).
ScenarioResult run_block_scenario(const CampaignSpec& spec,
                                  const RunnerOptions& options,
                                  const Scenario& s,
                                  const energy::TechParams& params,
                                  const std::string& dir) {
  core::BatchConfig bc;
  bc.threads = options.jobs;
  bc.noise_sigma_pj = s.noise_sigma_pj;
  bc.noise_seed = s.seed ^ 0x5EED50FAull;
  const core::MaskingPipeline device = build_device(s, params, bc);
  if (s.policy.hiding == hiding::HidingPolicy::kShuffleNop &&
      s.analysis != Analysis::kEnergy && bc.stop_after_cycles != 0) {
    // The shuffled program runs longer than the classic one; the capture
    // must cover the widest schedule or TraceWindow::admit will throw.
    bc.stop_after_cycles = std::max<std::uint64_t>(
        bc.stop_after_cycles, round1_window(s, device.program(), 7).end);
  }
  core::BatchRunner runner(device, bc);

  ScenarioResult r;
  r.secured_count = device.mask_result().secured_count;
  r.program_instructions = device.program().text.size();

  // Input for batch index i: plaintext Rng::nth(scenario seed, i) under the
  // campaign key (for aes/sha1 the u64 is expanded into a block by the run
  // function, so the same generator drives all three ciphers).  Every
  // random-class capture is what traces.emts saves.
  const core::InputGenerator random_inputs =
      core::random_plaintexts(s.key, s.seed);
  const auto capture_random = [&](std::size_t count, const auto& each) {
    std::unique_ptr<analysis::TraceSetWriter> trace_writer;
    if (spec.save_traces) {
      trace_writer = std::make_unique<analysis::TraceSetWriter>(
          dir + "/traces.emts", count);
    }
    runner.capture_each(count, random_inputs,
                        [&](std::size_t index, const core::BatchInput& input,
                            core::EncryptionRun& run) {
                          if (trace_writer) {
                            trace_writer->append(input.plaintext, run.trace);
                          }
                          each(index, input, run);
                        });
    fill_batch_stats(r, runner.stats());
    if (trace_writer && trace_writer->written() == count) {
      trace_writer->close();
    }
  };
  const Window window = spec_window(s);

  if (const KeyAttackRow* row = find_key_attack(s.analysis);
      row != nullptr && s.cipher == Cipher::kDes) {
    run_key_attack(
        *row, row->sbox_window ? sbox_window(s, device.program()) : window,
        s.key, s.traces, dir, r, [&](const auto& sink) {
          capture_random(s.traces, [&](std::size_t index,
                                       const core::BatchInput& input,
                                       core::EncryptionRun& run) {
            sink(index, input.plaintext, run.trace);
          });
        });
    return r;
  }

  switch (s.analysis) {
    case Analysis::kEnergy: {
      capture_random(s.traces, [](std::size_t, const core::BatchInput&,
                                  core::EncryptionRun&) {});
      r.metric = r.mean_uj();
      r.success = true;
      write_breakdown_csv(dir, runner.stats().breakdown);
      break;
    }
    case Analysis::kCpa: {
      // AES: classic first-round CPA on the Hamming weight of
      // sbox(pt[0] ^ guess), 256 guesses.
      analysis::GenericCpa cpa(256, window.begin, window.end);
      capture_random(s.traces, [&](std::size_t, const core::BatchInput& input,
                                   core::EncryptionRun& run) {
        if (window.end != SIZE_MAX && run.trace.size() < window.end) {
          // The device halted inside the window (AES finishes in ~12k
          // cycles, short of the 13000-cycle default).
          throw SpecError(
              s.id + ": window_end = " + std::to_string(s.window_end) +
              " lies past the end of the run (" +
              std::to_string(run.trace.size()) +
              " traced cycles); set [campaign] window_end <= " +
              std::to_string(run.trace.size()));
        }
        const aes::Block pt = aes_block_from_u64(input.plaintext);
        std::vector<int> hypotheses(256);
        for (int g = 0; g < 256; ++g) {
          hypotheses[static_cast<std::size_t>(g)] =
              std::popcount(static_cast<unsigned>(
                  aes::sbox(static_cast<std::uint8_t>(pt[0] ^ g))));
        }
        cpa.add_trace(hypotheses, run.trace);
      });
      const analysis::GenericCpaResult result = cpa.solve();
      r.metric = result.best_corr;
      r.best_guess = result.best_guess;
      r.true_value = aes_key_from_u64(s.key)[0];
      r.success = r.best_guess == r.true_value;
      r.margin = result.margin();
      write_guesses_csv(dir, result.corr_per_guess, "abs_rho");
      break;
    }
    case Analysis::kTvla: {
      // Fixed-vs-random Welch t: each class gets traces/2 encryptions,
      // both with per-index measurement noise (distinct noise seeds, so
      // the fixed class is not one trace copied N times under noise).
      const std::size_t per_class = s.traces / 2;
      analysis::TvlaAssessment tvla(window.begin, window.end);
      core::BatchConfig fixed_bc = bc;
      fixed_bc.noise_seed = bc.noise_seed ^ 0xF1DEF1DEull;
      core::BatchRunner fixed_runner(device, fixed_bc);
      fixed_runner.capture_each(
          per_class,
          [&s](std::size_t) -> core::BatchInput {
            return {s.key, s.fixed_input};
          },
          [&](std::size_t, const core::BatchInput&,
              core::EncryptionRun& run) { tvla.add_fixed(run.trace); });
      fill_batch_stats(r, fixed_runner.stats());
      capture_random(per_class, [&](std::size_t, const core::BatchInput&,
                                    core::EncryptionRun& run) {
        tvla.add_random(run.trace);
      });
      const analysis::TvlaResult result = tvla.solve();
      r.metric = result.max_abs_t;
      r.cycles_over_threshold = result.cycles_over_threshold;
      r.success = !result.leaks();
      util::CsvWriter csv(dir + "/t_per_cycle.csv");
      csv.write_header({"cycle", "t"});
      for (std::size_t i = 0; i < result.t_per_cycle.size(); ++i) {
        csv.write_row({std::to_string(s.window_begin + i),
                       fmt(result.t_per_cycle[i])});
      }
      csv.flush();
      break;
    }
    case Analysis::kSecondOrder: {
      // Two passes over the same captured set: fit per-cycle means, then
      // DPA over centered-product combined traces.
      analysis::TraceSet set;
      capture_random(s.traces, [&](std::size_t, const core::BatchInput& input,
                                   core::EncryptionRun& run) {
        set.add(input.plaintext, std::move(run.trace));
      });
      const std::size_t end = window.end == SIZE_MAX && !set.traces.empty()
                                  ? set.traces.front().size()
                                  : window.end;
      analysis::SecondOrderPreprocessor pre(window.begin, end,
                                            kSecondOrderMaxLag);
      for (const analysis::Trace& t : set.traces) pre.fit(t);
      analysis::DpaAttack dpa(analysis::DpaConfig{});  // combined layout
      for (std::size_t i = 0; i < set.size(); ++i) {
        dpa.add_trace(set.inputs[i], pre.combine(set.traces[i]));
      }
      const analysis::DpaResult result = dpa.solve();
      r.metric = result.best_peak;
      r.best_guess = result.best_guess;
      r.true_value = analysis::DpaAttack::true_subkey_chunk(s.key, 0);
      r.success = r.best_guess == r.true_value;
      r.margin = result.margin();
      write_guesses_csv(dir, result.peak_per_guess, "dom_peak_pj");
      break;
    }
    default:
      throw SpecError("analysis '" + std::string(analysis_name(s.analysis)) +
                      "' has no engine for cipher '" +
                      std::string(cipher_name(s.cipher)) + "'");
  }
  return r;
}

/// The progress line's verdict: what `success` means for the analysis.
const char* verdict(Analysis a, bool success) {
  switch (a) {
    case Analysis::kEnergy:
      return "";
    case Analysis::kTvla:
      return success ? ", no leak" : ", leaks";
    default:
      return success ? ", key recovered" : ", key not recovered";
  }
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  if (options_.out_dir.empty()) {
    throw SpecError("campaign runner needs an output directory");
  }
}

ScenarioResult CampaignRunner::execute(const Scenario& s,
                                       const std::string& dir) const {
  const auto t0 = std::chrono::steady_clock::now();
  const energy::TechParams params = s.tech_params(spec_.tech_overrides);
  ScenarioResult r =
      is_session_cipher(s.cipher)
          ? run_session_scenario(spec_, options_, s, params, dir)
          : run_block_scenario(spec_, options_, s, params, dir);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  write_result_csv(dir, r);
  return r;
}

CampaignReport CampaignRunner::run() {
  const std::vector<Scenario> matrix = spec_.expand();
  const ShardSpec& shard = options_.shard;
  if (shard.index >= shard.count) {
    throw SpecError("shard: index " + std::to_string(shard.index) +
                    " out of range for N=" + std::to_string(shard.count));
  }
  std::vector<Scenario> scenarios;
  for (const Scenario& s : matrix) {
    if (shard.owns(s.index)) scenarios.push_back(s);
  }
  if (scenarios.empty()) {
    throw SpecError("--shard=" + std::to_string(shard.index) + "/" +
                    std::to_string(shard.count) +
                    " owns no scenarios (matrix has " +
                    std::to_string(matrix.size()) + ")");
  }
  // Checkpoints are valid only under the partition that wrote them.
  const std::string guard_hash = shard.checkpoint_hash(spec_.hash);
  const fs::path out(options_.out_dir);
  fs::create_directories(out / "scenarios");
  fs::create_directories(out / "checkpoints");

  // Spec guard: an output directory belongs to exactly one spec.
  const fs::path spec_copy = out / "spec.ini";
  if (fs::exists(spec_copy)) {
    std::ifstream in(spec_copy);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (fnv1a_hex(buffer.str()) != spec_.hash) {
      throw SpecError(options_.out_dir +
                      " already holds a different campaign (spec hash " +
                      fnv1a_hex(buffer.str()) + " != " + spec_.hash +
                      "); use a fresh --out directory");
    }
  } else {
    std::ofstream copy(spec_copy);
    copy << spec_.text;
    copy.flush();
    if (!copy) {
      throw std::runtime_error("cannot write " + spec_copy.string());
    }
  }

  CampaignReport report;
  report.total_scenarios = scenarios.size();
  for (const Scenario& s : scenarios) {
    const std::size_t position = report.outcomes.size() + 1;
    const std::string checkpoint =
        (out / "checkpoints" / (s.id + ".ini")).string();
    const std::string dir = (out / "scenarios" / s.id).string();
    ScenarioOutcome outcome;
    outcome.scenario = s;
    if (options_.resume &&
        load_checkpoint(checkpoint, s, guard_hash, &outcome.result) &&
        fs::exists(dir + "/result.csv")) {
      outcome.resumed = true;
      ++report.resumed;
      if (!options_.quiet) {
        std::printf("[%zu/%zu] %s: resumed from checkpoint\n", position,
                    scenarios.size(), s.id.c_str());
      }
    } else {
      if (options_.limit != 0 && report.executed >= options_.limit) break;
      fs::create_directories(dir);
      outcome.result = execute(s, dir);
      save_checkpoint(checkpoint, s, outcome.result, guard_hash);
      ++report.executed;
      if (!options_.quiet) {
        std::printf(
            "[%zu/%zu] %s: %llu enc, %.3f uJ/enc, metric %.4f%s (%.2fs, %zu "
            "threads)\n",
            position, scenarios.size(), s.id.c_str(),
            static_cast<unsigned long long>(outcome.result.encryptions),
            outcome.result.mean_uj(), outcome.result.metric,
            verdict(s.analysis, outcome.result.success),
            outcome.result.wall_seconds,
            static_cast<std::size_t>(outcome.result.threads_used));
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }

  report.complete = report.outcomes.size() == scenarios.size();
  if (!report.complete) {
    if (!options_.quiet) {
      std::printf("campaign interrupted: %zu/%zu scenarios done; rerun "
                  "with --resume to continue\n",
                  report.outcomes.size(), scenarios.size());
    }
    return report;
  }

  const std::string suffix =
      shard.sharded() ? "." + shard.label() : std::string();
  write_manifest((out / ("manifest" + suffix + ".json")).string(), spec_,
                 report.outcomes, git_describe(), &shard);
  write_timings((out / ("timings" + suffix + ".json")).string(),
                report.outcomes);
  write_summary_csv((out / ("summary" + suffix + ".csv")).string(),
                    report.outcomes);
  if (!options_.quiet) print_summary(spec_, report, stdout);
  return report;
}

void CampaignRunner::print_matrix(const CampaignSpec& spec,
                                  const std::vector<Scenario>& scenarios,
                                  std::FILE* out) {
  std::fprintf(out, "campaign %s: %zu scenarios (spec hash %s)\n",
               spec.name.c_str(), scenarios.size(), spec.hash.c_str());
  std::fprintf(out, "%-40s %6s %16s %12s %8s\n", "id", "cipher", "policy",
               "analysis", "traces");
  std::uint64_t encryptions = 0;
  for (const Scenario& s : scenarios) {
    std::fprintf(out, "%-40s %6s %16s %12s %8zu\n", s.id.c_str(),
                 std::string(cipher_name(s.cipher)).c_str(),
                 s.policy.name().c_str(),
                 std::string(analysis_name(s.analysis)).c_str(), s.traces);
    encryptions += s.traces;
  }
  std::fprintf(out, "total encryptions: %llu\n",
               static_cast<unsigned long long>(encryptions));
}

void CampaignRunner::print_summary(const CampaignSpec& spec,
                                   const CampaignReport& report,
                                   std::FILE* out) {
  const std::vector<PolicyRollup> rollups =
      rollup_by_policy(spec, report.outcomes);
  if (rollups.empty()) return;
  const double baseline = rollups.front().mean_uj;
  const double* ref_baseline = find_reference(spec, rollups.front().policy);
  std::fprintf(out, "\n%-16s %12s %8s", "policy", "mean uJ/enc", "ratio");
  const bool with_reference = !spec.reference_uj.empty();
  if (with_reference) {
    std::fprintf(out, " %10s %8s %14s", "paper uJ", "ratio", "normalized uJ");
  }
  std::fprintf(out, "\n");
  for (const PolicyRollup& r : rollups) {
    // A missing baseline makes the ratio undefined; print n/a, never a
    // misleading 0.000.
    std::fprintf(out, "%-16s %12.3f", r.policy.name().c_str(), r.mean_uj);
    if (baseline > 0.0) {
      std::fprintf(out, " %8.3f", r.mean_uj / baseline);
    } else {
      std::fprintf(out, " %8s", "n/a");
    }
    const double* ref = find_reference(spec, r.policy);
    if (with_reference && ref_baseline != nullptr && *ref_baseline > 0.0 &&
        baseline > 0.0) {
      const double ratio = r.mean_uj / baseline;
      if (ref != nullptr) {
        std::fprintf(out, " %10.1f %8.3f %14.2f", *ref, *ref / *ref_baseline,
                     ratio * *ref_baseline);
      } else {
        // The paper has no number for this policy (hiding countermeasures
        // postdate it); only the projected energy is meaningful.
        std::fprintf(out, " %10s %8s %14.2f", "n/a", "n/a",
                     ratio * *ref_baseline);
      }
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace emask::campaign
