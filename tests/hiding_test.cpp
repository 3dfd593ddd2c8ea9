// Hiding countermeasures (WDDL, random precharge, NOP shuffling):
// functional equivalence with the unprotected device, the energy behavior
// each policy promises, fork-eligibility rules, shuffle-aware attack
// windows, and campaign-level determinism.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/generic_cpa.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "hiding/policy.hpp"

namespace emask::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;

MaskingPipeline device(const std::string& name) {
  return MaskingPipeline::des(hiding::countermeasure_from_name(name));
}

// Same countermeasure on a program with a hoisted key schedule, i.e. a
// `fork` marker — the snapshot/fork eligibility tests need one.
MaskingPipeline forkable_device(const std::string& name) {
  des::DesAsmOptions opts;
  opts.hoist_key_schedule = true;
  return MaskingPipeline::des(hiding::countermeasure_from_name(name),
                              energy::TechParams::smartcard_025um(), opts);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_identical(const analysis::TraceSet& a,
                      const analysis::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.inputs, b.inputs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.traces[i].samples(), b.traces[i].samples()) << "trace " << i;
  }
}

// ------------------------------------------------------------ naming

TEST(Hiding, CountermeasureNamesRoundTrip) {
  for (const auto& m : hiding::masking_names()) {
    const hiding::Countermeasure bare(m.value);
    EXPECT_EQ(hiding::countermeasure_from_name(bare.name()), bare)
        << bare.name();
    for (const auto& h : hiding::hiding_names()) {
      const hiding::Countermeasure c(m.value, h.value);
      EXPECT_EQ(hiding::countermeasure_from_name(c.name()), c) << c.name();
    }
  }
  EXPECT_THROW((void)hiding::countermeasure_from_name("stealthy"),
               std::invalid_argument);
}

// ------------------------------------------------- functional equivalence

// Hiding reshapes the energy envelope, never the computation: every
// countermeasure produces the unprotected device's ciphertext.
TEST(Hiding, EveryCountermeasureProducesTheOriginalCiphertext) {
  const std::uint64_t expected = device("original").run_des(kKey, kPlain).cipher;
  ASSERT_NE(expected, 0u);
  for (const char* name :
       {"wddl", "random_precharge", "shuffle_nop", "selective+wddl"}) {
    const EncryptionRun run = device(name).run_des(kKey, kPlain);
    EXPECT_EQ(run.cipher, expected) << name;
  }
}

// ------------------------------------------------------------ wddl energy

// Dual-rail precharge logic consumes the same energy every cycle no matter
// what data flows through it: two encryptions of different plaintexts must
// produce bitwise-identical traces (coupling is zero in the base model).
TEST(Hiding, WddlTraceIsPlaintextIndependent) {
  const MaskingPipeline wddl = device("wddl");
  const EncryptionRun a = wddl.run_des(kKey, kPlain);
  const EncryptionRun b = wddl.run_des(kKey, ~kPlain);
  ASSERT_EQ(a.trace.samples().size(), b.trace.samples().size());
  EXPECT_EQ(a.trace.samples(), b.trace.samples());
  EXPECT_NE(a.cipher, b.cipher);
}

// ...whereas the unprotected device visibly leaks the same plaintext pair.
TEST(Hiding, OriginalTraceIsNotPlaintextIndependent) {
  const MaskingPipeline original = device("original");
  const EncryptionRun a = original.run_des(kKey, kPlain);
  const EncryptionRun b = original.run_des(kKey, ~kPlain);
  EXPECT_NE(a.trace.samples(), b.trace.samples());
}

// ------------------------------------------------------- random precharge

// The precharge stream is a pure function of (base seed, plaintext):
// repeating a run reproduces it exactly, reseeding the device changes the
// envelope but never the ciphertext.
TEST(Hiding, RandomPrechargeIsDeterministicPerSeed) {
  MaskingPipeline rp = device("random_precharge");
  const EncryptionRun a = rp.run_des(kKey, kPlain);
  const EncryptionRun b = rp.run_des(kKey, kPlain);
  EXPECT_EQ(a.trace.samples(), b.trace.samples());
  rp.set_hiding_seed(rp.hiding_seed() ^ 0xDEADBEEFull);
  const EncryptionRun c = rp.run_des(kKey, kPlain);
  EXPECT_NE(a.trace.samples(), c.trace.samples());
  EXPECT_EQ(a.cipher, c.cipher);
}

// random_precharge draws its stream from cycle 0, so a shared snapshot
// prefix would pin every forked trace to one random stream.  The device
// must refuse to fork — loudly.
TEST(Hiding, RandomPrechargeRefusesSnapshotFork) {
  const MaskingPipeline rp = forkable_device("random_precharge");
  EXPECT_TRUE(rp.has_fork_point());
  EXPECT_FALSE(rp.fork_eligible());
  EXPECT_THROW((void)rp.snapshot_des(kKey), std::logic_error);
}

// A default batch of such a device runs every trace cold, and matches the
// direct run_des of each input at any thread count.
TEST(Hiding, RandomPrechargeAutoSnapshotMatchesColdAtAnyThreadCount) {
  const MaskingPipeline rp = forkable_device("random_precharge");
  const InputGenerator gen = random_plaintexts(kKey, 0xBA7C4);
  constexpr std::size_t kN = 6;
  constexpr std::uint64_t kStop = 1500;
  analysis::TraceSet reference;
  for (std::size_t i = 0; i < kN; ++i) {
    const BatchInput in = gen(i);
    reference.add(in.plaintext, rp.run_des(in.key, in.plaintext, kStop).trace);
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchConfig bc;
    bc.stop_after_cycles = kStop;
    bc.threads = threads;
    BatchRunner runner(rp, bc);
    expect_identical(reference, runner.capture(kN, gen));
    EXPECT_EQ(runner.stats().snapshot_forks, 0u);
    EXPECT_EQ(runner.stats().cold_starts, kN);
  }
}

// ---------------------------------------------------------- nop shuffling

TEST(Hiding, ShuffleScheduleIsAPureFunctionOfSeedAndPlaintext) {
  const MaskingPipeline a = device("shuffle_nop");
  const MaskingPipeline b = device("shuffle_nop");
  EXPECT_EQ(a.run_hiding_seed(kPlain), b.run_hiding_seed(kPlain));
  EXPECT_NE(a.run_hiding_seed(kPlain), a.run_hiding_seed(kPlain + 1));
  const std::vector<std::uint32_t> schedule =
      MaskingPipeline::shuffle_schedule(a.run_hiding_seed(kPlain));
  ASSERT_EQ(schedule.size(), des::kShuffleSlotCount);
  for (const std::uint32_t d : schedule) {
    EXPECT_LE(d, hiding::kShuffleNopMaxDelay);
  }
  EXPECT_EQ(schedule,
            MaskingPipeline::shuffle_schedule(b.run_hiding_seed(kPlain)));
}

// Different plaintexts draw different schedules, so the same round work
// lands on different cycles — the temporal misalignment the policy sells.
TEST(Hiding, ShuffleMisalignsTracesAcrossPlaintexts) {
  const MaskingPipeline sh = device("shuffle_nop");
  const EncryptionRun a = sh.run_des(kKey, kPlain);
  const EncryptionRun b = sh.run_des(kKey, kPlain + 1);
  EXPECT_EQ(a.cipher, device("original").run_des(kKey, kPlain).cipher);
  EXPECT_NE(a.trace.samples().size(), b.trace.samples().size());
}

// The shuffle-aware window starts where the zero-delay schedule starts and
// ends late enough to cover the all-max-delay schedule.
TEST(Hiding, ShuffleAwareWindowBoundsWidenTheFixedWindow) {
  const MaskingPipeline sh = device("shuffle_nop");
  const SboxWindow fixed = des_round1_sbox_window(sh.program(), 0);
  const SboxWindow bounds = des_round1_sbox_window_bounds(
      sh.program(), 0, hiding::kShuffleNopMaxDelay);
  ASSERT_TRUE(fixed.valid());
  ASSERT_TRUE(bounds.valid());
  EXPECT_EQ(bounds.begin, fixed.begin);
  EXPECT_GT(bounds.end, fixed.end);
  // Programs without nop slots fall back to the fixed window exactly.
  const MaskingPipeline plain = device("original");
  const SboxWindow same = des_round1_sbox_window_bounds(
      plain.program(), 0, hiding::kShuffleNopMaxDelay);
  const SboxWindow zero = des_round1_sbox_window(plain.program(), 0);
  EXPECT_EQ(same.begin, zero.begin);
  EXPECT_EQ(same.end, zero.end);
}

// Regression for the silent-truncation bug class: a trace captured only up
// to the *fixed-schedule* window cannot cover the shuffle-aware bounds, and
// the analysis layer must reject it loudly instead of narrowing the window.
TEST(Hiding, TruncatedShuffledTraceFailsLoudly) {
  const MaskingPipeline sh = device("shuffle_nop");
  const SboxWindow fixed = des_round1_sbox_window(sh.program(), 0);
  const SboxWindow bounds = des_round1_sbox_window_bounds(
      sh.program(), 0, hiding::kShuffleNopMaxDelay);
  ASSERT_TRUE(bounds.valid());
  const EncryptionRun truncated = sh.run_des(kKey, kPlain, fixed.end);
  analysis::TraceWindow window(bounds.begin, bounds.end);
  EXPECT_THROW((void)window.admit(truncated.trace, "HidingTest"),
               std::invalid_argument);
}

// ---------------------------------------------------- batch determinism

TEST(Hiding, BatchCaptureIsThreadCountInvariantForEveryHidingPolicy) {
  for (const char* name : {"wddl", "random_precharge", "shuffle_nop"}) {
    const MaskingPipeline dev = device(name);
    const InputGenerator gen = random_plaintexts(kKey, 0xBA7C4);
    BatchConfig bc;
    bc.stop_after_cycles = 1500;
    bc.threads = 1;
    const analysis::TraceSet one = BatchRunner(dev, bc).capture(6, gen);
    for (const std::size_t threads : {2u, 8u}) {
      BatchConfig many = bc;
      many.threads = threads;
      expect_identical(one, BatchRunner(dev, many).capture(6, gen));
    }
  }
}

// ------------------------------------------------------ campaign identity

// The zoo end-to-end: every hiding policy runs through the campaign layer,
// emits a disclosure curve for its attack scenario, and the whole output
// directory is byte-identical across thread counts and an
// interrupt-then-resume run.
TEST(HidingCampaign, JobsAndResumeAreByteIdentical) {
  const std::string spec_text =
      "[campaign]\n"
      "name = hiding_zoo\n"
      "window_end = 4000\n"
      "[axes]\n"
      "policy = original, wddl, random_precharge, shuffle_nop\n"
      "analysis = energy, cpa\n"
      "traces = 4\n";
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(spec_text);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_hiding_zoo";
  fs::remove_all(base);
  const fs::path dir_a = base / "straight";
  const fs::path dir_b = base / "resumed";

  campaign::RunnerOptions options_a;
  options_a.out_dir = dir_a.string();
  options_a.jobs = 2;
  options_a.quiet = true;
  const campaign::CampaignReport full =
      campaign::CampaignRunner(spec, options_a).run();
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.executed, 8u);

  campaign::RunnerOptions options_b = options_a;
  options_b.out_dir = dir_b.string();
  options_b.jobs = 8;
  options_b.limit = 4;
  const campaign::CampaignReport partial =
      campaign::CampaignRunner(spec, options_b).run();
  EXPECT_FALSE(partial.complete);

  campaign::RunnerOptions options_c = options_b;
  options_c.limit = 0;
  options_c.resume = true;
  options_c.jobs = 1;
  const campaign::CampaignReport resumed =
      campaign::CampaignRunner(spec, options_c).run();
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed, 4u);

  EXPECT_EQ(read_file(dir_a / "manifest.json"),
            read_file(dir_b / "manifest.json"));
  EXPECT_EQ(read_file(dir_a / "summary.csv"),
            read_file(dir_b / "summary.csv"));
  for (const auto& entry : fs::directory_iterator(dir_a / "scenarios")) {
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const fs::path other = dir_b / "scenarios" / entry.path().filename() /
                             file.path().filename();
      EXPECT_EQ(read_file(file.path()), read_file(other))
          << "mismatch at " << other;
    }
  }
  // Every attack scenario — hiding policies included — carries its
  // traces-to-disclosure curve.
  std::size_t disclosure_curves = 0;
  for (const auto& entry : fs::directory_iterator(dir_a / "scenarios")) {
    if (fs::exists(entry.path() / "disclosure.csv")) ++disclosure_curves;
  }
  EXPECT_EQ(disclosure_curves, 4u);
  fs::remove_all(base);
}

// Hiding is a DES-device concept: an AES/SHA campaign axis naming one must
// fail at parse time, not mid-run.
TEST(HidingCampaign, NonDesCipherRejectsHidingPolicies) {
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse("[campaign]\n"
                                    "name = t\n"
                                    "[axes]\n"
                                    "cipher = aes\n"
                                    "policy = wddl\n");
  EXPECT_THROW((void)spec.expand(), campaign::SpecError);
}

}  // namespace
}  // namespace emask::core
