// Tests for the session subsystem: PKCS#7 packing, golden CBC round
// trips, the SessionEngine determinism contract (fork vs cold, any thread
// count), the session campaign axes, and campaign-artifact byte identity.
// All suites are prefixed `Session` so CI's TSan job can select them with
// `ctest -R '^Session'`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "des/des.hpp"
#include "session/session.hpp"
#include "support/capture.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace emask {
namespace {

namespace fs = std::filesystem;
using util::read_text_file;

// ------------------------------------------------- padding / packing

TEST(SessionPadding, PacksBigEndianWithPkcs7Tail) {
  const std::vector<std::uint64_t> blocks =
      session::pack_message(std::string_view("ABCDEFGHIJ"));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], 0x4142434445464748ull);  // "ABCDEFGH"
  // Tail: 'I' 'J' then p = 6 bytes of 0x06 — never a silent zero-pad.
  EXPECT_EQ(blocks[1], 0x494A060606060606ull);
}

TEST(SessionPadding, WholeBlockMessageGainsFullPadBlock) {
  const std::vector<std::uint64_t> blocks =
      session::pack_message(std::string_view("ABCDEFGH"));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1], 0x0808080808080808ull)
      << "never a silent zero-pad: exact multiples gain a full pad block";
  const std::vector<std::uint8_t> bytes = session::unpack_message(blocks);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "ABCDEFGH");
}

TEST(SessionPadding, EmptyMessageIsOnePadBlock) {
  const std::vector<std::uint64_t> blocks =
      session::pack_message(std::vector<std::uint8_t>{});
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], 0x0808080808080808ull);
  EXPECT_TRUE(session::unpack_message(blocks).empty());
}

TEST(SessionPadding, UnpackRejectsMalformedPadding) {
  EXPECT_THROW((void)session::unpack_message({}), session::SessionError);
  // Pad value 0 and > 8 are both outside PKCS#7's 1..8 range.
  EXPECT_THROW((void)session::unpack_message({0x4142434445464700ull}),
               session::SessionError);
  EXPECT_THROW((void)session::unpack_message({0x4142434445464709ull}),
               session::SessionError);
  // Trailing bytes must all equal the pad value.
  EXPECT_THROW((void)session::unpack_message({0x4142434445060503ull}),
               session::SessionError);
}

// ------------------------------------------------- golden round trips

TEST(SessionGolden, CbcRoundTripsRandomMessagesBothCiphers) {
  const session::SessionKeys keys{0x0123456789ABCDEFull,
                                  0x23456789ABCDEF01ull,
                                  0x456789ABCDEF0123ull};
  util::Rng rng(0x5E55'0123ull);
  for (const session::SessionCipher cipher :
       {session::SessionCipher::kDesCbc,
        session::SessionCipher::kTdesEdeCbc}) {
    // Message lengths straddle block boundaries: empty, short, exact
    // multiple, and long non-multiples.
    for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                  std::size_t{8}, std::size_t{16},
                                  std::size_t{41}, std::size_t{127}}) {
      std::vector<std::uint8_t> message(len);
      for (std::uint8_t& b : message) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      const std::uint64_t iv = rng.next_u64();
      const std::vector<std::uint64_t> packed =
          session::pack_message(message);
      const std::vector<std::uint64_t> cipher_blocks =
          session::golden_encrypt(cipher, keys, iv, packed);
      const std::vector<std::uint64_t> plain_blocks =
          session::golden_decrypt(cipher, keys, iv, cipher_blocks);
      EXPECT_EQ(plain_blocks, packed);
      EXPECT_EQ(session::unpack_message(plain_blocks), message)
          << "cipher " << session::session_cipher_name(cipher) << " len "
          << len;
    }
  }
}

TEST(SessionGolden, MatchesDesCbcModels) {
  const session::SessionKeys keys{0x133457799BBCDFF1ull,
                                  0x23456789ABCDEF01ull,
                                  0x456789ABCDEF0123ull};
  const std::uint64_t iv = 0xFEDCBA9876543210ull;
  const std::vector<std::uint64_t> blocks = {0x0123456789ABCDEFull,
                                             0x1111111111111111ull,
                                             0xDEADBEEFCAFEF00Dull};
  EXPECT_EQ(session::golden_encrypt(session::SessionCipher::kDesCbc, keys,
                                    iv, blocks),
            des::cbc_encrypt(blocks, keys.k1, iv));
  EXPECT_EQ(session::golden_encrypt(session::SessionCipher::kTdesEdeCbc,
                                    keys, iv, blocks),
            des::cbc_encrypt_ede3(blocks, keys.k1, keys.k2, keys.k3, iv));
}

// ------------------------------------------------- engine contract

session::SessionConfig engine_config(session::SessionCipher cipher) {
  session::SessionConfig cfg;
  cfg.cipher = cipher;
  cfg.keys = {0x133457799BBCDFF1ull, 0x23456789ABCDEF01ull,
              0x456789ABCDEF0123ull};
  cfg.iv = 0xA5A5A5A55A5A5A5Aull;
  cfg.policy = compiler::Policy::kOriginal;
  return cfg;
}

std::vector<std::uint64_t> test_blocks(std::size_t n) {
  std::vector<std::uint64_t> blocks(n);
  for (std::size_t i = 0; i < n; ++i) blocks[i] = util::Rng::nth(0xB10C5, i);
  return blocks;
}

TEST(SessionEngine, EncryptMatchesGoldenAndDecryptRoundTrips) {
  const session::SessionConfig cfg =
      engine_config(session::SessionCipher::kDesCbc);
  const std::vector<std::uint64_t> blocks = test_blocks(3);
  session::SessionEngine engine(cfg);
  const session::SessionResult enc = engine.encrypt(blocks);
  EXPECT_EQ(enc.output,
            session::golden_encrypt(cfg.cipher, cfg.keys, cfg.iv, blocks));
  EXPECT_EQ(enc.blocks.size(), blocks.size());
  EXPECT_EQ(enc.stages, 1u);
  const session::SessionResult dec = engine.decrypt(enc.output);
  EXPECT_EQ(dec.output, blocks);
}

TEST(SessionEngine, TdesEncryptMatchesGolden) {
  const session::SessionConfig cfg =
      engine_config(session::SessionCipher::kTdesEdeCbc);
  const std::vector<std::uint64_t> blocks = test_blocks(2);
  session::SessionEngine engine(cfg);
  const session::SessionResult enc = engine.encrypt(blocks);
  EXPECT_EQ(enc.output,
            session::golden_encrypt(cfg.cipher, cfg.keys, cfg.iv, blocks));
  EXPECT_EQ(enc.stages, 3u);
  EXPECT_EQ(engine.decrypt(enc.output).output, blocks);
}

TEST(SessionEngine, AmortizationAccountingIsConsistent) {
  const std::vector<std::uint64_t> blocks = test_blocks(4);
  session::SessionConfig cfg = engine_config(session::SessionCipher::kDesCbc);
  const session::SessionResult hoisted =
      session::SessionEngine(cfg).encrypt(blocks);
  EXPECT_GT(hoisted.prefix_cycles, 0u);
  EXPECT_EQ(hoisted.cold_cycles,
            hoisted.block_cycles * static_cast<std::uint64_t>(blocks.size()));
  EXPECT_EQ(hoisted.session_cycles,
            hoisted.cold_cycles -
                hoisted.prefix_cycles *
                    static_cast<std::uint64_t>(blocks.size() - 1));
  EXPECT_GT(hoisted.amortized_speedup(), 1.0);

  // random_precharge cannot share its prefix (it draws per-trace
  // randomness from cycle 0): every block runs cold, no prefix is
  // credited, and a session costs exactly N cold blocks.
  cfg.policy = hiding::countermeasure_from_name("random_precharge");
  const session::SessionResult cold =
      session::SessionEngine(cfg).encrypt(blocks);
  EXPECT_EQ(cold.prefix_cycles, 0u);
  EXPECT_EQ(cold.session_cycles, cold.cold_cycles);
  EXPECT_DOUBLE_EQ(cold.amortized_speedup(), 1.0);
}

// Captures every per-(stage, block) trace plus the result rows — the full
// externally visible surface that must be capture-mode independent.
struct CapturedSession {
  session::SessionResult result;
  std::vector<std::vector<double>> samples;
};

CapturedSession capture(session::SessionConfig cfg,
                        const std::vector<std::uint64_t>& blocks) {
  CapturedSession out;
  session::SessionEngine engine(cfg);
  out.result = engine.encrypt(
      blocks, [&](const session::BlockEvent&, core::EncryptionRun& run) {
        out.samples.push_back(run.trace.samples());
      });
  return out;
}

void expect_identical(const CapturedSession& a, const CapturedSession& b,
                      const char* what) {
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.result.output, b.result.output) << what;
  ASSERT_EQ(a.result.blocks.size(), b.result.blocks.size()) << what;
  for (std::size_t i = 0; i < a.result.blocks.size(); ++i) {
    EXPECT_EQ(a.result.blocks[i].cycles, b.result.blocks[i].cycles) << what;
    EXPECT_EQ(a.result.blocks[i].energy_uj, b.result.blocks[i].energy_uj)
        << what << " block " << i;
  }
}

// Every block of a session forks from the key-schedule snapshot, and each
// forked trace, cycle count and energy equals a cold run_des_cbc of the
// same inputs.  (Noisy fork-vs-cold identity is BatchRunnerSnapshot's.)
TEST(SessionEngine, ForkVsColdCaptureIsByteIdentical) {
  const std::vector<std::uint64_t> blocks = test_blocks(4);
  const session::SessionConfig cfg =
      engine_config(session::SessionCipher::kDesCbc);
  session::SessionEngine engine(cfg);
  std::vector<core::BatchInput> inputs;
  std::vector<std::vector<double>> samples;
  const session::SessionResult forked = engine.encrypt(
      blocks, [&](const session::BlockEvent& ev, core::EncryptionRun& run) {
        EXPECT_EQ(ev.block, inputs.size());
        inputs.push_back({cfg.keys.k1, ev.stage_input, ev.chain});
        samples.push_back(run.trace.samples());
      });
  ASSERT_EQ(inputs.size(), blocks.size());
  EXPECT_GT(forked.prefix_cycles, 0u);

  const core::MaskingPipeline& device = engine.device(0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::EncryptionRun cold =
        device.run_des_cbc(inputs[i].key, inputs[i].plaintext, inputs[i].iv);
    EXPECT_EQ(cold.trace.samples(), samples[i]) << "block " << i;
    EXPECT_EQ(cold.sim.cycles, forked.blocks[i].cycles) << "block " << i;
    EXPECT_EQ(cold.total_uj(), forked.blocks[i].energy_uj) << "block " << i;
    EXPECT_EQ(cold.cipher, forked.output[i]) << "block " << i;
  }

  // The engine's capture is a default batch of these inputs: all forked.
  core::BatchRunner runner(device);
  const analysis::TraceSet batch = capture_set(runner, inputs);
  EXPECT_EQ(runner.stats().snapshot_forks, blocks.size());
  EXPECT_EQ(runner.stats().cold_starts, 0u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(batch.traces[i].samples(), samples[i]) << "block " << i;
  }
}

TEST(SessionEngine, ThreadCountsAreByteIdentical) {
  const std::vector<std::uint64_t> blocks = test_blocks(4);
  session::SessionConfig cfg = engine_config(session::SessionCipher::kDesCbc);
  cfg.noise_sigma_pj = 2.0;
  cfg.threads = 1;
  const CapturedSession one = capture(cfg, blocks);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.threads = threads;
    const CapturedSession many = capture(cfg, blocks);
    expect_identical(one, many, "thread count");
  }
}

TEST(SessionEngine, TruncatedRunSimulatesOnlyTheAttackWindow) {
  const std::vector<std::uint64_t> blocks = test_blocks(2);
  session::SessionConfig cfg =
      engine_config(session::SessionCipher::kTdesEdeCbc);
  cfg.stop_after_cycles = 3000;
  session::SessionEngine engine(cfg);
  std::size_t runs = 0;
  const session::SessionResult r = engine.encrypt(
      blocks, [&](const session::BlockEvent& ev, core::EncryptionRun& run) {
        EXPECT_EQ(ev.stage, 0u);
        EXPECT_LE(run.trace.samples().size(), 3000u);
        ++runs;
      });
  EXPECT_EQ(runs, blocks.size()) << "only stage 0 runs when truncated";
  EXPECT_EQ(r.stages, 1u);
}

// ------------------------------------------------- campaign axes

TEST(SessionSpec, UnknownCipherErrorListsSessionNames) {
  try {
    (void)campaign::CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                        "policy = original\n"
                                        "cipher = psychic\n");
    FAIL() << "expected SpecError";
  } catch (const campaign::SpecError& e) {
    const std::string what = e.what();
    for (const char* name : {"des_cbc", "tdes_cbc", "des", "aes"}) {
      EXPECT_NE(what.find(name), std::string::npos)
          << "missing '" << name << "' in: " << what;
    }
  }
}

TEST(SessionSpec, SessionLengthRequiresSessionCipher) {
  try {
    (void)campaign::CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                        "policy = original\ncipher = des\n"
                                        "session_length = 4\n")
        .expand();
    FAIL() << "expected SpecError";
  } catch (const campaign::SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("des_cbc|tdes_cbc"), std::string::npos) << what;
  }
}

TEST(SessionSpec, SessionCipherRejectsNonSessionAnalyses) {
  for (const char* analysis : {"tvla", "second_order"}) {
    try {
      (void)campaign::CampaignSpec::parse(
          std::string("[campaign]\nname = t\n[axes]\n"
                      "policy = original, selective\ncipher = des_cbc\n"
                      "session_length = 4\nanalysis = ") +
          analysis + "\n")
          .expand();
      FAIL() << "expected SpecError for " << analysis;
    } catch (const campaign::SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("energy|dpa|cpa|mlpa|collision"),
                std::string::npos)
          << what;
    }
  }
}

TEST(SessionSpec, SessionTracesMustBeOne) {
  EXPECT_THROW(
      (void)campaign::CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                          "policy = original\n"
                                          "cipher = des_cbc\n"
                                          "session_length = 4\n"
                                          "traces = 8\n")
          .expand(),
      campaign::SpecError)
      << "session_length is the per-block trace axis";
}

TEST(SessionSpec, SessionAttacksNeedAtLeastTwoBlocks) {
  EXPECT_THROW(
      (void)campaign::CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                          "policy = original\n"
                                          "cipher = des_cbc\n"
                                          "analysis = dpa\n")
          .expand(),
      campaign::SpecError);
}

TEST(SessionSpec, ScenarioIdsCarrySessionLengthOnlyForSessions) {
  // Session scenarios insert -s<length> after the trace count; non-session
  // ids keep their historical shape exactly (byte-stable across releases).
  const std::vector<campaign::Scenario> sessions =
      campaign::CampaignSpec::parse(
          "[campaign]\nname = t\n[axes]\npolicy = original\n"
          "cipher = des_cbc\nsession_length = 1, 4\n")
          .expand();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_NE(sessions[0].id.find("-s1-"), std::string::npos)
      << sessions[0].id;
  EXPECT_NE(sessions[1].id.find("-s4-"), std::string::npos)
      << sessions[1].id;

  const std::vector<campaign::Scenario> plain =
      campaign::CampaignSpec::parse(
          "[campaign]\nname = t\n[axes]\npolicy = original\ncipher = des\n")
          .expand();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].id.find("-s"), std::string::npos) << plain[0].id;
  EXPECT_EQ(plain[0].session_length, 1u);
}

TEST(SessionSpec, ManifestMapsSessionArtifacts) {
  EXPECT_EQ(campaign::scenario_blocks_path("0000-x"),
            "scenarios/0000-x/blocks.csv");
  EXPECT_EQ(campaign::scenario_session_path("0000-x"),
            "scenarios/0000-x/session.csv");
}

// ------------------------------------------------- campaign artifacts

// Two energy scenarios (lengths 1 and 4) — small enough for TSan, yet
// exercising the full session scenario path including blocks.csv and
// session.csv emission.
constexpr const char* kSessionSpec =
    "[campaign]\n"
    "name = session_artifacts\n"
    "[axes]\n"
    "policy = original\n"
    "cipher = des_cbc\n"
    "analysis = energy\n"
    "session_length = 1, 4\n";

std::vector<fs::path> scenario_files(const fs::path& dir, const char* name) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir / "scenarios")) {
    const fs::path csv = entry.path() / name;
    if (fs::exists(csv)) files.push_back(csv);
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(SessionCampaign, ArtifactsAreByteIdenticalAcrossJobCounts) {
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse(kSessionSpec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_sess_jobs";
  fs::remove_all(base);

  std::vector<fs::path> dirs;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    campaign::RunnerOptions options;
    options.out_dir = (base / ("j" + std::to_string(jobs))).string();
    options.jobs = jobs;
    options.quiet = true;
    EXPECT_TRUE(campaign::CampaignRunner(spec, options).run().complete);
    dirs.push_back(options.out_dir);
  }

  for (const char* artifact : {"blocks.csv", "session.csv", "result.csv"}) {
    const auto reference = scenario_files(dirs[0], artifact);
    ASSERT_EQ(reference.size(), 2u) << artifact;
    for (std::size_t d = 1; d < dirs.size(); ++d) {
      const auto other = scenario_files(dirs[d], artifact);
      ASSERT_EQ(other.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(read_text_file(reference[i]), read_text_file(other[i]))
            << "mismatch at " << other[i];
      }
    }
  }
  EXPECT_EQ(read_text_file(dirs[0] / "manifest.json"),
            read_text_file(dirs[1] / "manifest.json"));
  EXPECT_EQ(read_text_file(dirs[0] / "manifest.json"),
            read_text_file(dirs[2] / "manifest.json"));
  fs::remove_all(base);
}

TEST(SessionCampaign, ResumeIsByteIdentical) {
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse(kSessionSpec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_sess_resume";
  fs::remove_all(base);

  campaign::RunnerOptions straight;
  straight.out_dir = (base / "straight").string();
  straight.jobs = 2;
  straight.quiet = true;
  EXPECT_TRUE(campaign::CampaignRunner(spec, straight).run().complete);

  campaign::RunnerOptions interrupted = straight;
  interrupted.out_dir = (base / "resumed").string();
  interrupted.limit = 1;
  EXPECT_FALSE(campaign::CampaignRunner(spec, interrupted).run().complete);
  interrupted.limit = 0;
  interrupted.resume = true;
  interrupted.jobs = 1;
  const campaign::CampaignReport report =
      campaign::CampaignRunner(spec, interrupted).run();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.resumed, 1u);

  for (const char* artifact : {"blocks.csv", "session.csv"}) {
    const auto reference = scenario_files(base / "straight", artifact);
    const auto resumed = scenario_files(base / "resumed", artifact);
    ASSERT_EQ(reference.size(), 2u) << artifact;
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(read_text_file(reference[i]), read_text_file(resumed[i]))
          << "mismatch at " << resumed[i];
    }
  }
  EXPECT_EQ(read_text_file(base / "straight" / "manifest.json"),
            read_text_file(base / "resumed" / "manifest.json"));
  fs::remove_all(base);
}

TEST(SessionCampaign, AttackDisclosureIsByteIdenticalAcrossJobs) {
  // One DPA scenario over a 16-block session: the per-block traces feed
  // the attack with des_input = P_i ^ C_{i-1}, and disclosure.csv must be
  // job-count independent like every other artifact.
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(
      "[campaign]\nname = session_attack\n[axes]\n"
      "policy = original\ncipher = des_cbc\nanalysis = dpa\n"
      "session_length = 16\n");
  const fs::path base = fs::path(::testing::TempDir()) / "emask_sess_attack";
  fs::remove_all(base);

  std::vector<fs::path> dirs;
  for (const std::size_t jobs : {1u, 4u}) {
    campaign::RunnerOptions options;
    options.out_dir = (base / ("j" + std::to_string(jobs))).string();
    options.jobs = jobs;
    options.quiet = true;
    EXPECT_TRUE(campaign::CampaignRunner(spec, options).run().complete);
    dirs.push_back(options.out_dir);
  }
  for (const char* artifact : {"disclosure.csv", "blocks.csv"}) {
    const auto reference = scenario_files(dirs[0], artifact);
    ASSERT_EQ(reference.size(), 1u) << artifact;
    const auto other = scenario_files(dirs[1], artifact);
    ASSERT_EQ(other.size(), 1u);
    EXPECT_EQ(read_text_file(reference[0]), read_text_file(other[0]));
  }
  fs::remove_all(base);
}

TEST(SessionCampaign, TimingsReportTheWorkersActuallyUsed) {
  // jobs = 0 means "every core", capped at the session length by the
  // capture batches; jobs = 2 is two workers plus the calling thread.
  // timings.json must report the capture threads, never 0.
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(
      "[campaign]\nname = session_threads\n[axes]\n"
      "policy = original\ncipher = des_cbc\nanalysis = energy\n"
      "session_length = 4\n");
  const fs::path base = fs::path(::testing::TempDir()) / "emask_sess_threads";
  fs::remove_all(base);
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  for (const std::size_t jobs : {0u, 2u}) {
    campaign::RunnerOptions options;
    options.out_dir = (base / ("j" + std::to_string(jobs))).string();
    options.jobs = jobs;
    options.quiet = true;
    EXPECT_TRUE(campaign::CampaignRunner(spec, options).run().complete);
    const util::JsonValue timings =
        util::parse_json(read_text_file(fs::path(options.out_dir) /
                                        "timings.json"));
    const std::size_t expected = jobs == 0 ? std::min<std::size_t>(cores, 4)
                                           : jobs + 1;
    EXPECT_EQ(timings.at("scenarios").array.at(0).at("threads").as_u64(),
              expected)
        << "jobs " << jobs;
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace emask
