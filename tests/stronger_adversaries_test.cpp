// Tests for the stronger-adversary subsystem: MLPA, the collision
// attack, traces-to-disclosure curves, and their campaign artifacts.
// All suites are prefixed `Adversary` so CI can select them with
// `ctest -R '^Adversary'`.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/collision.hpp"
#include "analysis/disclosure.hpp"
#include "analysis/mlpa.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "des/des.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace emask {
namespace {

namespace fs = std::filesystem;
using util::read_text_file;

int parity(unsigned v) { return std::popcount(v) & 1; }

// ------------------------------------------------------------------ MLPA

TEST(AdversaryMlpa, LinearBiasMatchesExhaustiveCount) {
  for (const int sbox : {0, 3, 7}) {
    for (const int in_mask : {0x01, 0x15, 0x2A, 0x3F}) {
      for (const int out_mask : {0x1, 0x6, 0xF}) {
        int agree = 0;
        for (int x = 0; x < 64; ++x) {
          const int in = parity(static_cast<unsigned>(in_mask & x));
          const int out = parity(static_cast<unsigned>(
              out_mask & des::sbox_lookup(
                             sbox, static_cast<std::uint8_t>(x))));
          if (in == out) ++agree;
        }
        const double expected = agree / 64.0 - 0.5;
        EXPECT_DOUBLE_EQ(
            analysis::sbox_linear_bias(sbox, in_mask, out_mask), expected)
            << "sbox " << sbox << " a=" << in_mask << " b=" << out_mask;
      }
    }
  }
}

TEST(AdversaryMlpa, TrivialMasksHaveZeroBias) {
  // A balanced input parity against the constant-zero parity (b = 0), or
  // the constant-zero parity against a balanced S-box output combination
  // (a = 0), agrees exactly half the time.
  EXPECT_DOUBLE_EQ(analysis::sbox_linear_bias(0, 0x15, 0x0), 0.0);
  EXPECT_DOUBLE_EQ(analysis::sbox_linear_bias(0, 0x0, 0x5), 0.0);
}

// GF(2) rank of a set of 6-bit masks.
int mask_rank(const std::vector<analysis::LinearApprox>& approx) {
  std::vector<int> basis;
  for (const analysis::LinearApprox& a : approx) {
    int m = a.in_mask;
    for (const int b : basis) m = std::min(m, m ^ b);
    if (m != 0) basis.push_back(m);
  }
  return static_cast<int>(basis.size());
}

TEST(AdversaryMlpa, SelectedApproximationsSatisfyDeviceConstraints) {
  for (int sbox = 0; sbox < 8; ++sbox) {
    const auto approx = analysis::select_approximations(sbox, 10);
    ASSERT_GE(approx.size(), 6u) << "sbox " << sbox;
    std::set<int> in_masks;
    for (const analysis::LinearApprox& a : approx) {
      EXPECT_EQ(a.sbox, sbox);
      // Single output bit, multi-bit input mask, non-degenerate bias.
      EXPECT_EQ(std::popcount(static_cast<unsigned>(a.out_mask)), 1);
      EXPECT_GE(std::popcount(static_cast<unsigned>(a.in_mask)), 2);
      EXPECT_NE(a.bias, 0.0);
      EXPECT_DOUBLE_EQ(
          a.bias, analysis::sbox_linear_bias(sbox, a.in_mask, a.out_mask));
      // One approximation per in_mask: same-mask selection functions are
      // identical evidence, a second interpretation only contradicts.
      EXPECT_TRUE(in_masks.insert(a.in_mask).second)
          << "duplicate in_mask " << a.in_mask << " for sbox " << sbox;
    }
    // Wrong-guess cancellation needs the in_masks to span GF(2)^6.
    EXPECT_EQ(mask_rank(approx), 6) << "sbox " << sbox;
    // Selection is deterministic.
    const auto again = analysis::select_approximations(sbox, 10);
    ASSERT_EQ(again.size(), approx.size());
    for (std::size_t i = 0; i < approx.size(); ++i) {
      EXPECT_EQ(again[i].in_mask, approx[i].in_mask);
      EXPECT_EQ(again[i].out_mask, approx[i].out_mask);
    }
  }
}

TEST(AdversaryMlpa, SelectionParityIsPublicInputParity) {
  util::Rng rng(0x5EED);
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t pt = rng.next_u64();
    for (const int sbox : {0, 5}) {
      const std::uint8_t e = des::round1_sbox_input(pt, sbox);
      EXPECT_EQ(analysis::MlpaAttack::selection_parity(pt, sbox, 0x2B),
                parity(0x2Bu & e));
    }
  }
}

// Synthetic no-simulator device: an 8-cycle trace whose cycle b carries
// output bit b of S(e ^ k) (cycles 4..7 carry uncorrelated ballast).
analysis::Trace synthetic_sbox_trace(std::uint64_t pt, int sbox, int key,
                                     util::Rng& rng) {
  std::vector<double> samples(8, 0.0);
  const std::uint8_t e = des::round1_sbox_input(pt, sbox);
  const std::uint8_t v = des::sbox_lookup(
      sbox, static_cast<std::uint8_t>(e ^ key));
  for (int b = 0; b < 4; ++b)
    samples[static_cast<std::size_t>(b)] = (v >> b) & 1;
  for (int b = 4; b < 8; ++b)
    samples[static_cast<std::size_t>(b)] =
        static_cast<double>((rng.next_u64() >> 13) & 1);
  return analysis::Trace(std::move(samples));
}

TEST(AdversaryMlpa, RecoversKeyChunkFromSyntheticBitLeakage) {
  for (const int key : {0, 6, 0x3F, 0x2A}) {
    analysis::MlpaConfig cfg;
    cfg.sbox = 2;
    analysis::MlpaAttack mlpa(cfg);
    util::Rng rng(0xACE + static_cast<std::uint64_t>(key));
    for (int i = 0; i < 512; ++i) {
      const std::uint64_t pt = rng.next_u64();
      mlpa.add_trace(pt, synthetic_sbox_trace(pt, cfg.sbox, key, rng));
    }
    const analysis::MlpaResult r = mlpa.solve();
    EXPECT_EQ(r.best_guess, key);
    EXPECT_GT(r.margin(), 1.0);
  }
}

// ------------------------------------------------------------- collision

TEST(AdversaryCollision, RecoversKeyChunkFromSyntheticLeakage) {
  // The collision statistic never sees a power model, so it must recover
  // the chunk from *any* injective leakage of the S-box output — use the
  // same per-bit synthetic traces as the MLPA test.
  for (const int key : {0, 11, 0x31}) {
    analysis::CollisionConfig cfg;
    cfg.sbox = 0;
    analysis::CollisionAttack collision(cfg);
    util::Rng rng(0xBEEF + static_cast<std::uint64_t>(key));
    for (int i = 0; i < 2048; ++i) {
      const std::uint64_t pt = rng.next_u64();
      collision.add_trace(pt, synthetic_sbox_trace(pt, cfg.sbox, key, rng));
    }
    const analysis::CollisionResult r = collision.solve();
    EXPECT_EQ(r.classes_seen, 64u);
    EXPECT_EQ(r.best_guess, key);
  }
}

TEST(AdversaryCollision, LeveledClassMeansScoreNothing) {
  // A masked device levels the per-class means: with class-independent
  // traces no guess may stand out and the margin must collapse.
  analysis::CollisionConfig cfg;
  analysis::CollisionAttack collision(cfg);
  util::Rng rng(0xD00D);
  for (int i = 0; i < 2048; ++i) {
    const std::uint64_t pt = rng.next_u64();
    std::vector<double> samples(8);
    for (double& v : samples)
      v = static_cast<double>((rng.next_u64() >> 7) & 0xFF);
    collision.add_trace(pt, analysis::Trace(std::move(samples)));
  }
  const analysis::CollisionResult r = collision.solve();
  EXPECT_LT(r.best_score, 0.2);
}

// ------------------------------------------------------------ disclosure

TEST(AdversaryDisclosure, ScheduleIsPureAscendingAndEndsAtTotal) {
  const auto a = analysis::DisclosureCurve::schedule(600);
  const auto b = analysis::DisclosureCurve::schedule(600);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.back(), 600u);
  EXPECT_GE(a.front(), 2u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  // Degenerate totals still produce a usable schedule.
  EXPECT_EQ(analysis::DisclosureCurve::schedule(2),
            std::vector<std::size_t>{2});
  const auto tiny = analysis::DisclosureCurve::schedule(5);
  EXPECT_EQ(tiny.back(), 5u);
}

TEST(AdversaryDisclosure, RanksBreakScoreTiesByGuessIndex) {
  analysis::DisclosureCurve curve(4);
  curve.add_checkpoint(10, {1.0, 2.0, 2.0, 0.5});
  ASSERT_EQ(curve.checkpoints().size(), 1u);
  const auto& cp = curve.checkpoints().front();
  EXPECT_EQ(cp.ranks, (std::vector<int>{2, 0, 1, 3}));
}

TEST(AdversaryDisclosure, TracesToDisclosureResetsWhenOvertaken) {
  analysis::DisclosureCurve curve(2);
  curve.add_checkpoint(10, {2.0, 1.0});  // guess 0 leads early...
  curve.add_checkpoint(20, {1.0, 2.0});  // ...is overtaken...
  curve.add_checkpoint(30, {2.0, 1.0});  // ...and leads to the end.
  curve.add_checkpoint(40, {2.0, 1.0});
  EXPECT_EQ(curve.traces_to_disclosure(0), 30u);  // not 10
  EXPECT_EQ(curve.traces_to_disclosure(1), 0u);   // never disclosed
  EXPECT_EQ(curve.checkpoints().back().ranks, (std::vector<int>{0, 1}));
}

TEST(AdversaryDisclosure, EmptyCurveHasNoVerdict) {
  const analysis::DisclosureCurve curve;
  EXPECT_TRUE(curve.empty());
  EXPECT_EQ(curve.traces_to_disclosure(0), 0u);
}

// -------------------------------------------------------- campaign wiring

TEST(AdversarySpec, UnknownAxisErrorsListAcceptedNames) {
  // The error message is generated from the same table that drives
  // parsing, so every accepted value — including the new attacks — must
  // appear in it.
  try {
    (void)campaign::CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                        "policy = original\n"
                                        "analysis = psychic\n");
    FAIL() << "expected SpecError";
  } catch (const campaign::SpecError& e) {
    const std::string what = e.what();
    for (const char* name :
         {"energy", "dpa", "cpa", "tvla", "second_order", "mlpa",
          "collision"}) {
      EXPECT_NE(what.find(name), std::string::npos)
          << "missing '" << name << "' in: " << what;
    }
  }
}

TEST(AdversarySpec, NewAttacksAreDesOnly) {
  for (const char* analysis : {"mlpa", "collision"}) {
    EXPECT_THROW(
        (void)campaign::CampaignSpec::parse(
            std::string("[campaign]\nname = t\n[axes]\ncipher = aes\n"
                        "policy = original\nanalysis = ") +
            analysis + "\ntraces = 8\n")
            .expand(),
        campaign::SpecError)
        << analysis;
  }
}

TEST(AdversarySpec, ManifestMapsNewAttacksToDisclosureArtifacts) {
  using campaign::Analysis;
  EXPECT_TRUE(campaign::analysis_has_disclosure(Analysis::kMlpa));
  EXPECT_TRUE(campaign::analysis_has_disclosure(Analysis::kCollision));
  EXPECT_TRUE(campaign::analysis_has_disclosure(Analysis::kDpa));
  EXPECT_FALSE(campaign::analysis_has_disclosure(Analysis::kEnergy));
  EXPECT_FALSE(campaign::analysis_has_disclosure(Analysis::kTvla));
  EXPECT_EQ(campaign::scenario_disclosure_path("0000-x"),
            "scenarios/0000-x/disclosure.csv");
}

// A small all-attacks campaign: 3 scenarios, 24 traces each.  Windows are
// the per-S-box ones the runner derives itself; the trace budget is far
// below disclosure, but every byte of the artifact must still be stable.
constexpr const char* kAttackSpec =
    "[campaign]\n"
    "name = adversary_artifacts\n"
    "[axes]\n"
    "policy = original\n"
    "analysis = dpa, mlpa, collision\n"
    "traces = 24\n";

std::vector<fs::path> disclosure_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir / "scenarios")) {
    const fs::path csv = entry.path() / "disclosure.csv";
    if (fs::exists(csv)) files.push_back(csv);
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(AdversaryRunner, DisclosureIsByteIdenticalAcrossThreadCounts) {
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse(kAttackSpec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_adv_jobs";
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

  const auto reference = disclosure_files(dirs[0]);
  ASSERT_EQ(reference.size(), 3u)
      << "every attack scenario must write disclosure.csv";
  for (std::size_t d = 1; d < dirs.size(); ++d) {
    const auto other = disclosure_files(dirs[d]);
    ASSERT_EQ(other.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(read_text_file(reference[i]), read_text_file(other[i]))
          << "mismatch at " << other[i];
    }
  }
  fs::remove_all(base);
}

TEST(AdversaryRunner, DisclosureSurvivesInterruptAndResume) {
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::parse(kAttackSpec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_adv_resume";
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

  const auto reference = disclosure_files(base / "straight");
  const auto resumed = disclosure_files(base / "resumed");
  ASSERT_EQ(reference.size(), 3u);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(read_text_file(reference[i]), read_text_file(resumed[i]))
        << "mismatch at " << resumed[i];
  }
  EXPECT_EQ(read_text_file(base / "straight" / "manifest.json"),
            read_text_file(base / "resumed" / "manifest.json"));
  fs::remove_all(base);
}

}  // namespace
}  // namespace emask
