#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "analysis/trace_io.hpp"
#include "campaign/manifest.hpp"
#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/masking_pipeline.hpp"
#include "des/des.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;
using util::read_text_file;

constexpr const char* kMinimalSpec =
    "[campaign]\n"
    "name = t\n"
    "[axes]\n"
    "policy = original\n";

// ---------------------------------------------------------------- parsing

TEST(Spec, ParsesMinimalSpecWithDefaults) {
  const CampaignSpec spec = CampaignSpec::parse(kMinimalSpec);
  EXPECT_EQ(spec.name, "t");
  EXPECT_EQ(spec.seed, 0xC0FFEEu);
  EXPECT_EQ(spec.key, 0x133457799BBCDFF1ull);
  EXPECT_EQ(spec.window_begin, 3000u);
  EXPECT_EQ(spec.window_end, 13000u);
  EXPECT_FALSE(spec.save_traces);
  ASSERT_EQ(spec.policies.size(), 1u);
  EXPECT_EQ(spec.hash.size(), 16u);
}

TEST(Spec, MissingCampaignSectionIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[axes]\npolicy = original\n"),
               SpecError);
}

TEST(Spec, MissingNameIsError) {
  EXPECT_THROW(
      (void)CampaignSpec::parse("[campaign]\n[axes]\npolicy = original\n"),
      SpecError);
}

TEST(Spec, UnknownSectionIsError) {
  EXPECT_THROW((void)CampaignSpec::parse(std::string(kMinimalSpec) +
                                         "[mystery]\nx = 1\n"),
               SpecError);
}

TEST(Spec, UnknownKeyIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\nbogus = 1\n"
                                         "[axes]\npolicy = original\n"),
               SpecError);
}

TEST(Spec, MalformedSeedIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "seed = 12junk\n"
                                         "[axes]\npolicy = original\n"),
               SpecError);
}

TEST(Spec, BadAxisValueIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = stealthy\n"),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original\n"
                                         "cipher = rsa\n"),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original\n"
                                         "analysis = psychic\n"),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original\n"
                                         "noise = -1\n"),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original\n"
                                         "traces = 0\n"),
               SpecError);
}

TEST(Spec, EmptyListItemIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original,,selective\n"),
               SpecError);
}

TEST(Spec, DuplicateSectionIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "[axes]\npolicy = original\n"
                                         "[axes]\npolicy = selective\n"),
               SpecError);
}

TEST(Spec, MissingPolicyAxisIsError) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"),
               SpecError);
}

TEST(Spec, UnknownTechFieldIsError) {
  EXPECT_THROW((void)CampaignSpec::parse(std::string(kMinimalSpec) +
                                         "[tech]\nflux_capacitance = 1.21\n"),
               SpecError);
}

TEST(Spec, TechOverrideAppliesToScenarios) {
  const CampaignSpec spec = CampaignSpec::parse(std::string(kMinimalSpec) +
                                                "[tech]\nvdd = 1.8\n");
  const auto scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_DOUBLE_EQ(scenarios[0].tech_params(spec.tech_overrides).vdd, 1.8);
}

TEST(Spec, ReferenceKeysMustBePolicies) {
  EXPECT_THROW((void)CampaignSpec::parse(std::string(kMinimalSpec) +
                                         "[reference]\nstealthy = 46.4\n"),
               SpecError);
}

TEST(Spec, WindowMustBeOrdered) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n"
                                         "window_begin = 9000\n"
                                         "window_end = 100\n"
                                         "[axes]\npolicy = original\n"),
               SpecError);
}

// -------------------------------------------------------------- expansion

TEST(Spec, ExpandsCrossProductInOrder) {
  const CampaignSpec spec = CampaignSpec::parse(
      "[campaign]\nname = t\n"
      "[axes]\n"
      "policy = original, selective\n"
      "analysis = energy\n"
      "noise = 0, 10\n"
      "traces = 3\n");
  const auto scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].id, "0000-des-original-energy-n0-t3-c0");
  EXPECT_EQ(scenarios[1].id, "0001-des-original-energy-n10-t3-c0");
  EXPECT_EQ(scenarios[2].id, "0002-des-selective-energy-n0-t3-c0");
  EXPECT_EQ(scenarios[3].id, "0003-des-selective-energy-n10-t3-c0");
  // Scenario seeds are decorrelated but reproducible.
  EXPECT_NE(scenarios[0].seed, scenarios[1].seed);
  EXPECT_EQ(scenarios[0].seed, spec.expand()[0].seed);
}

TEST(Spec, RejectsAnalysesTheCipherCannotRun) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                         "cipher = sha1\npolicy = original\n"
                                         "analysis = dpa\ntraces = 8\n")
                   .expand(),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                         "cipher = sha1\npolicy = original\n"
                                         "analysis = cpa\ntraces = 8\n")
                   .expand(),
               SpecError);
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                         "cipher = aes\npolicy = original\n"
                                         "analysis = second_order\n"
                                         "traces = 8\n")
                   .expand(),
               SpecError);
}

TEST(Spec, RejectsAttacksWithTooFewTraces) {
  EXPECT_THROW((void)CampaignSpec::parse("[campaign]\nname = t\n[axes]\n"
                                         "policy = original\n"
                                         "analysis = tvla\ntraces = 1\n")
                   .expand(),
               SpecError);
}

TEST(Spec, HashIsStableAndTextSensitive) {
  const CampaignSpec a = CampaignSpec::parse(kMinimalSpec);
  const CampaignSpec b = CampaignSpec::parse(kMinimalSpec);
  const CampaignSpec c =
      CampaignSpec::parse(std::string(kMinimalSpec) + "# tweak\n");
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_NE(a.hash, c.hash);
}

// ------------------------------------------------------------ checkpoints

TEST(Checkpoint, RoundTripsThroughDisk) {
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_ckpt_test";
  fs::create_directories(dir);
  Scenario s;
  s.id = "0000-des-original-energy-n0-t1-c0";
  ScenarioResult r;
  r.encryptions = 3;
  r.total_cycles = 413247;
  r.total_energy_uj = 68.2166408846;
  r.metric = 1.0 / 3.0;  // exercise %.17g round-tripping
  r.best_guess = 6;
  r.true_value = 6;
  r.success = true;
  r.margin = 1.0544;
  const fs::path path = dir / "ckpt.ini";
  save_checkpoint(path.string(), s, r, "deadbeefdeadbeef");
  ScenarioResult loaded;
  ASSERT_TRUE(load_checkpoint(path.string(), s, "deadbeefdeadbeef", &loaded));
  EXPECT_EQ(loaded.encryptions, r.encryptions);
  EXPECT_EQ(loaded.total_cycles, r.total_cycles);
  EXPECT_DOUBLE_EQ(loaded.total_energy_uj, r.total_energy_uj);
  EXPECT_DOUBLE_EQ(loaded.metric, r.metric);
  EXPECT_EQ(loaded.best_guess, r.best_guess);
  EXPECT_TRUE(loaded.success);
  // A stale spec hash must invalidate the checkpoint.
  EXPECT_FALSE(
      load_checkpoint(path.string(), s, "0000000000000000", &loaded));
  fs::remove_all(dir);
}

// ------------------------------------------------------- resume identity

TEST(Runner, InterruptedResumeIsByteIdentical) {
  const std::string spec_text =
      "[campaign]\n"
      "name = resume_test\n"
      "window_end = 4000\n"
      "[axes]\n"
      "policy = original, selective\n"
      "analysis = energy, tvla\n"
      "traces = 4\n"
      "[reference]\n"
      "original = 46.4\n"
      "selective = 52.6\n";
  const CampaignSpec spec = CampaignSpec::parse(spec_text);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_resume_test";
  fs::remove_all(base);
  const fs::path dir_a = base / "uninterrupted";
  const fs::path dir_b = base / "interrupted";

  RunnerOptions options_a;
  options_a.out_dir = dir_a.string();
  options_a.jobs = 2;
  options_a.quiet = true;
  const CampaignReport full = CampaignRunner(spec, options_a).run();
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.executed, 4u);

  // Interrupt after 2 scenarios, then resume with a different thread count.
  RunnerOptions options_b = options_a;
  options_b.out_dir = dir_b.string();
  options_b.limit = 2;
  const CampaignReport partial = CampaignRunner(spec, options_b).run();
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed, 2u);
  EXPECT_FALSE(fs::exists(dir_b / "manifest.json"));

  RunnerOptions options_c = options_b;
  options_c.limit = 0;
  options_c.resume = true;
  options_c.jobs = 1;
  const CampaignReport resumed = CampaignRunner(spec, options_c).run();
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.executed, 2u);

  EXPECT_EQ(read_text_file(dir_a / "manifest.json"),
            read_text_file(dir_b / "manifest.json"));
  EXPECT_EQ(read_text_file(dir_a / "summary.csv"),
            read_text_file(dir_b / "summary.csv"));
  for (const auto& entry : fs::directory_iterator(dir_a / "scenarios")) {
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const fs::path other =
          dir_b / "scenarios" / entry.path().filename() / file.path().filename();
      EXPECT_EQ(read_text_file(file.path()), read_text_file(other))
          << "mismatch at " << other;
    }
  }
  fs::remove_all(base);
}

// ---------------------------------------------------------------- sharding

TEST(Shard, ParsesAndValidates) {
  const ShardSpec s = ShardSpec::parse("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_TRUE(s.sharded());
  EXPECT_EQ(s.label(), "shard-2-of-5");
  EXPECT_FALSE(ShardSpec{}.sharded());
  EXPECT_THROW((void)ShardSpec::parse(""), SpecError);
  EXPECT_THROW((void)ShardSpec::parse("2"), SpecError);
  EXPECT_THROW((void)ShardSpec::parse("a/b"), SpecError);
  EXPECT_THROW((void)ShardSpec::parse("1/0"), SpecError);
  EXPECT_THROW((void)ShardSpec::parse("5/5"), SpecError);
  EXPECT_THROW((void)ShardSpec::parse("-1/4"), SpecError);
}

TEST(Shard, PartitionIsDisjointCompleteAndStable) {
  // Every scenario index lands in exactly one shard, and ownership is a
  // pure function of (index, N) — nothing about execution order or thread
  // count enters the partition.
  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    for (std::size_t index = 0; index < 29; ++index) {
      std::size_t owners = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ShardSpec shard;
        shard.index = i;
        shard.count = n;
        if (shard.owns(index)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "index " << index << " N=" << n;
    }
  }
}

TEST(Shard, CheckpointHashIsPartitionSpecific) {
  const std::string spec_hash = "deadbeefdeadbeef";
  EXPECT_EQ(ShardSpec{}.checkpoint_hash(spec_hash), spec_hash);
  ShardSpec a = ShardSpec::parse("0/2");
  ShardSpec b = ShardSpec::parse("1/2");
  ShardSpec c = ShardSpec::parse("0/3");
  EXPECT_NE(a.checkpoint_hash(spec_hash), spec_hash);
  EXPECT_NE(a.checkpoint_hash(spec_hash), b.checkpoint_hash(spec_hash));
  EXPECT_NE(a.checkpoint_hash(spec_hash), c.checkpoint_hash(spec_hash));
  // Same partition, same guard — resume within a shard still works.
  EXPECT_EQ(a.checkpoint_hash(spec_hash),
            ShardSpec::parse("0/2").checkpoint_hash(spec_hash));
}

TEST(Checkpoint, OtherPartitionsCheckpointIsStale) {
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_shard_ckpt";
  fs::create_directories(dir);
  Scenario s;
  s.id = "0000-des-original-energy-n0-t1-c0";
  ScenarioResult r;
  r.encryptions = 1;
  const std::string spec_hash = "deadbeefdeadbeef";
  const fs::path path = dir / "ckpt.ini";
  // A single-machine checkpoint must not satisfy a sharded resume...
  save_checkpoint(path.string(), s, r, spec_hash);
  ScenarioResult loaded;
  EXPECT_FALSE(load_checkpoint(
      path.string(), s, ShardSpec::parse("0/2").checkpoint_hash(spec_hash),
      &loaded));
  // ...and a shard's checkpoint must not leak into another partition.
  const std::string guard = ShardSpec::parse("0/2").checkpoint_hash(spec_hash);
  save_checkpoint(path.string(), s, r, guard);
  EXPECT_TRUE(load_checkpoint(path.string(), s, guard, &loaded));
  EXPECT_FALSE(load_checkpoint(
      path.string(), s, ShardSpec::parse("1/2").checkpoint_hash(spec_hash),
      &loaded));
  EXPECT_FALSE(load_checkpoint(path.string(), s, spec_hash, &loaded));
  fs::remove_all(dir);
}

constexpr const char* kMatrix4Spec =
    "[campaign]\n"
    "name = shard_test\n"
    "window_end = 4000\n"
    "[axes]\n"
    "policy = original, selective\n"
    "analysis = energy, tvla\n"
    "traces = 4\n";

TEST(Runner, ShardedMergeIsByteIdenticalToUnsharded) {
  const CampaignSpec spec = CampaignSpec::parse(kMatrix4Spec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_shard_merge";
  fs::remove_all(base);

  RunnerOptions full;
  full.out_dir = (base / "full").string();
  full.jobs = 2;
  full.quiet = true;
  EXPECT_TRUE(CampaignRunner(spec, full).run().complete);

  // Shard 0 straight through; shard 1 interrupted after one scenario and
  // resumed — with different thread counts everywhere, since neither the
  // partition nor the manifest may depend on scheduling.
  RunnerOptions s0 = full;
  s0.out_dir = (base / "s0").string();
  s0.jobs = 1;
  s0.shard = ShardSpec::parse("0/2");
  const CampaignReport r0 = CampaignRunner(spec, s0).run();
  EXPECT_TRUE(r0.complete);
  EXPECT_EQ(r0.total_scenarios, 2u);

  RunnerOptions s1 = full;
  s1.out_dir = (base / "s1").string();
  s1.jobs = 2;
  s1.shard = ShardSpec::parse("1/2");
  s1.limit = 1;
  EXPECT_FALSE(CampaignRunner(spec, s1).run().complete);
  EXPECT_FALSE(fs::exists(base / "s1" / "manifest.shard-1-of-2.json"));
  s1.limit = 0;
  s1.resume = true;
  s1.jobs = 1;
  const CampaignReport r1 = CampaignRunner(spec, s1).run();
  EXPECT_TRUE(r1.complete);
  EXPECT_EQ(r1.resumed, 1u);
  EXPECT_EQ(r1.executed, 1u);
  EXPECT_TRUE(fs::exists(base / "s1" / "manifest.shard-1-of-2.json"));

  MergeOptions merge;
  merge.shard_dirs = {(base / "s0").string(), (base / "s1").string()};
  merge.out_dir = (base / "merged").string();
  merge.quiet = true;
  const MergeReport report = merge_shards(merge);
  EXPECT_EQ(report.shard_count, 2u);
  EXPECT_EQ(report.scenarios, 4u);
  EXPECT_TRUE(report.timings_merged);

  EXPECT_EQ(read_text_file(base / "merged" / "manifest.json"),
            read_text_file(base / "full" / "manifest.json"));
  EXPECT_EQ(read_text_file(base / "merged" / "summary.csv"),
            read_text_file(base / "full" / "summary.csv"));
  EXPECT_TRUE(fs::exists(base / "merged" / "timings.json"));
  fs::remove_all(base);
}

TEST(Runner, ShardedResumeIgnoresUnshardedCheckpoints) {
  const CampaignSpec spec = CampaignSpec::parse(kMinimalSpec);
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_shard_guard";
  fs::remove_all(dir);
  RunnerOptions options;
  options.out_dir = dir.string();
  options.quiet = true;
  EXPECT_TRUE(CampaignRunner(spec, options).run().complete);
  // The single-machine checkpoint exists, but a sharded --resume runs under
  // a different partition guard and must re-simulate.
  options.resume = true;
  options.shard = ShardSpec::parse("0/2");
  const CampaignReport report = CampaignRunner(spec, options).run();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.executed, 1u);
  fs::remove_all(dir);
}

TEST(Runner, ShardOwningNoScenariosIsError) {
  const CampaignSpec spec = CampaignSpec::parse(kMinimalSpec);  // 1 scenario
  RunnerOptions options;
  options.out_dir =
      (fs::path(::testing::TempDir()) / "emask_shard_empty").string();
  options.quiet = true;
  options.shard = ShardSpec::parse("1/2");
  EXPECT_THROW((void)CampaignRunner(spec, options).run(), SpecError);
  fs::remove_all(options.out_dir);
}

// ------------------------------------------------------------------ merge
//
// The error paths are exercised on crafted shard directories (spec.ini +
// write_manifest with a ShardSpec) — no simulation needed, and each
// incompatibility is injected surgically.

std::vector<ScenarioOutcome> owned_outcomes(const std::vector<Scenario>& matrix,
                                            const ShardSpec& shard) {
  std::vector<ScenarioOutcome> outcomes;
  for (const Scenario& s : matrix) {
    if (!shard.owns(s.index)) continue;
    ScenarioOutcome o;
    o.scenario = s;
    o.result.encryptions = s.index + 1;
    o.result.total_cycles = (1ull << 60) + s.index;  // above 2^53
    o.result.total_energy_uj = 68.2166408846 + static_cast<double>(s.index);
    o.result.metric = s.index == 1 ? std::nan("") :  // null round-trip
                          static_cast<double>(s.index) / 3.0;
    o.result.margin = -2.5e-7;
    o.result.success = true;
    outcomes.push_back(o);
  }
  return outcomes;
}

void write_shard_dir(const fs::path& dir, const CampaignSpec& spec,
                     const ShardSpec& shard,
                     const std::vector<ScenarioOutcome>& outcomes) {
  fs::create_directories(dir);
  std::ofstream out(dir / "spec.ini", std::ios::binary);
  out << spec.text;
  out.close();
  write_manifest((dir / ("manifest." + shard.label() + ".json")).string(),
                 spec, outcomes, git_describe(), &shard);
}

struct MergeFixture {
  CampaignSpec spec = CampaignSpec::parse(kMatrix4Spec);
  std::vector<Scenario> matrix = spec.expand();
  ShardSpec shard0 = ShardSpec::parse("0/2");
  ShardSpec shard1 = ShardSpec::parse("1/2");
  fs::path base;
  MergeOptions options;

  explicit MergeFixture(const char* name) {
    base = fs::path(::testing::TempDir()) / name;
    fs::remove_all(base);
    options.out_dir = (base / "merged").string();
    options.quiet = true;
  }
  ~MergeFixture() { fs::remove_all(base); }

  void add(const char* dir_name, const ShardSpec& shard,
           const std::vector<ScenarioOutcome>& outcomes) {
    write_shard_dir(base / dir_name, spec, shard, outcomes);
    options.shard_dirs.push_back((base / dir_name).string());
  }
};

TEST(Merge, ReassemblesCraftedShardsByteIdentically) {
  MergeFixture f("emask_merge_ok");
  f.add("s0", f.shard0, owned_outcomes(f.matrix, f.shard0));
  f.add("s1", f.shard1, owned_outcomes(f.matrix, f.shard1));
  const MergeReport report = merge_shards(f.options);
  EXPECT_EQ(report.shard_count, 2u);
  EXPECT_EQ(report.scenarios, 4u);
  EXPECT_FALSE(report.timings_merged);  // crafted dirs carry no timings
  EXPECT_FALSE(fs::exists(f.base / "merged" / "timings.json"));

  // The merged manifest must byte-match what a single write_manifest over
  // the whole matrix emits — including the NaN metric, which survives the
  // JSON round trip as null.
  std::vector<ScenarioOutcome> whole;
  for (const ScenarioOutcome& o : owned_outcomes(f.matrix, f.shard0))
    whole.push_back(o);
  for (const ScenarioOutcome& o : owned_outcomes(f.matrix, f.shard1))
    whole.push_back(o);
  std::sort(whole.begin(), whole.end(),
            [](const ScenarioOutcome& a, const ScenarioOutcome& b) {
              return a.scenario.index < b.scenario.index;
            });
  const fs::path expected = f.base / "expected_manifest.json";
  write_manifest(expected.string(), f.spec, whole, git_describe());
  EXPECT_EQ(read_text_file(f.base / "merged" / "manifest.json"),
            read_text_file(expected));
  EXPECT_NE(read_text_file(expected).find("\"metric\": null"),
            std::string::npos);
}

TEST(Merge, SpecHashMismatchIsError) {
  MergeFixture f("emask_merge_hash");
  f.add("s0", f.shard0, owned_outcomes(f.matrix, f.shard0));
  const CampaignSpec other =
      CampaignSpec::parse(std::string(kMatrix4Spec) + "# tweak\n");
  write_shard_dir(f.base / "s1", other, f.shard1,
                  owned_outcomes(other.expand(), f.shard1));
  f.options.shard_dirs.push_back((f.base / "s1").string());
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, MissingShardIsError) {
  MergeFixture f("emask_merge_missing");
  f.add("s0", f.shard0, owned_outcomes(f.matrix, f.shard0));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, DuplicateShardIsError) {
  MergeFixture f("emask_merge_dup");
  f.add("s0", f.shard0, owned_outcomes(f.matrix, f.shard0));
  f.add("s0_again", f.shard0, owned_outcomes(f.matrix, f.shard0));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, UnshardedDirectoryIsError) {
  MergeFixture f("emask_merge_unsharded");
  // A directory holding only an unsharded run: spec.ini + manifest.json.
  fs::create_directories(f.base / "plain");
  std::ofstream(f.base / "plain" / "spec.ini") << f.spec.text;
  write_manifest((f.base / "plain" / "manifest.json").string(), f.spec,
                 owned_outcomes(f.matrix, ShardSpec{}), git_describe());
  f.options.shard_dirs.push_back((f.base / "plain").string());
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, UnknownScenarioIsError) {
  MergeFixture f("emask_merge_unknown");
  auto outcomes = owned_outcomes(f.matrix, f.shard0);
  outcomes[0].scenario.id = "9999-not-in-this-matrix";
  f.add("s0", f.shard0, outcomes);
  f.add("s1", f.shard1, owned_outcomes(f.matrix, f.shard1));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, ForeignScenarioIsError) {
  MergeFixture f("emask_merge_foreign");
  // Shard 0 claims a scenario that shard 1 owns.
  auto outcomes = owned_outcomes(f.matrix, f.shard0);
  outcomes.push_back(owned_outcomes(f.matrix, f.shard1).front());
  f.add("s0", f.shard0, outcomes);
  f.add("s1", f.shard1, owned_outcomes(f.matrix, f.shard1));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, DuplicateScenarioIsError) {
  MergeFixture f("emask_merge_dupscenario");
  auto outcomes = owned_outcomes(f.matrix, f.shard0);
  outcomes.push_back(outcomes.front());
  f.add("s0", f.shard0, outcomes);
  f.add("s1", f.shard1, owned_outcomes(f.matrix, f.shard1));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Merge, MissingScenarioIsError) {
  MergeFixture f("emask_merge_partial");
  auto outcomes = owned_outcomes(f.matrix, f.shard0);
  outcomes.pop_back();  // shard 0 never completed its last scenario
  f.add("s0", f.shard0, outcomes);
  f.add("s1", f.shard1, owned_outcomes(f.matrix, f.shard1));
  EXPECT_THROW((void)merge_shards(f.options), SpecError);
}

TEST(Runner, AesCpaWindowPastTheRunIsSpecError) {
  // AES halts at ~12k cycles, short of the default window_end = 13000: the
  // run must stop with a SpecError that names the scenario, the window and
  // the fix, not with the correlation engine's bare length error.
  const CampaignSpec spec = CampaignSpec::parse(
      "[campaign]\nname = aes_window\n[axes]\ncipher = aes\n"
      "policy = original\nanalysis = cpa\ntraces = 2\n");
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_aes_window";
  fs::remove_all(dir);
  RunnerOptions options;
  options.out_dir = dir.string();
  options.jobs = 1;
  options.quiet = true;
  try {
    (void)CampaignRunner(spec, options).run();
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0000-aes-original-cpa-n0-t2-c0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("window_end = 13000"), std::string::npos) << what;
    EXPECT_NE(what.find("(12153 traced cycles)"), std::string::npos) << what;
    EXPECT_NE(what.find("set [campaign] window_end <= 12153"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(fs::exists(dir / "manifest.json"));
  fs::remove_all(dir);
}

TEST(Runner, RerunWithDifferentSpecInSameDirIsError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_guard_test";
  fs::remove_all(dir);
  RunnerOptions options;
  options.out_dir = dir.string();
  options.quiet = true;
  const CampaignSpec spec = CampaignSpec::parse(kMinimalSpec);
  EXPECT_TRUE(CampaignRunner(spec, options).run().complete);
  const CampaignSpec other =
      CampaignSpec::parse(std::string(kMinimalSpec) + "# changed\n");
  EXPECT_THROW((void)CampaignRunner(other, options).run(), SpecError);
  fs::remove_all(dir);
}

// ------------------------------------------------------- saved traces

/// What a scenario's traces.emts must hold: every captured input and the
/// trace a direct cold run of it produces.  Block scenarios capture
/// plaintext Rng::nth(seed, i); des_cbc sessions save each block's
/// effective DES input (plaintext ^ chaining value).
analysis::TraceSet expected_saved_traces(const Scenario& s) {
  const energy::TechParams params = s.tech_params({});
  analysis::TraceSet set;
  if (s.cipher == Cipher::kDes) {
    const auto device = core::MaskingPipeline::des(s.policy, params);
    for (std::size_t i = 0; i < s.traces; ++i) {
      const std::uint64_t pt = util::Rng::nth(s.seed, i);
      set.add(pt, device.run_des(s.key, pt).trace);
    }
    return set;
  }
  des::DesAsmOptions options;
  options.hoist_key_schedule = true;
  options.cbc_chain = true;
  const auto device = core::MaskingPipeline::des(s.policy, params, options);
  std::vector<std::uint64_t> blocks(s.session_length);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    blocks[i] = util::Rng::nth(s.seed, i);
  }
  const std::vector<std::uint64_t> cipher =
      des::cbc_encrypt(blocks, s.key, s.fixed_input);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::uint64_t chain = i == 0 ? s.fixed_input : cipher[i - 1];
    set.add(blocks[i] ^ chain,
            device.run_des_cbc(s.key, blocks[i], chain).trace);
  }
  return set;
}

// [campaign] save_traces writes each scenario's captures to traces.emts —
// the traces direct cold runs produce, byte-identical at any --jobs — and
// changes no other scenario artifact.  One DES block scenario and one
// des_cbc session (their axes cannot share one cross product).
TEST(Runner, SaveTracesWritesEveryCaptureAndChangesNothingElse) {
  const fs::path base = fs::path(::testing::TempDir()) / "emask_save_traces";
  for (const std::string axes :
       {"cipher = des\npolicy = original\ntraces = 6\n",
        "cipher = des_cbc\npolicy = original\nsession_length = 5\n"}) {
    fs::remove_all(base);
    const std::string head = "[campaign]\nname = save_traces\n";
    const CampaignSpec saved =
        CampaignSpec::parse(head + "save_traces = true\n[axes]\n" + axes);
    const CampaignSpec unsaved = CampaignSpec::parse(head + "[axes]\n" + axes);
    const Scenario scenario = saved.expand().front();
    const auto run = [&](const CampaignSpec& spec, std::size_t jobs,
                         const std::string& name) {
      RunnerOptions options;
      options.out_dir = (base / name).string();
      options.jobs = jobs;
      options.quiet = true;
      EXPECT_TRUE(CampaignRunner(spec, options).run().complete);
      return base / name / "scenarios" / scenario.id;
    };
    const fs::path one = run(saved, 1, "jobs1");
    const fs::path four = run(saved, 4, "jobs4");
    const fs::path off = run(unsaved, 4, "unsaved");

    const analysis::TraceSet expected = expected_saved_traces(scenario);
    const analysis::TraceSet set =
        analysis::load_trace_set((one / "traces.emts").string());
    ASSERT_EQ(set.size(), expected.size()) << axes;
    EXPECT_EQ(set.inputs, expected.inputs) << axes;
    for (std::size_t i = 0; i < set.size(); ++i) {
      // EMTS stores float32; compare at that precision.
      std::vector<double> rounded;
      for (const double pj : expected.traces[i].samples()) {
        rounded.push_back(static_cast<float>(pj));
      }
      EXPECT_EQ(set.traces[i].samples(), rounded) << axes << " trace " << i;
    }
    EXPECT_EQ(read_text_file(one / "traces.emts"),
              read_text_file(four / "traces.emts"))
        << axes;

    std::size_t others = 0;
    for (const auto& file : fs::directory_iterator(off)) {
      ++others;
      EXPECT_EQ(read_text_file(file.path()),
                read_text_file(one / file.path().filename()))
          << axes << " " << file.path().filename();
    }
    EXPECT_EQ(static_cast<std::size_t>(std::distance(
                  fs::directory_iterator(one), fs::directory_iterator())),
              others + 1)
        << axes;
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace emask::campaign
