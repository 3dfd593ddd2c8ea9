// Campaign execution: the scenario matrix, run through core::BatchRunner
// with per-scenario checkpointing.
//
// Output directory layout:
//
//   <out>/spec.ini                     verbatim copy of the spec (guard:
//                                      re-running with a different spec in
//                                      the same directory is an error)
//   <out>/scenarios/<id>/result.csv    deterministic per-scenario summary
//   <out>/scenarios/<id>/*.csv         analysis artifact (breakdown,
//                                      guesses, t_per_cycle)
//   <out>/scenarios/<id>/traces.emts   optional raw trace set
//   <out>/checkpoints/<id>.ini         resume record (see manifest.hpp)
//   <out>/manifest.json                deterministic results manifest
//   <out>/timings.json                 wall-time / throughput (excluded
//                                      from the byte-identity guarantee)
//   <out>/summary.csv                  one row per scenario
//
// Resume semantics: with `resume`, a scenario whose checkpoint matches the
// current spec hash (and whose result.csv exists) is loaded instead of
// re-simulated; everything it would have written is already on disk from
// the run that completed it.  manifest.json / timings.json / summary.csv
// are only written when every scenario is complete, so an interrupted
// campaign resumed to completion produces a manifest byte-identical to an
// uninterrupted run.
//
// Sharded runs (`--shard=i/N`, see ShardSpec) execute only the scenarios
// the shard owns and emit manifest.<shard>.json / timings.<shard>.json /
// summary.<shard>.csv instead of the whole-matrix files; `emask-campaign
// merge` reassembles N such directories into a manifest.json byte-identical
// to a single-machine run.  Checkpoints are guarded by the shard-folded
// spec hash, so a checkpoint written under a different partition (or
// unsharded) never satisfies a sharded --resume.  Per-scenario artifacts
// keep their normal paths — shards own disjoint scenario sets.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/spec.hpp"

namespace emask::campaign {

struct RunnerOptions {
  std::string out_dir;
  /// Worker threads per scenario batch (BatchConfig::threads); 0 = one
  /// capture thread per core.
  std::size_t jobs = 0;
  /// Reuse checkpoints from a previous (interrupted) run.
  bool resume = false;
  /// Stop after this many *executed* (non-resumed) scenarios; 0 = no
  /// limit.  This is the controlled interruption the resume tests use.
  std::size_t limit = 0;
  /// Suppress per-scenario progress output.
  bool quiet = false;
  /// Partition of the scenario matrix this run executes (default: all).
  ShardSpec shard;
};

struct CampaignReport {
  std::vector<ScenarioOutcome> outcomes;  // completed scenarios, in order
  std::size_t total_scenarios = 0;
  std::size_t executed = 0;  // simulated this run
  std::size_t resumed = 0;   // satisfied from checkpoints
  bool complete = false;     // manifest/summary written
};

class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, RunnerOptions options);

  /// Runs (or resumes) the campaign.  Throws on spec/IO errors; an
  /// interrupted campaign (limit reached) returns complete = false.
  CampaignReport run();

  /// Prints the expanded scenario matrix without running anything
  /// (`--dry-run`).
  static void print_matrix(const CampaignSpec& spec,
                           const std::vector<Scenario>& scenarios,
                           std::FILE* out);

  /// Prints the per-policy roll-up (with the spec's [reference] paper
  /// numbers when present).
  static void print_summary(const CampaignSpec& spec,
                            const CampaignReport& report, std::FILE* out);

 private:
  [[nodiscard]] ScenarioResult execute(const Scenario& scenario,
                                       const std::string& dir) const;

  CampaignSpec spec_;
  RunnerOptions options_;
};

}  // namespace emask::campaign
