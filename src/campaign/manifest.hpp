// Campaign provenance: checkpoints, the results manifest, and timings.
//
// Determinism contract
// --------------------
// `manifest.json` is **byte-identical** between a campaign run start-to-
// finish and the same campaign interrupted after any scenario and resumed
// with --resume (given the same build of the simulator).  Everything in it
// is therefore a pure function of (spec text, code): spec hash, seeds,
// scenario parameters, energy/cycle aggregates, analysis verdicts.
// Wall-clock measurements cannot satisfy that, so per-scenario wall-time
// and throughput live in `timings.json`, which the manifest references and
// which is explicitly outside the byte-identity guarantee.
//
// Checkpoints are one INI file per completed scenario under
// `checkpoints/`.  Each records the deterministic result fields with
// round-trippable "%.17g" doubles plus the spec hash; on --resume a
// checkpoint whose hash (or id) does not match the current spec is treated
// as stale and the scenario re-runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"

namespace emask::util {
struct JsonValue;
}

namespace emask::campaign {

/// Deterministic outcome of one scenario (plus the wall-clock fields that
/// only ever reach timings.json).
struct ScenarioResult {
  std::uint64_t encryptions = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_instructions = 0;
  double total_energy_uj = 0.0;
  std::uint64_t secured_count = 0;
  std::uint64_t program_instructions = 0;

  /// Headline number of the analysis: mean uJ/encryption (energy), |DoM|
  /// peak (dpa/second_order), |rho| peak (cpa), max |t| (tvla).
  double metric = 0.0;
  int best_guess = -1;  // recovered key chunk/byte; -1 for non-attacks
  int true_value = -1;
  /// dpa/cpa/second_order: key recovered.  tvla: no leak.  energy: true.
  bool success = false;
  double margin = 0.0;
  std::uint64_t cycles_over_threshold = 0;  // tvla

  // -- non-deterministic; excluded from manifest.json and checkpt compare --
  double wall_seconds = 0.0;
  std::uint64_t threads_used = 0;

  [[nodiscard]] double mean_uj() const {
    return encryptions ? total_energy_uj / static_cast<double>(encryptions)
                       : 0.0;
  }
};

struct ScenarioOutcome {
  Scenario scenario;
  ScenarioResult result;
  bool resumed = false;  // satisfied from a checkpoint, not re-simulated
};

/// Writes the checkpoint INI for a completed scenario (atomically enough
/// for our purposes: temp file + rename).
void save_checkpoint(const std::string& path, const Scenario& scenario,
                     const ScenarioResult& result,
                     const std::string& spec_hash);

/// Loads a checkpoint if present and current (id + spec hash match).
/// Returns false when missing or stale; throws on a malformed file.
[[nodiscard]] bool load_checkpoint(const std::string& path,
                                   const Scenario& scenario,
                                   const std::string& spec_hash,
                                   ScenarioResult* out);

/// Writes the deterministic results manifest.  With a sharded `shard`,
/// writes the per-shard variant instead: format
/// "emask-campaign-shard-manifest-v1" with `shard_index`/`shard_count`
/// fields, covering only the shard's outcomes.  The document layout is
/// otherwise identical, so the merged whole-matrix manifest is produced by
/// the same code path (shard == nullptr or unsharded).
void write_manifest(const std::string& path, const CampaignSpec& spec,
                    const std::vector<ScenarioOutcome>& outcomes,
                    const std::string& git_version,
                    const ShardSpec* shard = nullptr);

/// Reads one manifest "result" object back into a ScenarioResult (the
/// inverse of the scenario block write_manifest emits).  Numbers
/// round-trip bit-exactly ("%.17g" doubles, raw integer tokens); a `null`
/// metric/margin (the JSON encoding of a non-finite double) loads as NaN.
/// Throws util::JsonError on missing keys or type mismatches.
[[nodiscard]] ScenarioResult scenario_result_from_json(
    const util::JsonValue& result);

/// Writes the deterministic per-scenario summary table (one row per
/// outcome, in matrix order).  Shared by the runner and the shard merge so
/// both emit byte-identical summaries.
void write_summary_csv(const std::string& path,
                       const std::vector<ScenarioOutcome>& outcomes);

/// Writes wall-time / throughput observability (non-deterministic).
void write_timings(const std::string& path,
                   const std::vector<ScenarioOutcome>& outcomes);

/// `git describe --always --dirty` of the working tree, or "unknown" when
/// git (or the repo) is unavailable.
[[nodiscard]] std::string git_describe();

/// Per-policy mean energy per encryption, averaged over the policy's
/// scenarios (energy-analysis scenarios preferred when the campaign has
/// any — they run the whole program, not an attack window).
struct PolicyRollup {
  hiding::Countermeasure policy;
  std::size_t scenarios = 0;
  double mean_uj = 0.0;
};

[[nodiscard]] std::vector<PolicyRollup> rollup_by_policy(
    const CampaignSpec& spec, const std::vector<ScenarioOutcome>& outcomes);

/// The spec's [reference] value for a policy (matched by canonical
/// countermeasure name), or nullptr.
[[nodiscard]] const double* find_reference(
    const CampaignSpec& spec, const hiding::Countermeasure& policy);

/// Filename of the analysis-specific artifact CSV the runner writes beside
/// result.csv: breakdown.csv (energy), guesses.csv (dpa/cpa/second_order),
/// t_per_cycle.csv (tvla), disclosure.csv (mlpa/collision).
[[nodiscard]] std::string_view analysis_artifact(Analysis a);

/// True for the key-ranking attacks whose scenarios additionally write a
/// traces-to-disclosure curve (disclosure.csv) beside the main artifact.
[[nodiscard]] bool analysis_has_disclosure(Analysis a);

/// Artifact paths relative to a campaign output directory — the layout
/// contract consumers (the report layer) join against.
[[nodiscard]] std::string scenario_artifact_path(const std::string& id,
                                                 Analysis a);
[[nodiscard]] std::string scenario_disclosure_path(const std::string& id);
/// Session-cipher extras beside result.csv: per-block attribution and the
/// key-schedule amortization accounting.
[[nodiscard]] std::string scenario_blocks_path(const std::string& id);
[[nodiscard]] std::string scenario_session_path(const std::string& id);

/// The one-spec-per-directory guard of `run` and `merge`: writes the spec
/// text to `out_dir`/spec.ini or, when that file exists, throws SpecError
/// unless it holds the same spec.  Throws std::runtime_error when the copy
/// cannot be read or written.
void claim_output_dir(const std::string& out_dir, const CampaignSpec& spec);

}  // namespace emask::campaign
