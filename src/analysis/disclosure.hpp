// Traces-to-disclosure curves: how a key-ranking attack converges.
//
// A single end-of-acquisition verdict ("guess 33 wins after 500 traces")
// hides the question defenders actually ask: *how many traces until the
// key is exposed?*  A DisclosureCurve records, at a deterministic schedule
// of trace-count checkpoints, every guess's score and rank under the
// attack statistic.  From that the traces-to-disclosure metric falls out:
// the earliest checkpoint from which the true guess holds rank 0 through
// the end of the acquisition (a guess that briefly leads at 50 traces but
// is overtaken later has not been disclosed at 50).
//
// The curve is attack-agnostic — DPA difference-of-means peaks, CPA/MLPA
// correlations and collision scores all rank the same way — and is the
// per-scenario `disclosure.csv` artifact of campaign attack runs, which
// the report layer turns into rank-evolution charts and per-policy
// traces-to-disclosure tables.
//
// Determinism: ranks break score ties by guess index, checkpoints are a
// pure function of the total trace count, and the CSV serializes doubles
// through util::JsonWriter::format_double — so the artifact is
// byte-identical across thread counts and checkpoint/resume, like every
// other campaign output.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace emask::analysis {

/// One sampled point of the curve: every guess's score and rank after
/// `traces` traces.
struct DisclosureCheckpoint {
  std::size_t traces = 0;
  std::vector<double> scores;  // [guess], the attack statistic
  std::vector<int> ranks;      // [guess], 0 = current best
};

class DisclosureCurve {
 public:
  explicit DisclosureCurve(std::size_t num_guesses = 64);

  /// Records a checkpoint.  `scores[g]` is the attack statistic for guess
  /// g (higher = more likely); ranks are assigned by descending score with
  /// ties broken by guess index.  Checkpoints must be added in increasing
  /// trace order.
  void add_checkpoint(std::size_t traces, const std::vector<double>& scores);

  /// The deterministic checkpoint schedule for an acquisition of `total`
  /// traces: ~`points` counts evenly spaced over [2, total], always
  /// including `total` itself.  Pure function of (total, points).
  [[nodiscard]] static std::vector<std::size_t> schedule(
      std::size_t total, std::size_t points = 10);

  /// Earliest checkpoint trace count from which `guess` holds rank 0
  /// through the last checkpoint; 0 when the guess never stabilizes at
  /// rank 0 (not disclosed within the acquisition).
  /// Bench and example API: no tool links it.
  [[nodiscard]] std::size_t traces_to_disclosure(int guess) const;

  [[nodiscard]] const std::vector<DisclosureCheckpoint>& checkpoints() const {
    return checkpoints_;
  }
  [[nodiscard]] std::size_t num_guesses() const { return num_guesses_; }
  [[nodiscard]] bool empty() const { return checkpoints_.empty(); }

  /// Writes the curve as CSV (`traces,guess,rank,score`), one row per
  /// (checkpoint, guess) in checkpoint-major order.
  void write_csv(const std::string& path) const;

 private:
  std::size_t num_guesses_;
  std::vector<DisclosureCheckpoint> checkpoints_;
};

}  // namespace emask::analysis
