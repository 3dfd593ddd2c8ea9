#include "analysis/disclosure.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace emask::analysis {

DisclosureCurve::DisclosureCurve(std::size_t num_guesses)
    : num_guesses_(num_guesses) {
  if (num_guesses == 0) {
    throw std::invalid_argument("DisclosureCurve: need at least one guess");
  }
}

void DisclosureCurve::add_checkpoint(std::size_t traces,
                                     const std::vector<double>& scores) {
  if (scores.size() != num_guesses_) {
    throw std::invalid_argument("DisclosureCurve: score count mismatch");
  }
  if (!checkpoints_.empty() && traces <= checkpoints_.back().traces) {
    throw std::invalid_argument(
        "DisclosureCurve: checkpoints must be added in increasing trace "
        "order");
  }
  DisclosureCheckpoint cp;
  cp.traces = traces;
  cp.scores = scores;
  // Rank by descending score; equal scores rank by guess index so the
  // ordering (and the CSV) is a pure function of the scores.
  std::vector<std::size_t> order(num_guesses_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  cp.ranks.assign(num_guesses_, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    cp.ranks[order[pos]] = static_cast<int>(pos);
  }
  checkpoints_.push_back(std::move(cp));
}

std::vector<std::size_t> DisclosureCurve::schedule(std::size_t total,
                                                   std::size_t points) {
  std::vector<std::size_t> counts;
  if (total < 2) return counts;
  if (points == 0) points = 1;
  for (std::size_t i = 1; i <= points; ++i) {
    // Evenly spaced, rounded; correlation statistics need >= 2 traces.
    const std::size_t count = (total * i + points / 2) / points;
    if (count < 2) continue;
    if (counts.empty() || count != counts.back()) counts.push_back(count);
  }
  if (counts.empty() || counts.back() != total) counts.push_back(total);
  return counts;
}

std::size_t DisclosureCurve::traces_to_disclosure(int guess) const {
  const auto g = static_cast<std::size_t>(guess);
  if (guess < 0 || g >= num_guesses_) return 0;
  std::size_t disclosed_at = 0;
  for (const DisclosureCheckpoint& cp : checkpoints_) {
    if (cp.ranks[g] == 0) {
      if (disclosed_at == 0) disclosed_at = cp.traces;
    } else {
      disclosed_at = 0;  // overtaken: earlier leads don't count
    }
  }
  return disclosed_at;
}

void DisclosureCurve::write_csv(const std::string& path) const {
  util::CsvWriter csv(path);
  csv.write_header({"traces", "guess", "rank", "score"});
  for (const DisclosureCheckpoint& cp : checkpoints_) {
    for (std::size_t g = 0; g < num_guesses_; ++g) {
      csv.write_row({std::to_string(cp.traces), std::to_string(g),
                     std::to_string(cp.ranks[g]),
                     util::JsonWriter::format_double(cp.scores[g])});
    }
  }
  csv.flush();
}

}  // namespace emask::analysis
