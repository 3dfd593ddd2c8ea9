// Simple Power Analysis: structure recovery from a single trace.
//
// The paper's Fig. 6 shows that one energy trace of the unmasked DES
// "reveals clearly the 16 rounds of operation".  This module quantifies
// that: an autocorrelation-based period detector recovers the round length
// and count from a single trace, which is precisely what an SPA attacker
// does to locate operations before inducing glitches or mounting DPA.
#pragma once

#include <cstddef>

#include "analysis/trace.hpp"

namespace emask::analysis {

struct SpaResult {
  std::size_t best_period = 0;   // cycles per repeating unit (one round)
  double periodicity = 0.0;      // autocorrelation at best_period, [-1, 1]
  int repetitions = 0;           // how many whole periods fit in the trace
};

/// Bench and example API: no tool links it.
/// Finds the strongest repeating period of `trace` in
/// [min_period, max_period] by normalized autocorrelation.
[[nodiscard]] SpaResult detect_rounds(const Trace& trace,
                                      std::size_t min_period,
                                      std::size_t max_period);

/// Normalized autocorrelation of the trace at a fixed lag.
/// Bench and example API: no tool links it.
[[nodiscard]] double autocorrelation(const Trace& trace, std::size_t lag);

}  // namespace emask::analysis
