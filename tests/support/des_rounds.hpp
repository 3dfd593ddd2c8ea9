// Round-by-round golden DES: the test oracle for the intermediate values
// the DES program computes and the attack hypotheses predict.
#pragma once

#include <cstdint>

namespace emask::des {

/// L/R halves after `round` (0..16) of encrypting `plaintext` with `key`.
struct RoundState {
  std::uint32_t l = 0;
  std::uint32_t r = 0;
};
[[nodiscard]] RoundState round_state(std::uint64_t plaintext,
                                     std::uint64_t key, int round);

}  // namespace emask::des
