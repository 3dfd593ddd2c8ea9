// Word-parallel Hamming / coupling kernels for the energy model's
// per-component bus loops.
//
// The paper's coupling model (MaskableBus) walks every adjacent line pair
// per transfer — O(width) branches per bus per cycle, the hot loop of a
// coupling-enabled capture.  Each kernel below computes the *same integer
// event count* from one or two popcounts over shifted XOR planes, so the
// swapped-in path is bit-identical (the double result is the identical
// integer times the identical energy constant).  Header-only (counting
// through the inline util::popcount) so src/energy can include it without
// a link edge.
//
// Derivations (verified exhaustively in tests/bitslice_test.cpp):
//
//  * normal mode: delta_i in {-1, 0, +1} decomposes into rising r_i and
//    falling f_i planes (mutually exclusive), and
//      |delta_i - delta_{i+1}| = (r_i ^ r_{i+1}) + (f_i ^ f_{i+1})
//    for all nine cases, so the pair sum is two popcounts of self-shifted
//    XORs over the width-1 adjacent-pair positions.
//
//  * secure mode: opposing = width (within-pair, constant) plus the count
//    of adjacent equal bits, i.e. popcount of the complemented
//    self-shifted XOR over the same pair positions.
#pragma once

#include <cstdint>

#include "util/bitops.hpp"

namespace emask::bitslice {

/// Bits 0..width-2 set: the adjacent-pair positions of a width-bit bus.
[[nodiscard]] constexpr std::uint64_t pair_mask(int width) {
  return width <= 1 ? 0ull : ((std::uint64_t{1} << (width - 1)) - 1ull);
}

/// Normal-mode coupling events between two successive bus words (both
/// already masked to `width` bits): sum over adjacent pairs of
/// |delta_i - delta_{i+1}|.
[[nodiscard]] inline int coupling_events(std::uint64_t last,
                                         std::uint64_t value, int width) {
  const std::uint64_t pm = pair_mask(width);
  const std::uint64_t rising = ~last & value;
  const std::uint64_t falling = last & ~value;
  return util::popcount((rising ^ (rising >> 1)) & pm) +
         util::popcount((falling ^ (falling >> 1)) & pm);
}

/// Scalar reference for coupling_events (the original per-pair loop).
[[nodiscard]] inline int coupling_events_scalar(std::uint64_t last,
                                                std::uint64_t value,
                                                int width) {
  int events = 0;
  for (int i = 0; i + 1 < width; ++i) {
    const int was_i = static_cast<int>((last >> i) & 1);
    const int was_j = static_cast<int>((last >> (i + 1)) & 1);
    const int now_i = static_cast<int>((value >> i) & 1);
    const int now_j = static_cast<int>((value >> (i + 1)) & 1);
    const int d = (now_i - was_i) - (now_j - was_j);
    events += d < 0 ? -d : d;
  }
  return events;
}

/// Secure-mode opposing-transition count for a dual-rail evaluation of
/// `value` (already masked to `width` bits).
[[nodiscard]] inline int secure_opposing(std::uint64_t value, int width) {
  return width +
         util::popcount(~(value ^ (value >> 1)) & pair_mask(width));
}

/// Scalar reference for secure_opposing (the original per-pair loop).
[[nodiscard]] inline int secure_opposing_scalar(std::uint64_t value,
                                                int width) {
  int opposing = width;
  for (int i = 0; i + 1 < width; ++i) {
    if (((value >> i) & 1) == ((value >> (i + 1)) & 1)) ++opposing;
  }
  return opposing;
}

}  // namespace emask::bitslice
