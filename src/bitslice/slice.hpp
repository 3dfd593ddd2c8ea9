// Bit-slicing primitives (Biham's "a new paradigm" trick, the idiom behind
// OpenSSL/libdes): treat a 64-bit word as 64 one-bit lanes and evaluate 64
// independent scenarios per word operation.  Data moves between the normal
// ("one value per word") and sliced ("one *bit position* per word, one
// value per *lane*") layouts through a 64x64 bit-matrix transpose.
//
// Everything here is generic machinery — plane transposes, truth-table
// evaluation, lane-parallel Hamming weights.  The DES-specific layer that
// turns these into hypothesis matrices lives in bitslice/des_round1.hpp.
#pragma once

#include <array>
#include <cstdint>

namespace emask::bitslice {

/// One bit-plane: bit `l` carries lane `l`'s value of a single bit.
using Word = std::uint64_t;

/// All-ones / all-zeros planes (every lane carries the same constant bit).
constexpr Word kAllOnes = ~Word{0};
constexpr Word kAllZeros = Word{0};

/// kLaneIndex[i] is the plane of bit i of the lane index itself: bit g of
/// kLaneIndex[i] equals bit i of g.  Feeding these planes into a sliced
/// function evaluates it on all 64 lane indices at once — the "guess in
/// the lane" layout the hypothesis generators use (lane g = key guess g).
constexpr std::array<Word, 6> kLaneIndex = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3, LSB-first
/// columns): after the call, bit l of a[b] is what bit b of a[l] was.
/// Turns 64 values (one per word) into 64 bit-planes (one per word) and
/// back — the layout conversion at the edge of every sliced computation.
/// Bench and example API: no tool links it.
void transpose64(Word a[64]);

/// Evaluates an n-input boolean function given as a 2^n-bit truth table
/// (bit x of `tt` = f(x)) over bit-planes x[0..n-1] (x[i] = plane of input
/// bit i), for all 64 lanes at once.  Implemented as the mux tree
///   f(x) = ~x[n-1] & f_lo(x)  |  x[n-1] & f_hi(x)
/// — 2^n - 1 muxes, independent of the function, so arbitrary S-box truth
/// tables slice without hand-optimized gate networks.
[[nodiscard]] Word eval_tt(std::uint64_t tt, const Word* x, int n);

/// Per-lane Hamming weight of four one-bit planes via a carry-save adder:
/// w[0..2] are the weight's bit-planes, so lane l's weight (0..4) is
/// bit l of w[0] + 2 * bit l of w[1] + 4 * bit l of w[2].
void hamming4_planes(const Word o[4], Word w[3]);

/// Decodes lane l's value from weight planes produced by hamming4_planes.
[[nodiscard]] inline int decode_weight(const Word w[3], int lane) {
  return static_cast<int>((w[0] >> lane) & 1) |
         (static_cast<int>((w[1] >> lane) & 1) << 1) |
         (static_cast<int>((w[2] >> lane) & 1) << 2);
}

}  // namespace emask::bitslice
