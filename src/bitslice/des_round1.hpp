// Bitsliced DES round-1 hypothesis generators.
//
// Every first-round attack in src/analysis predicts, per (plaintext,
// guess) pair, something about S(e ^ g) where e = round1_sbox_input(pt)
// is public.  The scalar paths call des::sbox_lookup 64 times per trace;
// here the S-box is evaluated as a sliced truth table so one pass over
// ~4 * 63 word muxes produces an entire 64-entry hypothesis row (or, in
// block mode, a 64x64 plaintext-by-guess matrix):
//
//   * row mode — "guess in the lane": feed input planes kLaneIndex[i]
//     XOR e_i so lane g carries e ^ g, evaluate once, read all guesses.
//   * block mode — "plaintext in the lane": transpose 64 plaintexts into
//     bit-planes, select the six source bits feeding the target S-box
//     (round1_sbox_input is a pure bit-selection through IP + E, probed
//     once against the golden model), then evaluate once per guess.
//
// Both layouts are exercised against the scalar des:: model bit-for-bit
// in tests/bitslice_test.cpp; the attack-facing providers that cache rows
// per distinct e live in bitslice/providers.hpp.
#pragma once

#include <array>
#include <cstdint>

#include "bitslice/slice.hpp"

namespace emask::bitslice {

/// Truth-table planes of output bit `b` (LSB-first: b=0 is the S-box
/// output's least significant bit) for S-box `sbox` (0..7).
[[nodiscard]] std::uint64_t sbox_truth_table(int sbox, int b);

/// Sliced S-box: x[i] = plane of input bit i (LSB-first), out[b] = plane
/// of output bit b, for all 64 lanes at once.
void sbox_planes(int sbox, const Word x[6], Word out[4]);

/// The plaintext bit feeding bit `i` (LSB-first) of round1_sbox_input(pt,
/// sbox) — IP + E is a fixed bit-selection, probed once from the golden
/// model with single-bit plaintexts.
[[nodiscard]] int round1_source_bit(int sbox, int i);

/// Scalar round-1 expanded-input chunk reconstructed from the probed
/// source-bit map (equals des::round1_sbox_input; used by the row caches
/// so the bitslice layer never diverges from its own plane selection).
[[nodiscard]] std::uint8_t round1_six(std::uint64_t plaintext, int sbox);

/// Transposes 64 plaintexts into 64 bit-planes (planes[b] bit l = bit b
/// of pts[l]).  Bench and example API: no tool links it.
void plaintext_planes(const std::uint64_t pts[64], Word planes[64]);

/// Selects the six input planes feeding `sbox` out of a transposed
/// plaintext block.  Bench and example API: no tool links it.
void six_planes_from(const Word pt_planes[64], int sbox, Word x[6]);

/// Row mode: row[g] = popcount(S(six ^ g)) for all 64 guesses — the CPA
/// hypothesis row — in one sliced evaluation.
void cpa_hypothesis_row(int sbox, std::uint8_t six, std::array<int, 64>& row);

/// Row mode: row[g] = bit `bit` (0 = MSB, matching DpaAttack) of
/// S(six ^ g) for all 64 guesses.
void dpa_hypothesis_row(int sbox, int bit, std::uint8_t six,
                        std::array<int, 64>& row);

/// Block mode: matrix[p][g] = popcount(S(e_p ^ g)) for 64 plaintexts and
/// all 64 guesses (one transpose + 64 sliced evaluations).
/// Bench and example API: no tool links it.
void cpa_hypothesis_block(int sbox, const std::uint64_t pts[64],
                          std::array<std::array<int, 64>, 64>& matrix);

/// parity(in_mask & e) for every 6-bit e at once: bit e of the returned
/// plane is the MLPA selection parity — computed by XOR-folding the
/// kLaneIndex planes selected by `in_mask` (lane e carries e itself).
[[nodiscard]] Word selection_parity_plane(int in_mask);

}  // namespace emask::bitslice
