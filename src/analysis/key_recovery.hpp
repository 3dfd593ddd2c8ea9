// From a recovered round subkey to the full DES key.
//
// A first-round attack yields the 48 bits of K1.  PC-2 discarded 8 of the
// 56 effective key bits on the way to K1, so the attacker finishes with a
// 2^8 search over the missing bits, validated against one known
// plaintext/ciphertext pair — the standard DPA end game the paper's
// countermeasure is meant to prevent.
#pragma once

#include <cstdint>
#include <optional>

namespace emask::analysis {

/// Bench and example API: no tool links it.
/// Positions (1-based FIPS key bit numbers, parity bits excluded) of the
/// original key bits that K1 exposes, per K1 bit index 0..47.
/// kpos = k1_source_key_bit(i) means K1 bit i equals key bit kpos.
[[nodiscard]] int k1_source_key_bit(int k1_bit_index);

/// Reconstructs the full 64-bit key (odd parity) from a recovered K1 and
/// one known plaintext/ciphertext pair.  Returns nullopt if no assignment
/// of the 8 unexposed bits encrypts `plaintext` to `ciphertext` — i.e. the
/// recovered K1 is wrong.  Bench and example API: no tool links it.
[[nodiscard]] std::optional<std::uint64_t> reconstruct_key(
    std::uint64_t recovered_k1, std::uint64_t plaintext,
    std::uint64_t ciphertext);

}  // namespace emask::analysis
