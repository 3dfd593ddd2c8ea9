// Golden AES-128 (FIPS 197).
//
// Third workload for the masking framework (the paper's related work cites
// power analysis of the AES candidates [Biham-Shamir]).  AES is the
// interesting stress case for the *secure indexing* instruction: its
// S-box and xtime lookups are all table accesses at secret-derived
// addresses, exactly the pattern the paper secures for the DES S-boxes.
#pragma once

#include <array>
#include <cstdint>

namespace emask::aes {

using Block = std::array<std::uint8_t, 16>;
using Key = std::array<std::uint8_t, 16>;

/// 11 round keys of 16 bytes each, flattened.
struct KeySchedule {
  std::array<std::uint8_t, 176> bytes;
};

/// Golden AES-128.  Bench and example API: no tool links it.
[[nodiscard]] KeySchedule expand_key(const Key& key);

[[nodiscard]] Block encrypt_block(const Block& plaintext, const Key& key);

/// Forward S-box (exposed: tables for the assembly generator and the
/// attacker's hypothesis engine).
[[nodiscard]] std::uint8_t sbox(std::uint8_t x);
[[nodiscard]] std::uint8_t inv_sbox(std::uint8_t x);

/// GF(2^8) doubling (xtime), the MixColumns primitive.
[[nodiscard]] std::uint8_t xtime(std::uint8_t x);

/// GF(2^8) multiplication (the decryption program's InvMixColumns tables:
/// factors 9, 11, 13, 14).
[[nodiscard]] std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

}  // namespace emask::aes
