// Bit-exact golden model of the Data Encryption Standard (FIPS 46-3).
//
// Used as (a) the reference the simulated assembly implementation is
// validated against, and (b) the attacker's hypothesis engine in the DPA
// toolkit (predicting intermediate S-box bits for key guesses).
//
// Conventions: 64-bit blocks and keys are std::uint64_t with FIPS bit 1 as
// the most significant bit (bit 63).  Subkeys are 48 bits right-aligned.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace emask::des {

/// The 16 round subkeys, each 48 bits (right-aligned).
struct KeySchedule {
  std::array<std::uint64_t, 16> subkeys{};
};

/// Derives the key schedule from a 64-bit key (the 8 parity bits are
/// ignored, as in the standard).
[[nodiscard]] KeySchedule key_schedule(std::uint64_t key);

/// Encrypts / decrypts one 64-bit block in ECB mode.
[[nodiscard]] std::uint64_t encrypt_block(std::uint64_t plaintext,
                                          std::uint64_t key);
[[nodiscard]] std::uint64_t decrypt_block(std::uint64_t ciphertext,
                                          std::uint64_t key);

/// Triple DES, EDE (encrypt-decrypt-encrypt) with three independent keys.
[[nodiscard]] std::uint64_t encrypt_block_ede3(std::uint64_t plaintext,
                                               std::uint64_t k1,
                                               std::uint64_t k2,
                                               std::uint64_t k3);
[[nodiscard]] std::uint64_t decrypt_block_ede3(std::uint64_t ciphertext,
                                               std::uint64_t k1,
                                               std::uint64_t k2,
                                               std::uint64_t k3);

/// CBC mode over whole blocks.
[[nodiscard]] std::vector<std::uint64_t> cbc_encrypt(
    const std::vector<std::uint64_t>& blocks, std::uint64_t key,
    std::uint64_t iv);
[[nodiscard]] std::vector<std::uint64_t> cbc_decrypt(
    const std::vector<std::uint64_t>& blocks, std::uint64_t key,
    std::uint64_t iv);

/// Triple-DES EDE CBC ("outer CBC", as in PuTTY's des_3cbc_encrypt): one
/// chaining XOR per block around the full EDE cascade.
[[nodiscard]] std::vector<std::uint64_t> cbc_encrypt_ede3(
    const std::vector<std::uint64_t>& blocks, std::uint64_t k1,
    std::uint64_t k2, std::uint64_t k3, std::uint64_t iv);
[[nodiscard]] std::vector<std::uint64_t> cbc_decrypt_ede3(
    const std::vector<std::uint64_t>& blocks, std::uint64_t k1,
    std::uint64_t k2, std::uint64_t k3, std::uint64_t iv);

// ---- Exposed internals (tests, DPA hypothesis engine, asm generator) ----

/// Initial permutation IP and its inverse.
[[nodiscard]] std::uint64_t initial_permutation(std::uint64_t block);
[[nodiscard]] std::uint64_t final_permutation(std::uint64_t block);

/// The cipher function f(R, K): 32-bit R, 48-bit subkey -> 32 bits.
[[nodiscard]] std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey48);

/// E expansion of a 32-bit half to 48 bits (right-aligned).
[[nodiscard]] std::uint64_t expand(std::uint32_t r);

/// Output of S-box `s` (0..7) for a 6-bit input (standard row/column
/// indexing: bits 1 and 6 select the row, bits 2..5 the column).
[[nodiscard]] std::uint8_t sbox_lookup(int s, std::uint8_t six_bits);

/// The public 6-bit expanded-input chunk feeding S-box `s` (0..7) in round
/// 1: bits 42-6s..47-6s of E(R0).  Every first-round attack hypothesis
/// (DPA, CPA, MLPA, collision) xors this with a guessed subkey chunk.
[[nodiscard]] std::uint8_t round1_sbox_input(std::uint64_t plaintext, int s);

/// DES with parity bits set correctly on an arbitrary 56-bit value (helper
/// for workload generators that sweep keys).
/// Bench and example API: no tool links it.
[[nodiscard]] std::uint64_t with_odd_parity(std::uint64_t key);

}  // namespace emask::des
