// Golden DES model: FIPS known-answer vectors, round-trip properties, and
// exposed internals.
#include "des/des.hpp"

#include <gtest/gtest.h>

#include "des/tables.hpp"
#include "support/des_rounds.hpp"
#include "util/rng.hpp"

namespace emask::des {
namespace {

// The classic worked example (used in many textbooks and test suites).
TEST(DesGolden, KnownAnswerClassic) {
  EXPECT_EQ(encrypt_block(0x0123456789ABCDEFull, 0x133457799BBCDFF1ull),
            0x85E813540F0AB405ull);
}

// NIST SP 800-17 style vectors.
TEST(DesGolden, KnownAnswerWeakKeyAllZeroPlain) {
  EXPECT_EQ(encrypt_block(0x0000000000000000ull, 0x0101010101010101ull),
            0x8CA64DE9C1B123A7ull);
}

TEST(DesGolden, KnownAnswerOnesKey) {
  // Complement of the all-zero weak-key vector (complementation property).
  EXPECT_EQ(encrypt_block(0xFFFFFFFFFFFFFFFFull, 0xFEFEFEFEFEFEFEFEull),
            0x7359B2163E4EDC58ull);
}

TEST(DesGolden, DecryptInvertsEncrypt) {
  util::Rng rng(0xDE5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(decrypt_block(encrypt_block(pt, key), key), pt);
  }
}

TEST(DesGolden, ParityBitsAreIgnored) {
  util::Rng rng(0xBEEF);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t pt = rng.next_u64();
    // Flipping any parity bit (LSB of each byte) must not change the cipher.
    const std::uint64_t key2 = key ^ 0x0101010101010101ull;
    EXPECT_EQ(encrypt_block(pt, key), encrypt_block(pt, key2));
  }
}

TEST(DesGolden, AvalancheSingleKeyBit) {
  // Complementing one effective key bit changes roughly half the cipher.
  const std::uint64_t pt = 0x0123456789ABCDEFull;
  const std::uint64_t k1 = 0x133457799BBCDFF1ull;
  const std::uint64_t k2 = k1 ^ (1ull << 62);  // FIPS key bit 2 (non-parity)
  const int flipped =
      std::popcount(encrypt_block(pt, k1) ^ encrypt_block(pt, k2));
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(DesGolden, InitialAndFinalPermutationsInverse) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = rng.next_u64();
    EXPECT_EQ(final_permutation(initial_permutation(x)), x);
    EXPECT_EQ(initial_permutation(final_permutation(x)), x);
  }
}

TEST(DesGolden, ExpandProducesFortyEightBits) {
  EXPECT_EQ(expand(0xFFFFFFFFu), (1ull << 48) - 1);
  EXPECT_EQ(expand(0), 0u);
}

TEST(DesGolden, SboxLookupMatchesTableIndexing) {
  // six bits b1..b6: row = b1b6, col = b2b3b4b5.
  for (int s = 0; s < 8; ++s) {
    for (int six = 0; six < 64; ++six) {
      const int row = ((six >> 4) & 2) | (six & 1);
      const int col = (six >> 1) & 0xF;
      EXPECT_EQ(sbox_lookup(s, static_cast<std::uint8_t>(six)),
                kSbox[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(row * 16 + col)]);
    }
  }
}

TEST(DesGolden, KeyScheduleSubkeysAre48Bits) {
  const KeySchedule ks = key_schedule(0x133457799BBCDFF1ull);
  for (const std::uint64_t k : ks.subkeys) {
    EXPECT_EQ(k >> 48, 0u);
  }
  // First subkey of the classic example.
  EXPECT_EQ(ks.subkeys[0], 0b000110110000001011101111111111000111000001110010ull);
}

TEST(DesGolden, RoundStateMatchesFullCipher) {
  const std::uint64_t pt = 0x0123456789ABCDEFull;
  const std::uint64_t key = 0x133457799BBCDFF1ull;
  const RoundState st = round_state(pt, key, 16);
  const std::uint64_t out = final_permutation(
      (static_cast<std::uint64_t>(st.r) << 32) | st.l);
  EXPECT_EQ(out, encrypt_block(pt, key));
}

TEST(DesGolden, RoundStateZeroIsInitialPermutation) {
  const std::uint64_t pt = 0xA5A5A5A55A5A5A5Aull;
  const RoundState st = round_state(pt, 0x133457799BBCDFF1ull, 0);
  const std::uint64_t ip = initial_permutation(pt);
  EXPECT_EQ(st.l, static_cast<std::uint32_t>(ip >> 32));
  EXPECT_EQ(st.r, static_cast<std::uint32_t>(ip & 0xFFFFFFFFu));
}

TEST(DesGolden, WithOddParityProducesOddBytes) {
  util::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t k = with_odd_parity(rng.next_u64());
    for (int byte = 0; byte < 8; ++byte) {
      const auto b = static_cast<std::uint8_t>((k >> (8 * byte)) & 0xFF);
      EXPECT_EQ(std::popcount(static_cast<unsigned>(b)) % 2, 1);
    }
  }
}

TEST(DesGolden, TripleDesEdeRoundTrip) {
  util::Rng rng(0x3DE5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t k1 = rng.next_u64();
    const std::uint64_t k2 = rng.next_u64();
    const std::uint64_t k3 = rng.next_u64();
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(decrypt_block_ede3(encrypt_block_ede3(pt, k1, k2, k3), k1, k2,
                                 k3),
              pt);
  }
}

TEST(DesGolden, TripleDesWithEqualKeysIsSingleDes) {
  const std::uint64_t k = 0x133457799BBCDFF1ull;
  const std::uint64_t pt = 0x0123456789ABCDEFull;
  EXPECT_EQ(encrypt_block_ede3(pt, k, k, k), encrypt_block(pt, k));
}

TEST(DesGolden, CbcRoundTripAndChaining) {
  util::Rng rng(0xCBC);
  const std::uint64_t key = rng.next_u64();
  const std::uint64_t iv = rng.next_u64();
  std::vector<std::uint64_t> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(rng.next_u64());
  const auto ct = cbc_encrypt(blocks, key, iv);
  EXPECT_EQ(cbc_decrypt(ct, key, iv), blocks);
  // First block chains the IV.
  EXPECT_EQ(ct[0], encrypt_block(blocks[0] ^ iv, key));
  // Identical plaintext blocks yield different ciphertext blocks.
  const auto ct2 =
      cbc_encrypt(std::vector<std::uint64_t>{7, 7, 7}, key, iv);
  EXPECT_NE(ct2[0], ct2[1]);
  EXPECT_NE(ct2[1], ct2[2]);
}

// Complementation property: DES(~P, ~K) = ~DES(P, K).
TEST(DesGolden, ComplementationProperty) {
  util::Rng rng(0xC0);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(encrypt_block(~pt, ~key), ~encrypt_block(pt, key));
  }
}

}  // namespace
}  // namespace emask::des
