#include "des/des.hpp"

#include "des/tables.hpp"

namespace emask::des {
namespace {

/// Applies a 1-based MSB-first permutation table: output bit i (MSB first)
/// becomes input bit table[i] of a `width_in`-bit input.
template <std::size_t N>
std::uint64_t permute(std::uint64_t input, const std::array<int, N>& table,
                      int width_in) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const int src = table[i];  // 1-based from the MSB
    const std::uint64_t bit = (input >> (width_in - src)) & 1u;
    out = (out << 1) | bit;
  }
  return out;
}

std::uint64_t rotate_left28(std::uint64_t half, int n) {
  constexpr std::uint64_t kMask28 = (1ull << 28) - 1;
  return ((half << n) | (half >> (28 - n))) & kMask28;
}

}  // namespace

KeySchedule key_schedule(std::uint64_t key) {
  KeySchedule ks;
  const std::uint64_t cd = permute(key, kPc1, 64);  // 56 bits
  std::uint64_t c = (cd >> 28) & ((1ull << 28) - 1);
  std::uint64_t d = cd & ((1ull << 28) - 1);
  for (int round = 0; round < 16; ++round) {
    c = rotate_left28(c, kShifts[static_cast<std::size_t>(round)]);
    d = rotate_left28(d, kShifts[static_cast<std::size_t>(round)]);
    ks.subkeys[static_cast<std::size_t>(round)] =
        permute((c << 28) | d, kPc2, 56);
  }
  return ks;
}

std::uint64_t initial_permutation(std::uint64_t block) {
  return permute(block, kIp, 64);
}

std::uint64_t final_permutation(std::uint64_t block) {
  return permute(block, kIpInv, 64);
}

std::uint64_t expand(std::uint32_t r) { return permute(r, kE, 32); }

std::uint8_t sbox_lookup(int s, std::uint8_t six_bits) {
  const int row = ((six_bits >> 4) & 2) | (six_bits & 1);
  const int col = (six_bits >> 1) & 0xF;
  return kSbox[static_cast<std::size_t>(s)]
              [static_cast<std::size_t>(row * 16 + col)];
}

std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey48) {
  const std::uint64_t x = expand(r) ^ subkey48;
  std::uint32_t sboxed = 0;
  for (int s = 0; s < 8; ++s) {
    const auto six =
        static_cast<std::uint8_t>((x >> (42 - 6 * s)) & 0x3F);
    sboxed = (sboxed << 4) | sbox_lookup(s, six);
  }
  return static_cast<std::uint32_t>(permute(sboxed, kP, 32));
}

namespace {

std::uint64_t crypt(std::uint64_t block, const KeySchedule& ks, bool decrypt) {
  const std::uint64_t ip = initial_permutation(block);
  auto l = static_cast<std::uint32_t>(ip >> 32);
  auto r = static_cast<std::uint32_t>(ip & 0xFFFFFFFFu);
  for (int round = 0; round < 16; ++round) {
    const std::size_t k =
        static_cast<std::size_t>(decrypt ? 15 - round : round);
    const std::uint32_t next_r = l ^ feistel(r, ks.subkeys[k]);
    l = r;
    r = next_r;
  }
  // Pre-output is R16 || L16 (the halves are swapped).
  return final_permutation((static_cast<std::uint64_t>(r) << 32) | l);
}

}  // namespace

std::uint64_t encrypt_block(std::uint64_t plaintext, std::uint64_t key) {
  return crypt(plaintext, key_schedule(key), /*decrypt=*/false);
}

std::uint64_t decrypt_block(std::uint64_t ciphertext, std::uint64_t key) {
  return crypt(ciphertext, key_schedule(key), /*decrypt=*/true);
}

std::uint64_t encrypt_block_ede3(std::uint64_t plaintext, std::uint64_t k1,
                                 std::uint64_t k2, std::uint64_t k3) {
  return encrypt_block(decrypt_block(encrypt_block(plaintext, k1), k2), k3);
}

std::uint64_t decrypt_block_ede3(std::uint64_t ciphertext, std::uint64_t k1,
                                 std::uint64_t k2, std::uint64_t k3) {
  return decrypt_block(encrypt_block(decrypt_block(ciphertext, k3), k2), k1);
}

std::vector<std::uint64_t> cbc_encrypt(
    const std::vector<std::uint64_t>& blocks, std::uint64_t key,
    std::uint64_t iv) {
  std::vector<std::uint64_t> out;
  out.reserve(blocks.size());
  std::uint64_t chain = iv;
  for (const std::uint64_t block : blocks) {
    chain = encrypt_block(block ^ chain, key);
    out.push_back(chain);
  }
  return out;
}

std::vector<std::uint64_t> cbc_decrypt(
    const std::vector<std::uint64_t>& blocks, std::uint64_t key,
    std::uint64_t iv) {
  std::vector<std::uint64_t> out;
  out.reserve(blocks.size());
  std::uint64_t chain = iv;
  for (const std::uint64_t block : blocks) {
    out.push_back(decrypt_block(block, key) ^ chain);
    chain = block;
  }
  return out;
}

std::vector<std::uint64_t> cbc_encrypt_ede3(
    const std::vector<std::uint64_t>& blocks, std::uint64_t k1,
    std::uint64_t k2, std::uint64_t k3, std::uint64_t iv) {
  std::vector<std::uint64_t> out;
  out.reserve(blocks.size());
  std::uint64_t chain = iv;
  for (const std::uint64_t block : blocks) {
    chain = encrypt_block_ede3(block ^ chain, k1, k2, k3);
    out.push_back(chain);
  }
  return out;
}

std::vector<std::uint64_t> cbc_decrypt_ede3(
    const std::vector<std::uint64_t>& blocks, std::uint64_t k1,
    std::uint64_t k2, std::uint64_t k3, std::uint64_t iv) {
  std::vector<std::uint64_t> out;
  out.reserve(blocks.size());
  std::uint64_t chain = iv;
  for (const std::uint64_t block : blocks) {
    out.push_back(decrypt_block_ede3(block, k1, k2, k3) ^ chain);
    chain = block;
  }
  return out;
}

std::uint8_t round1_sbox_input(std::uint64_t plaintext, int s) {
  const std::uint64_t ip = initial_permutation(plaintext);
  const auto r0 = static_cast<std::uint32_t>(ip & 0xFFFFFFFFu);
  const std::uint64_t er = expand(r0);
  return static_cast<std::uint8_t>((er >> (42 - 6 * s)) & 0x3F);
}

std::uint64_t with_odd_parity(std::uint64_t key) {
  std::uint64_t out = 0;
  for (int byte = 0; byte < 8; ++byte) {
    auto b = static_cast<std::uint8_t>((key >> (8 * byte)) & 0xFF);
    b &= 0xFE;
    int ones = 0;
    for (int i = 1; i < 8; ++i) ones += (b >> i) & 1;
    b = static_cast<std::uint8_t>(b | ((ones % 2 == 0) ? 1 : 0));
    out |= static_cast<std::uint64_t>(b) << (8 * byte);
  }
  return out;
}

}  // namespace emask::des
