#include "support/aes_decrypt.hpp"

namespace emask::aes {
namespace {

void add_round_key(Block& s, const KeySchedule& ks, int round) {
  for (int i = 0; i < 16; ++i) {
    s[static_cast<std::size_t>(i)] ^=
        ks.bytes[static_cast<std::size_t>(round * 16 + i)];
  }
}

void inv_sub_bytes(Block& s) {
  for (auto& b : s) b = inv_sbox(b);
}

// State layout: s[r + 4c] (column-major, FIPS Fig. 3).
void inv_shift_rows(Block& s) {
  Block out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      out[static_cast<std::size_t>(r + 4 * ((c + r) % 4))] =
          s[static_cast<std::size_t>(r + 4 * c)];
    }
  }
  s = out;
}

void inv_mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[static_cast<std::size_t>(4 * c)];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                       gf_mul(a2, 13) ^ gf_mul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                       gf_mul(a2, 11) ^ gf_mul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                       gf_mul(a2, 14) ^ gf_mul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                       gf_mul(a2, 9) ^ gf_mul(a3, 14));
  }
}

}  // namespace

Block decrypt_block(const Block& ciphertext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = ciphertext;
  add_round_key(s, ks, 10);
  inv_shift_rows(s);
  inv_sub_bytes(s);
  for (int round = 9; round >= 1; --round) {
    add_round_key(s, ks, round);
    inv_mix_columns(s);
    inv_shift_rows(s);
    inv_sub_bytes(s);
  }
  add_round_key(s, ks, 0);
  return s;
}

}  // namespace emask::aes
