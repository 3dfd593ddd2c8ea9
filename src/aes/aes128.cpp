#include "aes/aes128.hpp"

namespace emask::aes {
namespace {

/// S-box tables generated from the GF(2^8) definition at startup (and
/// validated against the FIPS 197 known-answer vectors in the test suite) —
/// no 256-entry constant block to mistype.
struct Tables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};

  Tables() {
    const auto rotl8 = [](std::uint8_t x, int n) {
      return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
    };
    std::uint8_t p = 1, q = 1;
    do {
      // p runs over all nonzero field elements (multiply by 3);
      // q tracks its inverse (divide by 3).
      p = static_cast<std::uint8_t>(p ^ (p << 1) ^ ((p & 0x80) ? 0x1B : 0));
      q ^= static_cast<std::uint8_t>(q << 1);
      q ^= static_cast<std::uint8_t>(q << 2);
      q ^= static_cast<std::uint8_t>(q << 4);
      if (q & 0x80) q ^= 0x09;
      const std::uint8_t s = static_cast<std::uint8_t>(
          q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63);
      sbox[p] = s;
      inv_sbox[s] = p;
    } while (p != 1);
    sbox[0] = 0x63;
    inv_sbox[0x63] = 0;
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

void add_round_key(Block& s, const KeySchedule& ks, int round) {
  for (int i = 0; i < 16; ++i) {
    s[static_cast<std::size_t>(i)] ^=
        ks.bytes[static_cast<std::size_t>(round * 16 + i)];
  }
}

void sub_bytes(Block& s) {
  for (auto& b : s) b = sbox(b);
}

// State layout: s[r + 4c] (column-major, FIPS Fig. 3).
void shift_rows(Block& s) {
  Block out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      out[static_cast<std::size_t>(r + 4 * c)] =
          s[static_cast<std::size_t>(r + 4 * ((c + r) % 4))];
    }
  }
  s = out;
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[static_cast<std::size_t>(4 * c)];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    const std::uint8_t t = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
    col[0] = static_cast<std::uint8_t>(a0 ^ t ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
    col[1] = static_cast<std::uint8_t>(a1 ^ t ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
    col[2] = static_cast<std::uint8_t>(a2 ^ t ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
    col[3] = static_cast<std::uint8_t>(a3 ^ t ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
  }
}

}  // namespace

std::uint8_t sbox(std::uint8_t x) { return tables().sbox[x]; }
std::uint8_t inv_sbox(std::uint8_t x) { return tables().inv_sbox[x]; }

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0));
}

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t out = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) out ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return out;
}

KeySchedule expand_key(const Key& key) {
  KeySchedule ks;
  for (int i = 0; i < 16; ++i) ks.bytes[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  std::uint8_t rcon = 1;
  for (int w = 4; w < 44; ++w) {
    std::array<std::uint8_t, 4> temp;
    for (int j = 0; j < 4; ++j) {
      temp[static_cast<std::size_t>(j)] =
          ks.bytes[static_cast<std::size_t>(4 * (w - 1) + j)];
    }
    if (w % 4 == 0) {
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(sbox(temp[1]) ^ rcon);
      temp[1] = sbox(temp[2]);
      temp[2] = sbox(temp[3]);
      temp[3] = sbox(t0);
      rcon = xtime(rcon);
    }
    for (int j = 0; j < 4; ++j) {
      ks.bytes[static_cast<std::size_t>(4 * w + j)] = static_cast<std::uint8_t>(
          ks.bytes[static_cast<std::size_t>(4 * (w - 4) + j)] ^
          temp[static_cast<std::size_t>(j)]);
    }
  }
  return ks;
}

Block encrypt_block(const Block& plaintext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = plaintext;
  add_round_key(s, ks, 0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, ks, round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, ks, 10);
  return s;
}

}  // namespace emask::aes
