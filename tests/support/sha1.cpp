#include "support/sha1.hpp"

#include <stdexcept>

namespace emask::sha {
namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

constexpr std::array<std::uint32_t, 4> kK = {0x5A827999u, 0x6ED9EBA1u,
                                             0x8F1BBCDCu, 0xCA62C1D6u};

}  // namespace

Sha1State sha1_init() {
  return Sha1State{
      {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u}};
}

void sha1_compress(Sha1State& state,
                   const std::array<std::uint32_t, 16>& block) {
  std::array<std::uint32_t, 80> w;
  for (int i = 0; i < 16; ++i) w[static_cast<std::size_t>(i)] = block[static_cast<std::size_t>(i)];
  for (int i = 16; i < 80; ++i) {
    w[static_cast<std::size_t>(i)] =
        rotl(w[static_cast<std::size_t>(i - 3)] ^
                 w[static_cast<std::size_t>(i - 8)] ^
                 w[static_cast<std::size_t>(i - 14)] ^
                 w[static_cast<std::size_t>(i - 16)],
             1);
  }
  std::uint32_t a = state.h[0], b = state.h[1], c = state.h[2],
                d = state.h[3], e = state.h[4];
  for (int t = 0; t < 80; ++t) {
    std::uint32_t f;
    if (t < 20) {
      f = (b & c) | (~b & d);
    } else if (t < 40) {
      f = b ^ c ^ d;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
    } else {
      f = b ^ c ^ d;
    }
    const std::uint32_t temp =
        rotl(a, 5) + f + e + w[static_cast<std::size_t>(t)] +
        kK[static_cast<std::size_t>(t / 20)];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }
  state.h[0] += a;
  state.h[1] += b;
  state.h[2] += c;
  state.h[3] += d;
  state.h[4] += e;
}

std::array<std::uint8_t, 20> sha1(const std::vector<std::uint8_t>& data) {
  Sha1State state = sha1_init();
  std::vector<std::uint8_t> padded = data;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>((bit_len >> (8 * i)) & 0xFF));
  }
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    std::array<std::uint32_t, 16> block;
    for (int i = 0; i < 16; ++i) {
      const std::size_t p = off + static_cast<std::size_t>(i) * 4;
      block[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(padded[p]) << 24) |
          (static_cast<std::uint32_t>(padded[p + 1]) << 16) |
          (static_cast<std::uint32_t>(padded[p + 2]) << 8) |
          static_cast<std::uint32_t>(padded[p + 3]);
    }
    sha1_compress(state, block);
  }
  std::array<std::uint8_t, 20> out;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(i * 4 + j)] = static_cast<std::uint8_t>(
          (state.h[static_cast<std::size_t>(i)] >> (24 - 8 * j)) & 0xFF);
    }
  }
  return out;
}

std::string sha1_hex(const std::string& text) {
  const auto digest =
      sha1(std::vector<std::uint8_t>(text.begin(), text.end()));
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

std::array<std::uint32_t, 5> read_digest(const sim::DataMemory& memory,
                                         const assembler::Program& program) {
  const assembler::DataSymbol* s = program.find_symbol("digest");
  if (s == nullptr || s->size_bytes < 20) {
    throw std::invalid_argument("sha: no digest symbol");
  }
  std::array<std::uint32_t, 5> out;
  for (unsigned i = 0; i < 5; ++i) {
    out[i] = memory.load_word(s->address + i * 4);
  }
  return out;
}

}  // namespace emask::sha
