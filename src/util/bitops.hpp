// Bit-manipulation helpers shared across the simulator, energy models and DES.
#pragma once

#include <cstdint>
#include <vector>

namespace emask::util {

/// Number of set bits in `x`, as portable branch-free SWAR arithmetic.  A
/// build for a baseline x86-64 target has no popcount instruction, so
/// std::popcount there is a call into libgcc; the energy model counts bits
/// several times per simulated cycle and inlines this instead.
[[nodiscard]] constexpr int popcount(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

/// Hamming distance between two 32-bit words: the number of bit positions
/// that toggle when a bus/latch holding `a` is overwritten with `b`.  This is
/// the quantity transition-sensitive energy models charge for.
[[nodiscard]] constexpr int hamming_distance(std::uint32_t a,
                                             std::uint32_t b) noexcept {
  return popcount(a ^ b);
}

/// Value of bit `pos` (0 = LSB) of `x`, as 0 or 1.
[[nodiscard]] constexpr std::uint32_t bit_of(std::uint32_t x,
                                             unsigned pos) noexcept {
  return (x >> pos) & 1u;
}

/// Value of bit `pos` (0 = LSB) of a 64-bit word, as 0 or 1.
[[nodiscard]] constexpr std::uint64_t bit_of64(std::uint64_t x,
                                               unsigned pos) noexcept {
  return (x >> pos) & 1u;
}

/// `x` with bit `pos` forced to `value` (0 or 1).
[[nodiscard]] constexpr std::uint32_t with_bit(std::uint32_t x, unsigned pos,
                                               std::uint32_t value) noexcept {
  return (x & ~(1u << pos)) | ((value & 1u) << pos);
}

/// Sign-extend the low `bits` bits of `x` to a full 32-bit word.
[[nodiscard]] constexpr std::uint32_t sign_extend(std::uint32_t x,
                                                  unsigned bits) noexcept {
  const std::uint32_t mask = 1u << (bits - 1);
  x &= (bits >= 32) ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  return (x ^ mask) - mask;
}

/// Packs 64 words of value 0/1 into a block, MSB first (element 0 becomes
/// bit 63).  This is the "one word per bit" data layout the paper's DES
/// implementation uses (Fig. 4: `newL[i] = oldR[i]`).
[[nodiscard]] std::uint64_t pack_block_msb_first(
    const std::vector<std::uint32_t>& bits);

}  // namespace emask::util
