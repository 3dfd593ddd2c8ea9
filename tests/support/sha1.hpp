// Golden SHA-1 (FIPS 180-1, the "Secure Hash Standard" the paper cites as
// reference [10]): the test oracle the simulated SHA-1 compression program
// (sha/asm_generator.hpp) is checked against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "assembler/program.hpp"
#include "sim/memory.hpp"

namespace emask::sha {

/// The five 32-bit chaining variables.
struct Sha1State {
  std::array<std::uint32_t, 5> h;
};

/// FIPS initial state H0..H4.
[[nodiscard]] Sha1State sha1_init();

/// One compression: absorbs a 512-bit block (16 big-endian words).
void sha1_compress(Sha1State& state,
                   const std::array<std::uint32_t, 16>& block);

/// Full padded hash of a byte string.
[[nodiscard]] std::array<std::uint8_t, 20> sha1(
    const std::vector<std::uint8_t>& data);

/// Convenience: hash of an ASCII string, hex-encoded.
[[nodiscard]] std::string sha1_hex(const std::string& text);

/// Reads the five digest words a generated SHA-1 program left in simulated
/// memory.
[[nodiscard]] std::array<std::uint32_t, 5> read_digest(
    const sim::DataMemory& memory, const assembler::Program& program);

}  // namespace emask::sha
