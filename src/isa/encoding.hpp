// Binary encoding of the ISA.
//
// Instructions encode to a classic MIPS-I 32-bit word; the secure bit rides
// as bit 32 of the fetched word, i.e. the instruction memory and fetch bus
// are 33 bits wide.  This matches the paper's implementation choice of
// "augmenting the original opcodes with an additional secure bit" rather
// than burning unassigned opcodes, minimizing the impact on decode logic.
//
// The encoding is load-bearing for the energy model: instruction-fetch bus
// energy is charged per bit *transition* between consecutively fetched
// words, so the bit-level layout of the encoding determines fetch energy.
#pragma once

#include <cstdint>

#include "isa/instruction.hpp"

namespace emask::isa {

/// Encoded instruction word: bits [31:0] MIPS-style, bit 32 = secure.
using EncodedWord = std::uint64_t;

inline constexpr EncodedWord kSecureBit = 1ull << 32;

/// Encodes an instruction.  Throws std::invalid_argument when a field does
/// not fit its encoding slot, so that decode(encode(i)) gives i's
/// immediate back: a sign-extended immediate or branch displacement outside
/// [-32768, 32767], an andi/ori/xori/lui immediate outside [0, 65535], a
/// shift amount outside [0, 31], a jump index beyond 26 bits, or a nonzero
/// immediate where the format has none.
[[nodiscard]] EncodedWord encode(const Instruction& inst);

/// Decodes an encoded word.  Throws std::invalid_argument on patterns that
/// do not correspond to any implemented instruction.
[[nodiscard]] Instruction decode(EncodedWord word);

}  // namespace emask::isa
