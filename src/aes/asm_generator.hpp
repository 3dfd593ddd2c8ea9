// Generates an AES-128 encryption program in the target assembly language.
//
// Byte-per-word data layout (the AES analogue of the paper's bit-per-word
// DES): every state/key byte lives in its own 32-bit word, S-box and xtime
// are 256-entry word tables indexed by secret-derived bytes — the *secure
// indexing* pattern the paper introduces for the DES S-boxes, exercised
// here at AES scale (200 S-box lookups + 144 xtime lookups + full key
// expansion per block).  The key is declared `.secret`, the output
// `.declassified`.
#pragma once

#include <cstdint>
#include <string>

#include "aes/aes128.hpp"
#include "assembler/program.hpp"
#include "sim/memory.hpp"

namespace emask::aes {

struct AesAsmOptions {
  /// Generate the inverse cipher.  Symbol convention is unchanged: `plain`
  /// is the input block (here: the ciphertext) and `cipher` the output
  /// (here: the recovered plaintext), so poke_plaintext/read_cipher work
  /// for both directions.
  bool decrypt = false;
};

[[nodiscard]] std::string generate_aes_asm(const Key& key,
                                           const Block& plaintext,
                                           const AesAsmOptions& options = {});

void poke_plaintext(assembler::Program& program, const Block& plaintext);
/// Bench and example API: no tool links it.
[[nodiscard]] Block read_cipher(const sim::DataMemory& memory,
                                const assembler::Program& program);

}  // namespace emask::aes
