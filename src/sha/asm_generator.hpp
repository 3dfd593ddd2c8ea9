// Generates a SHA-1 compression-function program in the target assembly
// language: the "other algorithms" workload for the masking framework.
//
// The program absorbs one 512-bit block into the FIPS initial state.  With
// `secret_message` set, the block is annotated `.secret` — the prefix-key
// MAC setting, where the absorbed block contains key material — and the
// compiler's forward slice must cover the whole 80-round computation.
// Unlike DES (bit-per-word, table-driven), SHA-1 is a word-level kernel
// with rotates and the Ch/Maj logic functions, exercising the secure
// and/nor instructions that DES never needs.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "assembler/program.hpp"

namespace emask::sha {

struct Sha1AsmOptions {
  bool secret_message = true;  // emit `.secret msg`
};

[[nodiscard]] std::string generate_sha1_asm(
    const std::array<std::uint32_t, 16>& block,
    const Sha1AsmOptions& options = {});

/// Replaces the 16 message words in an assembled program image.
void poke_message(assembler::Program& program,
                  const std::array<std::uint32_t, 16>& block);

}  // namespace emask::sha
