// Decoded instruction representation shared by the assembler, the compiler
// pass and the pipeline simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "isa/opcode.hpp"
#include "isa/registers.hpp"

namespace emask::isa {

/// One decoded instruction.  All label references have already been resolved
/// by the assembler: branch targets are *word* offsets relative to the next
/// instruction (MIPS-style), jump targets are absolute instruction indices.
struct Instruction {
  Opcode op = Opcode::kHalt;
  Reg rd = 0;          // destination (R-type) / link register (jalr)
  Reg rs = 0;          // first source / base address / jump register
  Reg rt = 0;          // second source / load-store data register
  std::int32_t imm = 0;  // imm16 (sign interpreted per opcode), shamt, or target
  bool secure = false;   // the paper's secure bit

  /// Destination register written in WB, if any ($zero writes discarded).
  [[nodiscard]] std::optional<Reg> dest() const;

  /// First source register read in ID/EX, if any.
  [[nodiscard]] std::optional<Reg> src1() const;

  /// Second source register read in ID/EX, if any.
  [[nodiscard]] std::optional<Reg> src2() const;

  /// Assembly rendering, secure instructions get the "s" prefix the paper
  /// uses in Fig. 4 (e.g. "slw $3,0($4)").
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Instruction&) const = default;
};

/// Convenience constructors (used by tests, code generators and the
/// assembler's pseudo-instruction expansion).
[[nodiscard]] Instruction make_rtype(Opcode op, Reg rd, Reg rs, Reg rt,
                                     bool secure = false);
[[nodiscard]] Instruction make_shift(Opcode op, Reg rd, Reg rt, int shamt,
                                     bool secure = false);
[[nodiscard]] Instruction make_itype(Opcode op, Reg rt, Reg rs,
                                     std::int32_t imm, bool secure = false);
[[nodiscard]] Instruction make_loadstore(Opcode op, Reg rt, std::int32_t off,
                                         Reg base, bool secure = false);
[[nodiscard]] Instruction make_branch(Opcode op, Reg rs, Reg rt,
                                      std::int32_t rel_words);
[[nodiscard]] Instruction make_jump(Opcode op, std::int32_t target_index);
[[nodiscard]] Instruction make_nop();

}  // namespace emask::isa
