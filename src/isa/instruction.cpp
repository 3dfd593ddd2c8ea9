#include "isa/instruction.hpp"

#include <sstream>

namespace emask::isa {

std::optional<Reg> Instruction::dest() const {
  const OpcodeInfo& i = info(op);
  if (!i.writes_rd) return std::nullopt;
  Reg d;
  switch (i.format) {
    case Format::kRegister:
    case Format::kShiftImm:
      d = rd;
      break;
    case Format::kImmediate:
    case Format::kLoadStore:
      d = rt;
      break;
    case Format::kJump:  // jal
      d = kRa;
      break;
    case Format::kJumpReg:  // jalr
      d = rd;
      break;
    default:
      return std::nullopt;
  }
  if (d == kZero) return std::nullopt;
  return d;
}

std::optional<Reg> Instruction::src1() const {
  switch (info(op).format) {
    case Format::kRegister:
    case Format::kImmediate:
    case Format::kLoadStore:
    case Format::kBranch:
    case Format::kJumpReg:
      return rs;
    case Format::kShiftImm:
      return rt;  // shift-by-immediate reads rt
    default:
      return std::nullopt;
  }
}

std::optional<Reg> Instruction::src2() const {
  const OpcodeInfo& i = info(op);
  switch (i.format) {
    case Format::kRegister:
      return rt;
    case Format::kLoadStore:
      return i.is_store ? std::optional<Reg>(rt) : std::nullopt;
    case Format::kBranch:
      // blez/bgtz/bltz/bgez compare one register against zero.
      return (op == Opcode::kBeq || op == Opcode::kBne)
                 ? std::optional<Reg>(rt)
                 : std::nullopt;
    default:
      return std::nullopt;
  }
}

std::string Instruction::to_string() const {
  const OpcodeInfo& i = info(op);
  std::ostringstream os;
  if (secure) os << 's';
  os << i.mnemonic << ' ';
  switch (i.format) {
    case Format::kRegister:
      // Variable shifts use MIPS operand order "rd, rt, rs" (value first,
      // then shift amount) — matching what the assembler parses.
      if (op == Opcode::kSllv || op == Opcode::kSrlv || op == Opcode::kSrav) {
        os << reg_name(rd) << ',' << reg_name(rt) << ',' << reg_name(rs);
      } else {
        os << reg_name(rd) << ',' << reg_name(rs) << ',' << reg_name(rt);
      }
      break;
    case Format::kShiftImm:
      os << reg_name(rd) << ',' << reg_name(rt) << ',' << imm;
      break;
    case Format::kImmediate:
      if (op == Opcode::kLui) {
        os << reg_name(rt) << ',' << imm;
      } else {
        os << reg_name(rt) << ',' << reg_name(rs) << ',' << imm;
      }
      break;
    case Format::kLoadStore:
      os << reg_name(rt) << ',' << imm << '(' << reg_name(rs) << ')';
      break;
    case Format::kBranch:
      if (op == Opcode::kBeq || op == Opcode::kBne) {
        os << reg_name(rs) << ',' << reg_name(rt) << ',' << imm;
      } else {
        os << reg_name(rs) << ',' << imm;
      }
      break;
    case Format::kJump:
      os << imm;
      break;
    case Format::kJumpReg:
      if (op == Opcode::kJalr) {
        os << reg_name(rd) << ',' << reg_name(rs);
      } else {
        os << reg_name(rs);
      }
      break;
    case Format::kNullary:
      break;
  }
  return os.str();
}

Instruction make_rtype(Opcode op, Reg rd, Reg rs, Reg rt, bool secure) {
  return Instruction{op, rd, rs, rt, 0, secure};
}

Instruction make_shift(Opcode op, Reg rd, Reg rt, int shamt, bool secure) {
  return Instruction{op, rd, 0, rt, shamt, secure};
}

Instruction make_itype(Opcode op, Reg rt, Reg rs, std::int32_t imm,
                       bool secure) {
  return Instruction{op, 0, rs, rt, imm, secure};
}

Instruction make_loadstore(Opcode op, Reg rt, std::int32_t off, Reg base,
                           bool secure) {
  return Instruction{op, 0, base, rt, off, secure};
}

Instruction make_branch(Opcode op, Reg rs, Reg rt, std::int32_t rel_words) {
  return Instruction{op, 0, rs, rt, rel_words, false};
}

Instruction make_jump(Opcode op, std::int32_t target_index) {
  return Instruction{op, 0, 0, 0, target_index, false};
}

Instruction make_nop() { return make_shift(Opcode::kSll, 0, 0, 0); }

}  // namespace emask::isa
