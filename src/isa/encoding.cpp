#include "isa/encoding.hpp"

#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace emask::isa {
namespace {

// MIPS-I primary opcodes and SPECIAL functs for the implemented subset.
constexpr std::uint32_t kSpecial = 0x00;
constexpr std::uint32_t kRegimm = 0x01;
constexpr std::uint32_t kHaltPrimary = 0x3F;  // reserved slot in MIPS-I

struct MipsSlot {
  std::uint32_t primary;
  std::uint32_t funct;  // only meaningful when primary == kSpecial
  std::uint32_t regimm_rt;  // only meaningful when primary == kRegimm
};

MipsSlot slot_of(Opcode op) {
  switch (op) {
    case Opcode::kAddu:  return {kSpecial, 0x21, 0};
    case Opcode::kSubu:  return {kSpecial, 0x23, 0};
    case Opcode::kAnd:   return {kSpecial, 0x24, 0};
    case Opcode::kOr:    return {kSpecial, 0x25, 0};
    case Opcode::kXor:   return {kSpecial, 0x26, 0};
    case Opcode::kNor:   return {kSpecial, 0x27, 0};
    case Opcode::kSlt:   return {kSpecial, 0x2A, 0};
    case Opcode::kSltu:  return {kSpecial, 0x2B, 0};
    case Opcode::kSllv:  return {kSpecial, 0x04, 0};
    case Opcode::kSrlv:  return {kSpecial, 0x06, 0};
    case Opcode::kSrav:  return {kSpecial, 0x07, 0};
    case Opcode::kSll:   return {kSpecial, 0x00, 0};
    case Opcode::kSrl:   return {kSpecial, 0x02, 0};
    case Opcode::kSra:   return {kSpecial, 0x03, 0};
    case Opcode::kJr:    return {kSpecial, 0x08, 0};
    case Opcode::kJalr:  return {kSpecial, 0x09, 0};
    case Opcode::kAddiu: return {0x09, 0, 0};
    case Opcode::kSlti:  return {0x0A, 0, 0};
    case Opcode::kSltiu: return {0x0B, 0, 0};
    case Opcode::kAndi:  return {0x0C, 0, 0};
    case Opcode::kOri:   return {0x0D, 0, 0};
    case Opcode::kXori:  return {0x0E, 0, 0};
    case Opcode::kLui:   return {0x0F, 0, 0};
    case Opcode::kLw:    return {0x23, 0, 0};
    case Opcode::kSw:    return {0x2B, 0, 0};
    case Opcode::kBeq:   return {0x04, 0, 0};
    case Opcode::kBne:   return {0x05, 0, 0};
    case Opcode::kBlez:  return {0x06, 0, 0};
    case Opcode::kBgtz:  return {0x07, 0, 0};
    case Opcode::kBltz:  return {kRegimm, 0, 0x00};
    case Opcode::kBgez:  return {kRegimm, 0, 0x01};
    case Opcode::kJ:     return {0x02, 0, 0};
    case Opcode::kJal:   return {0x03, 0, 0};
    case Opcode::kHalt:  return {kHaltPrimary, 0, 0};
  }
  throw std::invalid_argument("slot_of: bad opcode");
}

/// A 16-bit field holds exactly what decode gives back: [-32768, 32767]
/// where it decodes sign-extended, [0, 65535] where zero-extended.
void require_imm16(std::int32_t imm, const char* what,
                   bool zero_extended = false) {
  const std::int32_t min = zero_extended ? 0 : -32768;
  const std::int32_t max = zero_extended ? 65535 : 32767;
  if (imm < min || imm > max) {
    throw std::invalid_argument(
        std::string(what) + ": immediate out of " +
        (zero_extended ? "unsigned " : "") + "16-bit range: " +
        std::to_string(imm));
  }
}

/// andi/ori/xori/lui decode their immediate zero-extended.
bool decodes_zero_extended(Opcode op) {
  return op == Opcode::kAndi || op == Opcode::kOri || op == Opcode::kXori ||
         op == Opcode::kLui;
}

/// Formats without an immediate field encode only imm == 0.
void require_no_imm(const Instruction& inst) {
  if (inst.imm != 0) {
    throw std::invalid_argument("encode: " + std::string(mnemonic(inst.op)) +
                                " has no immediate field: " +
                                std::to_string(inst.imm));
  }
}

std::uint32_t field_imm16(std::int32_t imm) {
  return static_cast<std::uint32_t>(imm) & 0xFFFFu;
}

}  // namespace

EncodedWord encode(const Instruction& inst) {
  const MipsSlot slot = slot_of(inst.op);
  const OpcodeInfo& oi = info(inst.op);
  std::uint32_t word = slot.primary << 26;
  switch (oi.format) {
    case Format::kRegister:
      require_no_imm(inst);
      word |= (std::uint32_t{inst.rs} << 21) | (std::uint32_t{inst.rt} << 16) |
              (std::uint32_t{inst.rd} << 11) | slot.funct;
      break;
    case Format::kShiftImm:
      if (inst.imm < 0 || inst.imm > 31) {
        throw std::invalid_argument("encode: shamt out of range");
      }
      word |= (std::uint32_t{inst.rt} << 16) | (std::uint32_t{inst.rd} << 11) |
              (static_cast<std::uint32_t>(inst.imm) << 6) | slot.funct;
      break;
    case Format::kImmediate:
    case Format::kLoadStore:
      require_imm16(inst.imm, "encode", decodes_zero_extended(inst.op));
      word |= (std::uint32_t{inst.rs} << 21) | (std::uint32_t{inst.rt} << 16) |
              field_imm16(inst.imm);
      break;
    case Format::kBranch:
      require_imm16(inst.imm, "encode branch");
      if (slot.primary == kRegimm) {
        word |= (std::uint32_t{inst.rs} << 21) | (slot.regimm_rt << 16) |
                field_imm16(inst.imm);
      } else {
        word |= (std::uint32_t{inst.rs} << 21) |
                (std::uint32_t{inst.rt} << 16) | field_imm16(inst.imm);
      }
      break;
    case Format::kJump:
      if (inst.imm < 0 || inst.imm >= (1 << 26)) {
        throw std::invalid_argument("encode: jump target out of range");
      }
      word |= static_cast<std::uint32_t>(inst.imm);
      break;
    case Format::kJumpReg:
      require_no_imm(inst);
      word |= (std::uint32_t{inst.rs} << 21) | (std::uint32_t{inst.rd} << 11) |
              slot.funct;
      break;
    case Format::kNullary:
      require_no_imm(inst);
      break;
  }
  EncodedWord out = word;
  if (inst.secure) out |= kSecureBit;
  return out;
}

Instruction decode(EncodedWord encoded) {
  const bool secure = (encoded & kSecureBit) != 0;
  const auto word = static_cast<std::uint32_t>(encoded & 0xFFFFFFFFu);
  const std::uint32_t primary = word >> 26;
  const auto rs = static_cast<Reg>((word >> 21) & 31u);
  const auto rt = static_cast<Reg>((word >> 16) & 31u);
  const auto rd = static_cast<Reg>((word >> 11) & 31u);
  const auto shamt = static_cast<std::int32_t>((word >> 6) & 31u);
  const auto imm16s =
      static_cast<std::int32_t>(static_cast<std::int16_t>(word & 0xFFFFu));
  const std::uint32_t funct = word & 0x3Fu;

  auto bad = [&] {
    return std::invalid_argument("decode: unimplemented encoding 0x" +
                                 std::to_string(word));
  };

  if (primary == kSpecial) {
    Opcode op;
    switch (funct) {
      case 0x21: op = Opcode::kAddu; break;
      case 0x23: op = Opcode::kSubu; break;
      case 0x24: op = Opcode::kAnd; break;
      case 0x25: op = Opcode::kOr; break;
      case 0x26: op = Opcode::kXor; break;
      case 0x27: op = Opcode::kNor; break;
      case 0x2A: op = Opcode::kSlt; break;
      case 0x2B: op = Opcode::kSltu; break;
      case 0x04: op = Opcode::kSllv; break;
      case 0x06: op = Opcode::kSrlv; break;
      case 0x07: op = Opcode::kSrav; break;
      case 0x00: op = Opcode::kSll; break;
      case 0x02: op = Opcode::kSrl; break;
      case 0x03: op = Opcode::kSra; break;
      case 0x08: op = Opcode::kJr; break;
      case 0x09: op = Opcode::kJalr; break;
      default: throw bad();
    }
    const Format f = info(op).format;
    if (f == Format::kShiftImm) return Instruction{op, rd, 0, rt, shamt, secure};
    if (f == Format::kJumpReg) return Instruction{op, rd, rs, 0, 0, secure};
    return Instruction{op, rd, rs, rt, 0, secure};
  }
  if (primary == kRegimm) {
    const std::uint32_t sel = (word >> 16) & 31u;
    if (sel == 0x00) return Instruction{Opcode::kBltz, 0, rs, 0, imm16s, secure};
    if (sel == 0x01) return Instruction{Opcode::kBgez, 0, rs, 0, imm16s, secure};
    throw bad();
  }
  switch (primary) {
    case 0x09: return Instruction{Opcode::kAddiu, 0, rs, rt, imm16s, secure};
    case 0x0A: return Instruction{Opcode::kSlti, 0, rs, rt, imm16s, secure};
    case 0x0B: return Instruction{Opcode::kSltiu, 0, rs, rt, imm16s, secure};
    case 0x0C:
      return Instruction{Opcode::kAndi, 0, rs, rt,
                         static_cast<std::int32_t>(word & 0xFFFFu), secure};
    case 0x0D:
      return Instruction{Opcode::kOri, 0, rs, rt,
                         static_cast<std::int32_t>(word & 0xFFFFu), secure};
    case 0x0E:
      return Instruction{Opcode::kXori, 0, rs, rt,
                         static_cast<std::int32_t>(word & 0xFFFFu), secure};
    case 0x0F:
      return Instruction{Opcode::kLui, 0, 0, rt,
                         static_cast<std::int32_t>(word & 0xFFFFu), secure};
    case 0x23: return Instruction{Opcode::kLw, 0, rs, rt, imm16s, secure};
    case 0x2B: return Instruction{Opcode::kSw, 0, rs, rt, imm16s, secure};
    case 0x04: return Instruction{Opcode::kBeq, 0, rs, rt, imm16s, secure};
    case 0x05: return Instruction{Opcode::kBne, 0, rs, rt, imm16s, secure};
    case 0x06: return Instruction{Opcode::kBlez, 0, rs, 0, imm16s, secure};
    case 0x07: return Instruction{Opcode::kBgtz, 0, rs, 0, imm16s, secure};
    case 0x02:
      return Instruction{Opcode::kJ, 0, 0, 0,
                         static_cast<std::int32_t>(word & 0x03FFFFFFu), secure};
    case 0x03:
      return Instruction{Opcode::kJal, 0, 0, 0,
                         static_cast<std::int32_t>(word & 0x03FFFFFFu), secure};
    case kHaltPrimary: return Instruction{Opcode::kHalt, 0, 0, 0, 0, secure};
    default: throw bad();
  }
}

}  // namespace emask::isa
