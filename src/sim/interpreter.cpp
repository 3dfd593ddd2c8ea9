#include "sim/interpreter.hpp"

#include <stdexcept>
#include <string>

namespace emask::sim {

using isa::Instruction;
using isa::Opcode;

Interpreter::Interpreter(const assembler::Program& program)
    : program_(program), dmem_(program), pc_(program.entry()) {
  if (program_.text.empty()) {
    throw std::invalid_argument("Interpreter: empty program");
  }
}

bool Interpreter::step() {
  if (halted_) return false;
  if (pc_ >= program_.text.size()) {
    throw std::runtime_error("Interpreter: pc ran off the end of text at " +
                             std::to_string(pc_));
  }
  const Instruction& inst = program_.text[pc_];
  ++executed_;
  const auto rs = [&] { return regs_[inst.rs]; };
  const auto rt = [&] { return regs_[inst.rt]; };
  const auto write = [&](isa::Reg r, std::uint32_t v) {
    if (r != isa::kZero) regs_[r] = v;
  };
  const auto srs = [&] { return static_cast<std::int32_t>(rs()); };
  const auto srt = [&] { return static_cast<std::int32_t>(rt()); };
  const auto simm = inst.imm;
  const auto zimm = static_cast<std::uint32_t>(inst.imm) & 0xFFFFu;
  std::uint32_t next = pc_ + 1;

  switch (inst.op) {
    case Opcode::kAddu: write(inst.rd, rs() + rt()); break;
    case Opcode::kSubu: write(inst.rd, rs() - rt()); break;
    case Opcode::kAnd: write(inst.rd, rs() & rt()); break;
    case Opcode::kOr: write(inst.rd, rs() | rt()); break;
    case Opcode::kXor: write(inst.rd, rs() ^ rt()); break;
    case Opcode::kNor: write(inst.rd, ~(rs() | rt())); break;
    case Opcode::kSlt: write(inst.rd, srs() < srt() ? 1 : 0); break;
    case Opcode::kSltu: write(inst.rd, rs() < rt() ? 1 : 0); break;
    case Opcode::kSllv: write(inst.rd, rt() << (rs() & 31u)); break;
    case Opcode::kSrlv: write(inst.rd, rt() >> (rs() & 31u)); break;
    case Opcode::kSrav:
      write(inst.rd, static_cast<std::uint32_t>(srt() >> (rs() & 31u)));
      break;
    case Opcode::kSll: write(inst.rd, rt() << (simm & 31)); break;
    case Opcode::kSrl: write(inst.rd, rt() >> (simm & 31)); break;
    case Opcode::kSra:
      write(inst.rd, static_cast<std::uint32_t>(srt() >> (simm & 31)));
      break;
    case Opcode::kAddiu:
      write(inst.rt, rs() + static_cast<std::uint32_t>(simm));
      break;
    case Opcode::kAndi: write(inst.rt, rs() & zimm); break;
    case Opcode::kOri: write(inst.rt, rs() | zimm); break;
    case Opcode::kXori: write(inst.rt, rs() ^ zimm); break;
    case Opcode::kSlti: write(inst.rt, srs() < simm ? 1 : 0); break;
    case Opcode::kSltiu:
      write(inst.rt, rs() < static_cast<std::uint32_t>(simm) ? 1 : 0);
      break;
    case Opcode::kLui: write(inst.rt, zimm << 16); break;
    case Opcode::kLw:
      write(inst.rt,
            dmem_.load_word(rs() + static_cast<std::uint32_t>(simm)));
      break;
    case Opcode::kSw:
      dmem_.store_word(rs() + static_cast<std::uint32_t>(simm), rt());
      break;
    case Opcode::kBeq:
      if (rs() == rt()) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kBne:
      if (rs() != rt()) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kBlez:
      if (srs() <= 0) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kBgtz:
      if (srs() > 0) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kBltz:
      if (srs() < 0) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kBgez:
      if (srs() >= 0) next = pc_ + 1 + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kJ:
      next = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::kJal:
      write(isa::kRa, pc_ + 1);
      next = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::kJr:
      next = rs();
      break;
    case Opcode::kJalr:
      write(inst.rd, pc_ + 1);
      next = rs();
      break;
    case Opcode::kHalt:
      halted_ = true;
      return false;
  }
  pc_ = next;
  return true;
}

void Interpreter::run(std::uint64_t max_instructions) {
  // Budget boundary semantics (mirrored by sim::Pipeline's cycle budget):
  // the budget caps the *work before the machine commits to halting*.  A
  // program whose next instruction is the terminating halt completes even
  // when the budget is already spent — only a machine that is still doing
  // productive work past `max_instructions` is a runaway.
  while (step()) {
    const bool next_is_halt = pc_ < program_.text.size() &&
                              program_.text[pc_].op == isa::Opcode::kHalt;
    if (executed_ >= max_instructions && !next_is_halt) {
      throw std::runtime_error(
          "Interpreter: instruction budget exceeded (" +
          std::to_string(max_instructions) + " executed without halting)");
    }
  }
}

}  // namespace emask::sim
