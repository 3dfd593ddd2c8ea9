// Functional (non-pipelined) reference interpreter, a test oracle.
//
// Executes the ISA with simple architectural semantics — one instruction at
// a time, no hazards, no timing.  It serves as the differential oracle for
// the cycle-accurate pipeline: on any program, both must produce identical
// architectural state (registers + memory).  The test suite exercises this
// on random hazard-rich programs.
#pragma once

#include <array>
#include <cstdint>

#include "assembler/program.hpp"
#include "isa/registers.hpp"
#include "sim/memory.hpp"

namespace emask::sim {

class Interpreter {
 public:
  explicit Interpreter(const assembler::Program& program);

  /// Runs to halt.  Throws on runaway (instruction budget exceeded),
  /// invalid memory access, or pc leaving the text section.
  ///
  /// Budget boundary: a program that halts after executing exactly
  /// `max_instructions` succeeds — the budget-exceeded error fires only
  /// when the machine has spent its budget and is *not* about to halt
  /// (same drain-grace semantics as sim::Pipeline's cycle budget).
  void run(std::uint64_t max_instructions = 50'000'000);

  /// Executes a single instruction; returns false once halted.
  bool step();

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint64_t instructions() const { return executed_; }
  [[nodiscard]] std::uint32_t reg(isa::Reg r) const { return regs_[r]; }
  [[nodiscard]] const DataMemory& memory() const { return dmem_; }

 private:
  const assembler::Program& program_;
  DataMemory dmem_;
  std::array<std::uint32_t, isa::kNumRegisters> regs_{};
  std::uint32_t pc_;
  std::uint64_t executed_ = 0;
  bool halted_ = false;
};

}  // namespace emask::sim
