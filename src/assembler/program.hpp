// Loadable program image produced by the assembler and consumed by the
// pipeline simulator and the compiler pass.
//
// The modeled machine is a Harvard-style embedded core (as in SimpleScalar's
// functional model): instruction memory is separate from data memory, the PC
// is an instruction index, and data addresses are byte addresses into a flat
// on-chip SRAM starting at kDataBase.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hpp"

namespace emask::assembler {

inline constexpr std::uint32_t kDataBase = 0x00010000;

/// One named object in the data segment.
///
/// `secret` records a programmer `.secret` annotation: the compiler uses
/// these symbols as the seeds of its forward slice (the paper's "annotated
/// critical variables").
///
/// `declassified` records a `.declassified` annotation: secret-derived data
/// stored here is considered public, so the stores need no secure version
/// and the region does not propagate taint.  This reproduces the paper's
/// treatment of the output inverse permutation: "this operation does not
/// need any secure instruction although it uses data generated from secure
/// instructions as it reveals only the information already available from
/// the output cipher" (Sec. 4.1).
struct DataSymbol {
  std::string name;
  std::uint32_t address = 0;     // absolute byte address
  std::uint32_t size_bytes = 0;  // extent up to the next label / end of data
  bool secret = false;
  bool declassified = false;
};

/// Maps an emitted instruction back to its source line (diagnostics, and the
/// compiler's report of which source operations were secured).
struct SourceLoc {
  int line = 0;  // 1-based line in the assembly source; 0 = synthesized
};

class Program {
 public:
  std::vector<isa::Instruction> text;
  std::vector<SourceLoc> text_locs;           // parallel to `text`
  std::vector<std::uint8_t> data;             // image based at kDataBase
  std::map<std::string, std::uint32_t> text_labels;  // label -> instr index
  std::vector<DataSymbol> symbols;
  /// Instruction index of the `fork` marker, if the source declared one.
  /// The marker is a retired no-op separating a shared input-independent
  /// prefix (e.g. the DES key schedule) from per-input work; simulator
  /// snapshots are taken at the cycle the marker retires (see
  /// sim::Snapshot).  At most one marker per program.
  std::optional<std::uint32_t> fork_point;

  /// Entry point: index of label "main" if present, else 0.
  [[nodiscard]] std::uint32_t entry() const;

  /// Looks up a data symbol by name.
  [[nodiscard]] const DataSymbol* find_symbol(const std::string& name) const;

  /// Initial 32-bit little-endian word at absolute byte address `addr`
  /// (must lie fully inside the data image).
  /// Bench and example API: no tool links it.
  [[nodiscard]] std::uint32_t initial_word(std::uint32_t addr) const;

  /// Overwrites a 32-bit word of the initial data image (used to plug a key
  /// or plaintext into an already assembled program between runs).
  void poke_word(std::uint32_t addr, std::uint32_t value);
};

}  // namespace emask::assembler
