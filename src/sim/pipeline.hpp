// Cycle-accurate, in-order, five-stage pipeline (IF ID EX MEM WB).
//
// Matches the paper's target: "a simple five-stage pipelined smart card
// processor" (fetch, decode, execute, memory access, write back).
// Microarchitectural choices, documented here because they shape the cycle
// counts and the energy trace:
//
//   * full forwarding from EX/MEM and MEM/WB into EX;
//   * one-cycle load-use interlock;
//   * branches and jumps resolve in EX; a taken control transfer flushes
//     the two younger stages (2-cycle penalty); no delay slots;
//   * Harvard memories, both single-cycle (smart-card cores run cacheless
//     on-chip SRAM);
//   * pipeline registers are clock-gated on bubbles (no latch write, no
//     latch energy), and gated *extra* rails are only powered for secure
//     instructions — both noted in the paper as sources of savings.
//
// The simulator produces one energy::CycleActivity per clock; it never
// computes energy itself (SimplePower's split between performance model and
// energy back end).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "assembler/program.hpp"
#include "energy/activity.hpp"
#include "isa/instruction.hpp"
#include "sim/memory.hpp"

namespace emask::sim {

struct SimConfig {
  std::uint64_t max_cycles = 50'000'000;
  /// Gate register-file reads whose value will be superseded by forwarding
  /// (standard low-power operand isolation).  Also closes a side channel:
  /// without it, the stale architectural value of an overwritten register —
  /// possibly secret-derived — transits the ID/EX register under a
  /// non-secure instruction.  Disable only for the ablation experiment.
  bool operand_isolation = true;
};

struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  // retired
  std::uint64_t stalls = 0;        // load-use interlock bubbles
  std::uint64_t flushes = 0;       // taken control transfers (2 slots each)
  bool halted = false;

  [[nodiscard]] double cpi() const {
    return instructions ? static_cast<double>(cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
};

// Latched state between pipeline stages; `valid=false` is a bubble.  The
// instruction in flight is identified by its text index `pc`.  At namespace
// scope (rather than nested in Pipeline) so sim::Snapshot can carry them.
struct IfIdLatch {
  bool valid = false;
  std::uint32_t pc = 0;
};
struct IdExLatch {
  bool valid = false;
  std::uint32_t pc = 0;
  std::uint32_t a = 0;  // rs value (or rt for shift-by-immediate)
  std::uint32_t b = 0;  // rt value
};
struct ExMemLatch {
  bool valid = false;
  std::uint32_t pc = 0;
  std::uint32_t alu = 0;         // ALU result or memory address
  std::uint32_t store_data = 0;  // rt value for stores
};
struct MemWbLatch {
  bool valid = false;
  std::uint32_t pc = 0;
  std::uint32_t value = 0;  // value to write back
};

struct Snapshot;

/// One text instruction with everything Pipeline::step asks of it, resolved
/// once: the fetch word and the register, unit and flag lookups the stage,
/// hazard and forwarding logic would otherwise redo per cycle.
struct DecodedInstruction {
  std::uint64_t encoded = 0;  // 33-bit fetch word
  std::int32_t imm = 0;
  isa::Opcode op = isa::Opcode::kHalt;
  isa::FuncUnit unit = isa::FuncUnit::kNone;
  std::int8_t dest = -1;  // register written in WB, -1 = none
  std::int8_t src1 = -1;  // registers read in ID/EX, -1 = none
  std::int8_t src2 = -1;
  bool secure = false;
  bool is_load = false;
  bool is_store = false;
  bool is_halt = false;
  bool encodable = true;  // false: fetching it throws isa::encode's error
};

/// A program's text decoded for the pipeline, indexed by instruction index
/// (latch pc).  Immutable, so every Pipeline over the same text — a
/// device's cold and forked runs, on any thread — can share one.
using DecodedText = std::vector<DecodedInstruction>;

/// Decodes `program`'s text.  Never throws for an unencodable instruction:
/// that is an error only if it is ever fetched.  Throws
/// std::invalid_argument for an encodable one whose word decodes to a
/// different instruction (a register operand its format has no field for),
/// which would run one instruction and be priced as another.
[[nodiscard]] std::shared_ptr<const DecodedText> predecode(
    const assembler::Program& program);

class Pipeline {
 public:
  /// Decodes `program`'s text for this machine alone.
  explicit Pipeline(const assembler::Program& program, SimConfig config = {})
      : Pipeline(program, predecode(program), config) {}

  /// Runs `program` over `text`, which must be predecode() of the same
  /// text (checked by instruction count) — shared, so a caller that runs
  /// one program many times decodes it once.
  Pipeline(const assembler::Program& program,
           std::shared_ptr<const DecodedText> text, SimConfig config);

  /// Resumes a captured machine mid-run.  `program` must be the same text
  /// the snapshot was taken from (checked by instruction count); the data
  /// *image* may since have been poked only at addresses the pre-snapshot
  /// prefix never touched — forked runs poke fresh inputs into memory(),
  /// not into the program image.
  Pipeline(const assembler::Program& program, const Snapshot& snapshot)
      : Pipeline(program, predecode(program), snapshot) {}

  /// Resumes a captured machine over a shared decoded `text`, as above.
  Pipeline(const assembler::Program& program,
           std::shared_ptr<const DecodedText> text, const Snapshot& snapshot);

  /// Advances one clock.  Sets `activity`'s flags for what happened and
  /// the payloads those flags gate; payloads under a clear flag keep stale
  /// values (see CycleActivity).  Returns false once the machine has
  /// halted (every flag is then clear).
  bool step(energy::CycleActivity& activity);

  /// Runs to halt (or the cycle limit, which throws).  Invokes
  /// `on_cycle(activity)` after every clock if provided.
  ///
  /// Budget boundary (mirrors Interpreter::run): a program that halts in
  /// exactly `max_cycles` cycles succeeds, and once the halt instruction
  /// has been fetched on the correct path the pipeline is allowed to drain
  /// (a bounded handful of cycles) even if that crosses the limit — the
  /// budget error means "still doing productive work past the limit", not
  /// "finished a cycle too late".
  template <typename OnCycle>
  SimResult run(OnCycle&& on_cycle) {
    energy::CycleActivity activity;
    while (!halted_) {
      if (cycles_ >= config_.max_cycles && !halt_seen_) {
        throw std::runtime_error("Pipeline: cycle limit exceeded");
      }
      step(activity);
      on_cycle(activity);
    }
    return result();
  }

  /// run() without a callback.  Bench and example API: no tool links it.
  SimResult run();

  /// Captures the complete machine state — registers, PC, the four
  /// inter-stage latches, cycle/retire/stall/flush counters, halt flags,
  /// and the data memory (shared copy-on-write, see
  /// DataMemory) — so an identical Pipeline can be re-created later with
  /// the restore constructor and stepped on bit-identically.
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] SimResult result() const {
    return SimResult{cycles_, retired_, stalls_, flushes_, halted_};
  }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint32_t reg(isa::Reg r) const { return regs_[r]; }
  [[nodiscard]] const DataMemory& memory() const { return dmem_; }
  [[nodiscard]] DataMemory& memory() { return dmem_; }

 private:
  using IfId = IfIdLatch;
  using IdEx = IdExLatch;
  using ExMem = ExMemLatch;
  using MemWb = MemWbLatch;

  using Decoded = DecodedInstruction;

  [[nodiscard]] std::uint32_t forwarded(int r, std::uint32_t id_value) const;

  const assembler::Program& program_;
  std::shared_ptr<const DecodedText> decoded_;  // keeps text_ alive
  std::span<const Decoded> text_;               // *decoded_, for step()
  SimConfig config_;
  DataMemory dmem_;

  std::array<std::uint32_t, isa::kNumRegisters> regs_{};
  std::uint32_t pc_;
  IfId if_id_;
  IdEx id_ex_;
  ExMem ex_mem_;
  MemWb mem_wb_;

  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t flushes_ = 0;
  bool halted_ = false;
  bool halt_seen_ = false;  // a halt is in flight; stop fetching
};

/// Full machine state captured mid-run (see Pipeline::snapshot()).
///
/// The intended use is shared-prefix trace forking: run the machine once to
/// a program-declared fork point (Program::fork_point — the `fork` marker
/// the DES generator places between the key schedule and the first
/// plaintext use), snapshot, then fork N per-input runs from the snapshot
/// instead of re-simulating the identical prefix N times.  Because the
/// snapshot carries *everything* the step function reads — including the
/// in-flight latches and the microarchitectural counters — a restored
/// Pipeline steps bit-identically to the original from the capture cycle
/// on.  Memory is held copy-on-write, so a snapshot shared read-only
/// across worker threads hands out forks at page granularity.
struct Snapshot {
  SimConfig config;
  DataMemory memory;
  std::array<std::uint32_t, isa::kNumRegisters> regs{};
  std::uint32_t pc = 0;
  IfIdLatch if_id;
  IdExLatch id_ex;
  ExMemLatch ex_mem;
  MemWbLatch mem_wb;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t stalls = 0;
  std::uint64_t flushes = 0;
  bool halted = false;
  bool halt_seen = false;
  std::size_t text_size = 0;  // sanity check against the restoring program
};

}  // namespace emask::sim
