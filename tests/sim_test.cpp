// Cycle-accurate pipeline: ISA semantics, hazards, forwarding, timing.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "assembler/assembler.hpp"
#include "sim/interpreter.hpp"
#include "sim/pipeline.hpp"

namespace emask::sim {
namespace {

Pipeline run_program(const std::string& src) {
  static std::map<std::string, assembler::Program> cache;
  auto [it, inserted] = cache.try_emplace(src);
  if (inserted) it->second = assembler::assemble(src);
  Pipeline p(it->second);
  p.run();
  return p;
}

TEST(Pipeline, ArithmeticSemantics) {
  const Pipeline p = run_program(R"(
main:
  li $t0, 7
  li $t1, -3
  addu $t2, $t0, $t1
  subu $t3, $t0, $t1
  and  $t4, $t0, $t1
  or   $t5, $t0, $t1
  xor  $t6, $t0, $t1
  nor  $t7, $t0, $t1
  slt  $s0, $t1, $t0
  sltu $s1, $t1, $t0
  halt
)");
  EXPECT_EQ(p.reg(10), 4u);
  EXPECT_EQ(p.reg(11), 10u);
  EXPECT_EQ(p.reg(12), 7u & 0xFFFFFFFDu);
  EXPECT_EQ(p.reg(13), 0xFFFFFFFFu);
  EXPECT_EQ(p.reg(14), 0xFFFFFFFAu);
  EXPECT_EQ(p.reg(15), 0u);
  EXPECT_EQ(p.reg(16), 1u);   // -3 < 7 signed
  EXPECT_EQ(p.reg(17), 0u);   // 0xFFFFFFFD > 7 unsigned
}

TEST(Pipeline, ShiftSemantics) {
  const Pipeline p = run_program(R"(
main:
  li $t0, 0x80000000
  li $t1, 4
  srl  $t2, $t0, 4
  sra  $t3, $t0, 4
  sll  $t4, $t1, 2
  srlv $t5, $t0, $t1
  srav $t6, $t0, $t1
  sllv $t7, $t1, $t1
  halt
)");
  EXPECT_EQ(p.reg(10), 0x08000000u);
  EXPECT_EQ(p.reg(11), 0xF8000000u);
  EXPECT_EQ(p.reg(12), 16u);
  EXPECT_EQ(p.reg(13), 0x08000000u);
  EXPECT_EQ(p.reg(14), 0xF8000000u);
  EXPECT_EQ(p.reg(15), 64u);
}

TEST(Pipeline, ImmediateLogicalZeroExtends) {
  const Pipeline p = run_program(R"(
main:
  li   $t0, -1
  andi $t1, $t0, 0xff00
  ori  $t2, $zero, 0x8000
  xori $t3, $t0, 0xffff
  sltiu $t4, $t0, 10
  slti  $t5, $t0, 10
  halt
)");
  EXPECT_EQ(p.reg(9), 0xFF00u);
  EXPECT_EQ(p.reg(10), 0x8000u);
  EXPECT_EQ(p.reg(11), 0xFFFF0000u);
  EXPECT_EQ(p.reg(12), 0u);  // 0xFFFFFFFF not < 10 unsigned
  EXPECT_EQ(p.reg(13), 1u);  // -1 < 10 signed
}

TEST(Pipeline, ZeroRegisterIsImmutable) {
  const Pipeline p = run_program(R"(
main:
  li $zero, 55
  addu $t0, $zero, $zero
  halt
)");
  EXPECT_EQ(p.reg(0), 0u);
  EXPECT_EQ(p.reg(8), 0u);
}

TEST(Pipeline, ForwardingBackToBackDependencies) {
  const Pipeline p = run_program(R"(
main:
  li $t0, 1
  addu $t1, $t0, $t0
  addu $t2, $t1, $t1
  addu $t3, $t2, $t1
  halt
)");
  EXPECT_EQ(p.reg(9), 2u);
  EXPECT_EQ(p.reg(10), 4u);
  EXPECT_EQ(p.reg(11), 6u);
}

TEST(Pipeline, MemoryRoundTripAndLoadUse) {
  const Pipeline p = run_program(R"(
.data
buf: .space 16
.text
main:
  la $t0, buf
  li $t1, 1234
  sw $t1, 4($t0)
  lw $t2, 4($t0)
  addu $t3, $t2, $t2
  halt
)");
  EXPECT_EQ(p.reg(10), 1234u);
  EXPECT_EQ(p.reg(11), 2468u);
  EXPECT_EQ(p.memory().load_word(assembler::kDataBase + 4), 1234u);
}

TEST(Pipeline, LoadUseInterlockCostsOneCycle) {
  // Same instruction count; the dependent version takes exactly one more
  // cycle (the load-use bubble).
  const std::string dependent = R"(
.data
buf: .word 5
.text
main:
  la $t0, buf
  lw $t1, 0($t0)
  addu $t2, $t1, $t1
  halt
)";
  const std::string independent = R"(
.data
buf: .word 5
.text
main:
  la $t0, buf
  lw $t1, 0($t0)
  addu $t2, $t0, $t0
  halt
)";
  const Pipeline a = run_program(dependent);
  const Pipeline b = run_program(independent);
  EXPECT_EQ(a.result().cycles, b.result().cycles + 1);
  EXPECT_EQ(a.reg(10), 10u);
}

TEST(Pipeline, StraightLineTimingIsDepthPlusInstructions) {
  // k independent instructions retire in k + 4 cycles on a 5-stage pipe.
  const Pipeline p = run_program(R"(
main:
  li $t0, 1
  li $t1, 2
  li $t2, 3
  li $t3, 4
  li $t4, 5
  halt
)");
  EXPECT_EQ(p.result().cycles, 6u + 4u);
  EXPECT_EQ(p.result().instructions, 6u);
}

TEST(Pipeline, TakenBranchCostsTwoCycles) {
  // Branch resolved in EX: 2 squashed slots on taken, 0 on fall-through.
  const std::string taken = R"(
main:
  li $t0, 1
  beq $t0, $t0, skip
  nop
  nop
skip:
  halt
)";
  const std::string not_taken = R"(
main:
  li $t0, 1
  bne $t0, $t0, skip
  nop
  nop
skip:
  halt
)";
  // Taken: li, beq, halt retire (3); not taken: 5 instructions retire.
  const Pipeline a = run_program(taken);
  const Pipeline b = run_program(not_taken);
  EXPECT_EQ(a.result().instructions, 3u);
  EXPECT_EQ(b.result().instructions, 5u);
  // cycles: taken = 3 + 4 + 2 (flush) = 9; not taken = 5 + 4 = 9.
  EXPECT_EQ(a.result().cycles, 9u);
  EXPECT_EQ(b.result().cycles, 9u);
}

TEST(Pipeline, BranchVariants) {
  const Pipeline p = run_program(R"(
main:
  li $t0, -5
  li $t1, 0
  li $t7, 0
  bltz $t0, a
  halt
a:
  addiu $t7, $t7, 1
  bgez $t1, b
  halt
b:
  addiu $t7, $t7, 1
  blez $t1, c
  halt
c:
  addiu $t7, $t7, 1
  bgtz $t0, bad
  addiu $t7, $t7, 1
  halt
bad:
  li $t7, 99
  halt
)");
  EXPECT_EQ(p.reg(15), 4u);
}

TEST(Pipeline, LoopAccumulates) {
  const Pipeline p = run_program(R"(
main:
  li $t0, 0
  li $t1, 0
  li $t2, 10
loop:
  addu $t1, $t1, $t0
  addiu $t0, $t0, 1
  bne $t0, $t2, loop
  halt
)");
  EXPECT_EQ(p.reg(9), 45u);
}

TEST(Pipeline, JalAndJrImplementCalls) {
  const Pipeline p = run_program(R"(
main:
  li $a0, 20
  jal double
  move $s0, $v0
  jal double
  move $s1, $v0
  halt
double:
  addu $v0, $a0, $a0
  move $a0, $v0
  jr $ra
)");
  EXPECT_EQ(p.reg(16), 40u);
  EXPECT_EQ(p.reg(17), 80u);
}

TEST(Pipeline, RunsOffTextEndThrows) {
  assembler::Program prog = assembler::assemble("main:\n  nop\n  nop\n");
  Pipeline p(prog);
  EXPECT_THROW(p.run(), std::runtime_error);
}

TEST(Pipeline, UnalignedAccessThrows) {
  assembler::Program prog = assembler::assemble(R"(
.data
b: .word 1
.text
main:
  la $t0, b
  lw $t1, 2($t0)
  halt
)");
  Pipeline p(prog);
  EXPECT_THROW(p.run(), std::runtime_error);
}

TEST(Pipeline, OutOfRangeAccessThrows) {
  assembler::Program prog = assembler::assemble(R"(
main:
  lw $t1, 0($zero)
  halt
)");
  Pipeline p(prog);
  EXPECT_THROW(p.run(), std::runtime_error);
}

TEST(Pipeline, CycleLimitEnforced) {
  assembler::Program prog = assembler::assemble("main:\n  b main\n  halt\n");
  SimConfig cfg;
  cfg.max_cycles = 1000;
  Pipeline p(prog, cfg);
  EXPECT_THROW(p.run(), std::runtime_error);
}

TEST(Pipeline, EmptyProgramRejected) {
  assembler::Program prog;  // no instructions
  EXPECT_THROW(Pipeline{prog}, std::invalid_argument);
}

// The pipeline encodes its text once, up front, but an instruction that
// cannot be encoded is an error only when it is fetched.
TEST(Pipeline, UnencodableInstructionThrowsOnlyWhenFetched) {
  const isa::Instruction bad =
      isa::make_shift(isa::Opcode::kSll, 8, 8, /*shamt=*/40);
  assembler::Program after_halt =
      assembler::assemble("main:\n  li $t0, 1\n  halt\n");
  after_halt.text.push_back(bad);
  Pipeline never_fetched(after_halt);
  EXPECT_TRUE(never_fetched.run().halted);
  EXPECT_EQ(never_fetched.reg(8), 1u);

  assembler::Program before_halt =
      assembler::assemble("main:\n  li $t0, 1\n  halt\n");
  before_halt.text.insert(before_halt.text.begin() + 1, bad);
  Pipeline fetched(before_halt);
  try {
    fetched.run();
    ADD_FAILURE() << "fetching an unencodable instruction must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "encode: shamt out of range");
  }
}

// ---- Data memory: paging, the shared zero page, access checks ----

std::string access_error(const std::function<void()>& access) {
  try {
    access();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(DataMemory, FreshMemoriesShareUntouchedPages) {
  const assembler::Program prog = assembler::assemble("main:\n  halt\n");
  const DataMemory a(prog);
  const DataMemory b(prog);
  for (const std::uint32_t off : {0u, 4096u, 8192u, (1u << 20) - 4}) {
    EXPECT_TRUE(a.shares_page_with(b, a.base() + off)) << off;
    EXPECT_EQ(a.load_word(a.base() + off), 0u) << off;
  }
}

TEST(DataMemory, StoreIntoZeroPageClonesIt) {
  const assembler::Program prog = assembler::assemble("main:\n  halt\n");
  DataMemory a(prog);
  const DataMemory b(prog);
  const std::uint32_t addr = a.base() + 8192 + 12;
  a.store_word(addr, 0xDEADBEEFu);
  EXPECT_FALSE(a.shares_page_with(b, addr));
  EXPECT_TRUE(a.shares_page_with(b, a.base() + 4096));
  EXPECT_EQ(a.load_word(addr), 0xDEADBEEFu);
  EXPECT_EQ(a.load_word(addr + 4), 0u);
  EXPECT_EQ(b.load_word(addr), 0u);
  // The shared page itself was never written: a later memory reads zero.
  EXPECT_EQ(DataMemory(prog).load_word(addr), 0u);
}

TEST(DataMemory, ImageAcrossPagesAndPartialLastPageLoadBackExactly) {
  assembler::Program prog = assembler::assemble("main:\n  halt\n");
  prog.data.resize(6000);  // crosses the 4 KiB page boundary
  for (std::size_t i = 0; i < prog.data.size(); ++i) {
    prog.data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::size_t size = 10002;  // neither a page nor a word multiple
  const DataMemory m(prog, size);
  EXPECT_EQ(m.size(), size);
  for (std::uint32_t off = 0; off + 4 <= size; off += 4) {
    std::uint32_t want = 0;
    for (std::uint32_t k = 0; k < 4; ++k) {
      if (off + k < prog.data.size()) {
        want |= std::uint32_t{prog.data[off + k]} << (8 * k);
      }
    }
    ASSERT_EQ(m.load_word(m.base() + off), want) << "offset " << off;
  }
  prog.data.resize(size + 1);
  EXPECT_THROW(DataMemory(prog, size), std::invalid_argument);
}

TEST(DataMemory, BadAccessesKeepTheirMessages) {
  const assembler::Program prog = assembler::assemble("main:\n  halt\n");
  DataMemory m(prog, 10002);
  const std::uint32_t base = m.base();
  EXPECT_EQ(access_error([&] { (void)m.load_word(base + 2); }),
            "DataMemory: unaligned 4-byte word access at 0x00010002");
  EXPECT_EQ(access_error([&] { m.store_word(base + 6, 1); }),
            "DataMemory: unaligned 4-byte word access at 0x00010006");
  const std::string range = " (valid range [0x00010000, 0x00012712))";
  EXPECT_EQ(access_error([&] { (void)m.load_word(base + 10000); }),
            "DataMemory: 4-byte access outside memory at 0x00012710" + range);
  EXPECT_EQ(access_error([&] { m.store_word(base - 4, 1); }),
            "DataMemory: 4-byte access outside memory at 0x0000FFFC" + range);
  EXPECT_EQ(access_error([&] { (void)m.load_word(base + 9996); }), "no error");
}

// ---- Functional interpreter edge cases ----

TEST(Interpreter, BudgetExceededThrows) {
  assembler::Program prog = assembler::assemble("main:\n  b main\n  halt\n");
  Interpreter interp(prog);
  EXPECT_THROW(interp.run(/*max_instructions=*/100), std::runtime_error);
}

TEST(Interpreter, ProgramCompletingOnTheBudgetBoundarySucceeds) {
  // Three productive instructions + halt.  A budget of exactly 3 must not
  // throw: the budget caps productive work, and the machine's very next
  // instruction is the terminating halt.
  assembler::Program prog =
      assembler::assemble("main:\n  nop\n  nop\n  nop\n  halt\n");
  {
    Interpreter interp(prog);
    interp.run(/*max_instructions=*/3);
    EXPECT_TRUE(interp.halted());
    EXPECT_EQ(interp.instructions(), 4u);  // halt itself still retires
  }
  {
    // One short of the boundary: a genuine budget violation.
    Interpreter interp(prog);
    EXPECT_THROW(interp.run(/*max_instructions=*/2), std::runtime_error);
  }
}

TEST(Pipeline, ProgramCompletingOnTheCycleBudgetBoundarySucceeds) {
  assembler::Program prog =
      assembler::assemble("main:\n  nop\n  nop\n  nop\n  halt\n");
  const std::uint64_t total = [&] {
    Pipeline p(prog);
    return p.run().cycles;
  }();
  {
    // Exactly enough cycles: must succeed.
    SimConfig cfg;
    cfg.max_cycles = total;
    Pipeline p(prog, cfg);
    EXPECT_EQ(p.run().cycles, total);
  }
  {
    // The halt is already in flight when the limit hits: the pipeline is
    // allowed to drain (same grace the interpreter gives a pending halt).
    SimConfig cfg;
    cfg.max_cycles = total - 1;
    Pipeline p(prog, cfg);
    EXPECT_EQ(p.run().cycles, total);
  }
  {
    // Far below: a genuine runaway.
    SimConfig cfg;
    cfg.max_cycles = 2;
    Pipeline p(prog, cfg);
    EXPECT_THROW(p.run(), std::runtime_error);
  }
}

TEST(Interpreter, PcOffEndThrows) {
  assembler::Program prog = assembler::assemble("main:\n  nop\n  nop\n");
  Interpreter interp(prog);
  EXPECT_THROW(interp.run(), std::runtime_error);
}

TEST(Interpreter, EmptyProgramRejected) {
  assembler::Program prog;
  EXPECT_THROW(Interpreter{prog}, std::invalid_argument);
}

TEST(Interpreter, StepAfterHaltReturnsFalse) {
  assembler::Program prog = assembler::assemble("main:\n  halt\n");
  Interpreter interp(prog);
  interp.run();
  EXPECT_TRUE(interp.halted());
  EXPECT_FALSE(interp.step());
  EXPECT_EQ(interp.instructions(), 1u);
}

// ---- Activity reporting (what the energy model consumes) ----

TEST(PipelineActivity, MemActivityCarriesAddressAndData) {
  assembler::Program prog = assembler::assemble(R"(
.data
buf: .space 8
.text
main:
  la $t0, buf
  li $t1, 0xab
  sw $t1, 4($t0)
  lw $t2, 4($t0)
  halt
)");
  Pipeline p(prog);
  bool saw_store = false, saw_load = false;
  energy::CycleActivity a;
  while (p.step(a)) {
    if (a.mem.write) {
      saw_store = true;
      EXPECT_EQ(a.mem.address, assembler::kDataBase + 4);
      EXPECT_EQ(a.mem.data, 0xABu);
    }
    if (a.mem.read) {
      saw_load = true;
      EXPECT_EQ(a.mem.data, 0xABu);
    }
  }
  EXPECT_TRUE(saw_store);
  EXPECT_TRUE(saw_load);
}

TEST(PipelineActivity, SecureFlagsPropagate) {
  assembler::Program prog = assembler::assemble(R"(
.data
buf: .word 3
.text
main:
  la $t0, buf
  slw $t1, 0($t0)
  sxor $t2, $t1, $t1
  halt
)");
  Pipeline p(prog);
  bool secure_mem = false, secure_xor = false, secure_wb = false;
  energy::CycleActivity a;
  while (p.step(a)) {
    if (a.mem.read && a.mem.secure) secure_mem = true;
    if (a.ex.valid && a.ex.unit == isa::FuncUnit::kXorUnit && a.ex.secure) {
      secure_xor = true;
    }
    if (a.wb_secure) secure_wb = true;
  }
  EXPECT_TRUE(secure_mem);
  EXPECT_TRUE(secure_xor);
  EXPECT_TRUE(secure_wb);
}

TEST(PipelineActivity, OperandIsolationGatesForwardedReads) {
  // addu $t2,$t1,$t1: $t1 is produced by the immediately preceding li, so
  // both read ports are gated and rf_reads is 0 for that decode.
  assembler::Program prog = assembler::assemble(R"(
main:
  li $t1, 5
  addu $t2, $t1, $t1
  halt
)");
  Pipeline p(prog);
  std::vector<int> reads;
  energy::CycleActivity a;
  while (p.step(a)) {
    if (a.decode) reads.push_back(a.rf_reads);
  }
  // decodes: li (0 ports), addu (2 ports, both forwarded -> 0), halt (0).
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[1], 0);
}

TEST(PipelineActivity, BubblesDoNotWriteLatches) {
  assembler::Program prog = assembler::assemble(R"(
.data
b: .word 1
.text
main:
  la $t0, b
  lw $t1, 0($t0)
  addu $t2, $t1, $t1
  halt
)");
  Pipeline p(prog);
  energy::CycleActivity a;
  int idex_writes = 0;
  std::uint64_t cycles = 0;
  while (p.step(a)) {
    ++cycles;
    idex_writes += a.id_ex.wrote ? 1 : 0;
  }
  // 5 instructions decode exactly once each (the interlock repeats a decode
  // cycle but only one write survives).
  EXPECT_EQ(idex_writes, 5);
  EXPECT_GT(cycles, 5u);
}

// A looping store-heavy program for the snapshot tests: writes i to out[i]
// and accumulates the sum in $s0.
const char* kSnapshotProgram = R"(
.data
out: .space 256
.text
main:
  li $t0, 0
  li $s0, 0
  la $t1, out
loop:
  sll $t2, $t0, 2
  addu $t3, $t1, $t2
  sw $t0, 0($t3)
  addu $s0, $s0, $t0
  addiu $t0, $t0, 1
  li $k1, 64
  bne $t0, $k1, loop
  halt
)";

// The snapshot contract: capture mid-run, restore into a fresh Pipeline,
// and the continuation is bit-identical — same per-cycle activity, same
// final registers, memory, and counters.
TEST(PipelineSnapshot, RestoredContinuationIsBitIdentical) {
  assembler::Program prog = assembler::assemble(kSnapshotProgram);
  Pipeline original(prog);
  energy::CycleActivity a;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(original.step(a));
  const Snapshot snap = original.snapshot();
  EXPECT_EQ(snap.cycles, 100u);

  Pipeline restored(prog, snap);
  EXPECT_EQ(restored.cycles(), original.cycles());
  energy::CycleActivity ao;
  energy::CycleActivity ar;
  while (true) {
    const bool more_o = original.step(ao);
    const bool more_r = restored.step(ar);
    ASSERT_EQ(more_o, more_r);
    if (!more_o) break;
    // Per-cycle lockstep across every field the energy model consumes;
    // a payload is compared only under the flag that gates it.
    EXPECT_EQ(ao.fetch, ar.fetch);
    EXPECT_EQ(ao.decode, ar.decode);
    if (ao.decode) {
      EXPECT_EQ(ao.rf_reads, ar.rf_reads);
    }
    EXPECT_EQ(ao.retired, ar.retired);
    if (ao.retired) {
      EXPECT_EQ(ao.retire_pc, ar.retire_pc);
    }
    EXPECT_EQ(ao.rf_write, ar.rf_write);
  }
  for (int r = 0; r < static_cast<int>(isa::kNumRegisters); ++r) {
    EXPECT_EQ(original.reg(static_cast<isa::Reg>(r)),
              restored.reg(static_cast<isa::Reg>(r)))
        << "register " << r;
  }
  const SimResult ro = original.result();
  const SimResult rr = restored.result();
  EXPECT_EQ(ro.cycles, rr.cycles);
  EXPECT_EQ(ro.instructions, rr.instructions);
  EXPECT_EQ(ro.stalls, rr.stalls);
  EXPECT_EQ(ro.flushes, rr.flushes);
  const assembler::DataSymbol* out = prog.find_symbol("out");
  ASSERT_NE(out, nullptr);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(original.memory().load_word(out->address + i * 4),
              restored.memory().load_word(out->address + i * 4));
  }
}

// Restoring against a different program is a caught mistake, not silent
// garbage.
TEST(PipelineSnapshot, RestoreRejectsMismatchedProgram) {
  assembler::Program prog = assembler::assemble(kSnapshotProgram);
  Pipeline p(prog);
  energy::CycleActivity a;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(p.step(a));
  const Snapshot snap = p.snapshot();
  assembler::Program other = assembler::assemble("main:\n  halt\n");
  EXPECT_THROW(Pipeline(other, snap), std::invalid_argument);
}

// Forked memory is copy-on-write at page granularity: a restored machine
// shares every page with the snapshot until it writes, and a write clones
// only the touched page.
TEST(PipelineSnapshot, MemoryForksCopyOnWrite) {
  assembler::Program prog = assembler::assemble(kSnapshotProgram);
  Pipeline p(prog);
  energy::CycleActivity a;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(p.step(a));
  const Snapshot snap = p.snapshot();
  Pipeline forked(prog, snap);

  const std::uint32_t base = forked.memory().base();
  EXPECT_TRUE(forked.memory().shares_page_with(snap.memory, base));
  EXPECT_TRUE(forked.memory().shares_page_with(snap.memory, base + 8192));

  const std::uint32_t before = snap.memory.load_word(base);
  forked.memory().store_word(base, before + 1);
  // The written page is now private; an untouched page is still shared.
  EXPECT_FALSE(forked.memory().shares_page_with(snap.memory, base));
  EXPECT_TRUE(forked.memory().shares_page_with(snap.memory, base + 8192));
  // The snapshot's view is unchanged (the fork cloned, never mutated).
  EXPECT_EQ(snap.memory.load_word(base), before);
  EXPECT_EQ(forked.memory().load_word(base), before + 1);
}

}  // namespace
}  // namespace emask::sim
