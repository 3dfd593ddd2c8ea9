#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "isa/instruction.hpp"
#include "util/rng.hpp"

namespace emask::assembler {
namespace {

using isa::Opcode;

TEST(Assembler, MinimalProgram) {
  const Program p = assemble("main:\n  halt\n");
  ASSERT_EQ(p.text.size(), 1u);
  EXPECT_EQ(p.text[0].op, Opcode::kHalt);
  EXPECT_EQ(p.entry(), 0u);
}

TEST(Assembler, EntryDefaultsToZeroWithoutMain) {
  const Program p = assemble("start:\n  nop\n  halt\n");
  EXPECT_EQ(p.entry(), 0u);
}

TEST(Assembler, DataWordsAndExtents) {
  const Program p = assemble(R"(
.data
a: .word 1, 2, 3
b: .word 0xdeadbeef
c: .space 8
.text
  halt
)");
  const DataSymbol* a = p.find_symbol("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->address, kDataBase);
  EXPECT_EQ(a->size_bytes, 12u);
  EXPECT_EQ(p.initial_word(kDataBase + 4), 2u);
  const DataSymbol* b = p.find_symbol("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(p.initial_word(b->address), 0xDEADBEEFu);
  const DataSymbol* c = p.find_symbol("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->size_bytes, 8u);
  EXPECT_EQ(p.symbol_at(kDataBase + 13), b);   // a:[0,12) b:[12,16) c:[16,24)
  EXPECT_EQ(p.symbol_at(kDataBase + 17), c);
  EXPECT_EQ(p.symbol_at(kDataBase + 100), nullptr);
}

TEST(Assembler, AlignDirective) {
  const Program p = assemble(R"(
.data
a: .space 3
   .align 2
b: .word 7
.text
  halt
)");
  EXPECT_EQ(p.find_symbol("b")->address % 4, 0u);
  EXPECT_EQ(p.initial_word(p.find_symbol("b")->address), 7u);
}

TEST(Assembler, SecretAndDeclassifiedAnnotations) {
  const Program p = assemble(R"(
.data
key: .word 1
.secret key
out: .space 4
.declassified out
.text
  halt
)");
  EXPECT_TRUE(p.find_symbol("key")->secret);
  EXPECT_FALSE(p.find_symbol("key")->declassified);
  EXPECT_TRUE(p.find_symbol("out")->declassified);
}

TEST(Assembler, SecretUnknownSymbolFails) {
  EXPECT_THROW(assemble(".data\n.secret nothere\n.text\n halt\n"), AsmError);
}

TEST(Assembler, InstructionOperands) {
  const Program p = assemble(R"(
main:
  addu $t0, $t1, $t2
  addiu $t0, $t0, -5
  lw  $s0, 12($sp)
  sw  $s0, -4($sp)
  sll $a0, $a1, 7
  lui $a2, 0x1234
  jr  $ra
  halt
)");
  EXPECT_EQ(p.text[0], isa::make_rtype(Opcode::kAddu, 8, 9, 10));
  EXPECT_EQ(p.text[1], isa::make_itype(Opcode::kAddiu, 8, 8, -5));
  EXPECT_EQ(p.text[2], isa::make_loadstore(Opcode::kLw, 16, 12, 29));
  EXPECT_EQ(p.text[3], isa::make_loadstore(Opcode::kSw, 16, -4, 29));
  EXPECT_EQ(p.text[4], isa::make_shift(Opcode::kSll, 4, 5, 7));
  EXPECT_EQ(p.text[5], isa::make_itype(Opcode::kLui, 6, 0, 0x1234));
  EXPECT_EQ(p.text[6].op, Opcode::kJr);
  EXPECT_EQ(p.text[6].rs, isa::kRa);
}

TEST(Assembler, BranchTargetsAreRelativeWords) {
  const Program p = assemble(R"(
main:
loop:
  nop
  bne $t0, $t1, loop
  beq $zero, $zero, done
  nop
done:
  halt
)");
  EXPECT_EQ(p.text[1].imm, -2);  // back to loop
  EXPECT_EQ(p.text[2].imm, 1);   // skip one instruction
}

TEST(Assembler, JumpTargetsAreAbsoluteIndices) {
  const Program p = assemble(R"(
main:
  j end
  nop
end:
  halt
)");
  EXPECT_EQ(p.text[0].op, Opcode::kJ);
  EXPECT_EQ(p.text[0].imm, 2);
}

TEST(Assembler, PseudoExpansions) {
  const Program p = assemble(R"(
.data
buf: .word 9
.text
main:
  move $t0, $t1
  li $t2, 100
  li $t3, 0x12345
  la $t4, buf
  b main
  halt
)");
  // move -> addu rd, rs, $zero
  EXPECT_EQ(p.text[0], isa::make_rtype(Opcode::kAddu, 8, 9, 0));
  // small li -> addiu
  EXPECT_EQ(p.text[1], isa::make_itype(Opcode::kAddiu, 10, 0, 100));
  // large li -> lui+ori
  EXPECT_EQ(p.text[2].op, Opcode::kLui);
  EXPECT_EQ(p.text[2].imm, 0x1);
  EXPECT_EQ(p.text[3].op, Opcode::kOri);
  EXPECT_EQ(p.text[3].imm, 0x2345);
  // la -> lui+ori of the symbol address
  EXPECT_EQ(p.text[4].op, Opcode::kLui);
  EXPECT_EQ(p.text[4].imm, static_cast<std::int32_t>(kDataBase >> 16));
  EXPECT_EQ(p.text[5].op, Opcode::kOri);
  // b -> beq $zero,$zero
  EXPECT_EQ(p.text[6].op, Opcode::kBeq);
  EXPECT_EQ(p.text[6].rs, isa::kZero);
  EXPECT_EQ(p.text[6].imm, -7);
}

TEST(Assembler, LabelSizingConsistentWithPseudoExpansion) {
  // A label after a 2-instruction pseudo must account for both slots.
  const Program p = assemble(R"(
.data
buf: .word 0
.text
main:
  la $t0, buf
after:
  halt
)");
  EXPECT_EQ(p.text_labels.at("after"), 2u);
}

TEST(Assembler, SecureSpellings) {
  const Program p = assemble(R"(
main:
  slw  $t0, 0($t1)
  ssw  $t0, 0($t1)
  sxor $t0, $t1, $t2
  ssll $t0, $t1, 3
  smove $t0, $t1
  saddu $t0, $t1, $t2
  sori $t0, $t1, 1
  halt
)");
  for (std::size_t i = 0; i + 1 < p.text.size(); ++i) {
    EXPECT_TRUE(p.text[i].secure) << i;
  }
  EXPECT_EQ(p.text[0].op, Opcode::kLw);
  EXPECT_EQ(p.text[2].op, Opcode::kXor);
  EXPECT_EQ(p.text[4].op, Opcode::kAddu);  // smove
}

TEST(Assembler, SecurePrefixOnNonSecurableRejected) {
  EXPECT_THROW(assemble("main:\n  ssubu $t0, $t1, $t2\n"), AsmError);
  EXPECT_THROW(assemble("main:\n  sbeq $t0, $t1, main\n"), AsmError);
}

TEST(Assembler, PlainShiftMnemonicsNotMisparsedAsSecure) {
  // "sll"/"sra"/"slt"/"sw" all start with 's' but are ordinary opcodes.
  const Program p = assemble(R"(
main:
  sll $t0, $t1, 1
  sra $t0, $t1, 1
  slt $t0, $t1, $t2
  sw  $t0, 0($t1)
  subu $t0, $t1, $t2
  halt
)");
  for (const auto& inst : p.text) EXPECT_FALSE(inst.secure);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(R"(
# leading comment
main:   ; trailing comment style 2
  nop   # mid comment

  halt
)");
  EXPECT_EQ(p.text.size(), 2u);
}

TEST(Assembler, MultipleLabelsOneLocation) {
  const Program p = assemble("a:\nb:  nop\n  halt\n");
  EXPECT_EQ(p.text_labels.at("a"), 0u);
  EXPECT_EQ(p.text_labels.at("b"), 0u);
}

TEST(Assembler, ErrorsCarrySourceLine) {
  try {
    (void)assemble("main:\n  nop\n  bogus $t0\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Assembler, DuplicateLabelRejected) {
  EXPECT_THROW(assemble("a:\n nop\na:\n halt\n"), AsmError);
}

TEST(Assembler, UndefinedLabelRejected) {
  EXPECT_THROW(assemble("main:\n  b nowhere\n"), AsmError);
  EXPECT_THROW(assemble("main:\n  la $t0, nosym\n"), AsmError);
}

TEST(Assembler, WrongOperandCountRejected) {
  EXPECT_THROW(assemble("main:\n  addu $t0, $t1\n"), AsmError);
  EXPECT_THROW(assemble("main:\n  halt $t0\n"), AsmError);
}

TEST(Assembler, OutOfRangeImmediateRejected) {
  EXPECT_THROW(assemble("main:\n  addiu $t0, $t1, 100000\n"), AsmError);
  EXPECT_THROW(assemble("main:\n  sll $t0, $t1, 40\n"), AsmError);
}

// Pseudo-op expansions are range-checked like real mnemonics: a `b` whose
// offset does not fit the branch immediate is an AsmError on its own line,
// not an unencodable beq that fails only when a run fetches it.
TEST(Assembler, OutOfRangePseudoOpBranchRejected) {
  try {
    (void)assemble("main:\n  nop\n  b 70000\n  halt\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("out of 16-bit range"),
              std::string::npos)
        << e.what();
  }
  // A label 40,000 instructions ahead is past the 32,767 reach too; one
  // 30,000 ahead is within it.
  const auto skip = [](int nops) {
    std::string src = "main:\n  b end\n";
    for (int i = 0; i < nops; ++i) src += "  nop\n";
    return src + "end:\n  halt\n";
  };
  EXPECT_THROW(assemble(skip(40000)), AsmError);
  EXPECT_EQ(assemble(skip(30000)).text.size(), 30002u);
}

// Property: every instruction the generators can produce prints (via
// to_string) in a form the assembler parses back to the identical
// instruction — listings from `emask-run --listing` are valid input again.
TEST(Assembler, InstructionPrintParseRoundTrip) {
  util::Rng rng(0x707);
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto op = static_cast<isa::Opcode>(
        rng.next_below(static_cast<std::uint64_t>(isa::kNumOpcodes)));
    const auto& oi = isa::info(op);
    // Branch/jump targets print as resolved numbers, which only reassemble
    // in context; skip control flow for this property.
    if (oi.is_branch || oi.is_jump) continue;
    isa::Instruction inst;
    inst.op = op;
    inst.secure = oi.securable && (rng.next_u64() & 1) != 0;
    switch (oi.format) {
      case isa::Format::kRegister:
        inst.rd = static_cast<isa::Reg>(rng.next_below(32));
        inst.rs = static_cast<isa::Reg>(rng.next_below(32));
        inst.rt = static_cast<isa::Reg>(rng.next_below(32));
        break;
      case isa::Format::kShiftImm:
        inst.rd = static_cast<isa::Reg>(rng.next_below(32));
        inst.rt = static_cast<isa::Reg>(rng.next_below(32));
        inst.imm = static_cast<std::int32_t>(rng.next_below(32));
        break;
      case isa::Format::kImmediate:
        inst.rt = static_cast<isa::Reg>(rng.next_below(32));
        if (op != isa::Opcode::kLui) {
          inst.rs = static_cast<isa::Reg>(rng.next_below(32));
        }
        inst.imm = (op == isa::Opcode::kAndi || op == isa::Opcode::kOri ||
                    op == isa::Opcode::kXori || op == isa::Opcode::kLui)
                       ? static_cast<std::int32_t>(rng.next_below(65536))
                       : static_cast<std::int32_t>(rng.next_below(65536)) -
                             32768;
        break;
      case isa::Format::kLoadStore:
        inst.rt = static_cast<isa::Reg>(rng.next_below(32));
        inst.rs = static_cast<isa::Reg>(rng.next_below(32));
        inst.imm =
            static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
        break;
      default:
        break;
    }
    const Program p = assemble("main:\n  " + inst.to_string() + "\n");
    ASSERT_EQ(p.text.size(), 1u) << inst.to_string();
    EXPECT_EQ(p.text[0], inst) << inst.to_string();
    ++checked;
  }
  EXPECT_GT(checked, 1500);
}

TEST(Assembler, PokeWordUpdatesImage) {
  Program p = assemble(".data\nx: .word 1\n.text\n halt\n");
  p.poke_word(kDataBase, 42);
  EXPECT_EQ(p.initial_word(kDataBase), 42u);
  EXPECT_THROW(p.poke_word(kDataBase + 4, 0), std::out_of_range);
}

TEST(Assembler, ForkMarkerRecordsInstructionIndex) {
  const Program p = assemble(R"(
main:
  li $t0, 1
  li $t1, 2
  fork
  addu $t2, $t0, $t1
  halt
)");
  ASSERT_TRUE(p.fork_point.has_value());
  EXPECT_EQ(*p.fork_point, 2u);
  // The marker assembles to a retired no-op, so it costs one slot and one
  // retirement but changes no architectural state.
  EXPECT_EQ(p.text[*p.fork_point], isa::make_nop());
  EXPECT_EQ(p.text.size(), 5u);
}

TEST(Assembler, NoForkMarkerMeansNoForkPoint) {
  const Program p = assemble("main:\n  halt\n");
  EXPECT_FALSE(p.fork_point.has_value());
}

TEST(Assembler, DuplicateForkMarkerRejected) {
  EXPECT_THROW(assemble("main:\n  fork\n  fork\n  halt\n"), AsmError);
}

TEST(Assembler, ForkMarkerTakesNoOperands) {
  EXPECT_THROW(assemble("main:\n  fork $t0\n  halt\n"), AsmError);
}

}  // namespace
}  // namespace emask::assembler
