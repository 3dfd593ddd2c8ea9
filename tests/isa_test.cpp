#include <gtest/gtest.h>

#include "isa/encoding.hpp"
#include "isa/instruction.hpp"
#include "isa/opcode.hpp"
#include "isa/registers.hpp"
#include "util/rng.hpp"

namespace emask::isa {
namespace {

TEST(Opcode, MnemonicRoundTrip) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto parsed = opcode_from_mnemonic(mnemonic(op));
    ASSERT_TRUE(parsed.has_value()) << mnemonic(op);
    EXPECT_EQ(*parsed, op);
  }
}

TEST(Opcode, UnknownMnemonicRejected) {
  EXPECT_FALSE(opcode_from_mnemonic("frobnicate").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("").has_value());
}

TEST(Opcode, SecurableSetCoversPaperClassesPlusLogic) {
  // The paper defines secure versions for assignment (lw/sw/move), XOR,
  // shift, and indexing (moves lower to addu/or); we additionally secure
  // the logic unit (and/andi/nor) for non-DES kernels like SHA-1.
  for (const Opcode op : {Opcode::kLw, Opcode::kSw, Opcode::kXor,
                          Opcode::kXori, Opcode::kSll, Opcode::kSrl,
                          Opcode::kSra, Opcode::kSllv, Opcode::kSrlv,
                          Opcode::kSrav, Opcode::kAddu, Opcode::kAddiu,
                          Opcode::kOr, Opcode::kOri, Opcode::kAnd,
                          Opcode::kAndi, Opcode::kNor}) {
    EXPECT_TRUE(info(op).securable) << mnemonic(op);
  }
  // Control flow and comparisons have no secure form: a secret-dependent
  // branch is a structural leak the compiler diagnoses instead.
  for (const Opcode op : {Opcode::kBeq, Opcode::kJ, Opcode::kSubu,
                          Opcode::kSlt, Opcode::kHalt}) {
    EXPECT_FALSE(info(op).securable) << mnemonic(op);
  }
}

TEST(Opcode, ClassificationFlags) {
  EXPECT_TRUE(info(Opcode::kLw).is_load);
  EXPECT_TRUE(info(Opcode::kSw).is_store);
  EXPECT_FALSE(info(Opcode::kSw).writes_rd);
  EXPECT_TRUE(info(Opcode::kBne).is_branch);
  EXPECT_TRUE(info(Opcode::kJal).is_jump);
  EXPECT_TRUE(info(Opcode::kJal).writes_rd);
  EXPECT_FALSE(info(Opcode::kJ).writes_rd);
  EXPECT_EQ(info(Opcode::kXor).unit, FuncUnit::kXorUnit);
  EXPECT_EQ(info(Opcode::kLw).unit, FuncUnit::kAdder);  // address generation
}

TEST(Registers, NamesRoundTrip) {
  for (int i = 0; i < kNumRegisters; ++i) {
    const auto r = static_cast<Reg>(i);
    const auto parsed = parse_reg(reg_name(r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, r);
  }
}

TEST(Registers, NumericForms) {
  EXPECT_EQ(parse_reg("$0"), kZero);
  EXPECT_EQ(parse_reg("$31"), kRa);
  EXPECT_EQ(parse_reg("$8"), kT0);
  EXPECT_FALSE(parse_reg("$32").has_value());
  EXPECT_FALSE(parse_reg("t0").has_value());
  EXPECT_FALSE(parse_reg("$").has_value());
  EXPECT_FALSE(parse_reg("$1x").has_value());
}

TEST(Instruction, DestAndSources) {
  const Instruction add = make_rtype(Opcode::kAddu, 3, 1, 2);
  EXPECT_EQ(add.dest(), Reg{3});
  EXPECT_EQ(add.src1(), Reg{1});
  EXPECT_EQ(add.src2(), Reg{2});

  const Instruction lw = make_loadstore(Opcode::kLw, 5, 8, 4);
  EXPECT_EQ(lw.dest(), Reg{5});
  EXPECT_EQ(lw.src1(), Reg{4});
  EXPECT_FALSE(lw.src2().has_value());

  const Instruction sw = make_loadstore(Opcode::kSw, 5, 8, 4);
  EXPECT_FALSE(sw.dest().has_value());
  EXPECT_EQ(sw.src1(), Reg{4});
  EXPECT_EQ(sw.src2(), Reg{5});

  const Instruction sll = make_shift(Opcode::kSll, 2, 7, 3);
  EXPECT_EQ(sll.dest(), Reg{2});
  EXPECT_EQ(sll.src1(), Reg{7});  // shift-by-immediate reads rt

  const Instruction jal = make_jump(Opcode::kJal, 10);
  EXPECT_EQ(jal.dest(), kRa);

  const Instruction bltz = make_branch(Opcode::kBltz, 9, 0, -4);
  EXPECT_EQ(bltz.src1(), Reg{9});
  EXPECT_FALSE(bltz.src2().has_value());
}

TEST(Instruction, WritesToZeroAreDiscarded) {
  const Instruction add = make_rtype(Opcode::kAddu, kZero, 1, 2);
  EXPECT_FALSE(add.dest().has_value());
}

TEST(Instruction, ToStringSecurePrefix) {
  Instruction lw = make_loadstore(Opcode::kLw, 3, 0, 4, /*secure=*/true);
  EXPECT_EQ(lw.to_string(), "slw $v1,0($a0)");
  lw.secure = false;
  EXPECT_EQ(lw.to_string(), "lw $v1,0($a0)");
}

TEST(Instruction, NopIsSllZero) {
  const Instruction nop = make_nop();
  EXPECT_EQ(nop.op, Opcode::kSll);
  EXPECT_FALSE(nop.dest().has_value());
}

// ---- Encoding ----

TEST(Encoding, SecureBitIsBit32) {
  const Instruction x = make_rtype(Opcode::kXor, 3, 1, 2, /*secure=*/true);
  const EncodedWord w = encode(x);
  EXPECT_NE(w & kSecureBit, 0u);
  Instruction y = x;
  y.secure = false;
  EXPECT_EQ(encode(y), w & ~kSecureBit);
}

TEST(Encoding, MatchesMipsReferencePatterns) {
  // addu $t0,$t1,$t2 -> 0x012A4021 in MIPS-I.
  EXPECT_EQ(encode(make_rtype(Opcode::kAddu, 8, 9, 10)), 0x012A4021u);
  // lw $t0, 4($sp) -> 0x8FA80004.
  EXPECT_EQ(encode(make_loadstore(Opcode::kLw, 8, 4, 29)), 0x8FA80004u);
  // sll $t0,$t1,5 -> 0x00094140.
  EXPECT_EQ(encode(make_shift(Opcode::kSll, 8, 9, 5)), 0x00094140u);
  // beq $t0,$t1,-1 -> 0x1109FFFF.
  EXPECT_EQ(encode(make_branch(Opcode::kBeq, 8, 9, -1)), 0x1109FFFFu);
}

TEST(Encoding, RoundTripAllOpcodesRandomFields) {
  util::Rng rng(0xE11C0DE);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto op = static_cast<Opcode>(rng.next_below(kNumOpcodes));
    const OpcodeInfo& oi = info(op);
    Instruction inst;
    inst.op = op;
    inst.secure = (rng.next_u64() & 1) != 0;
    switch (oi.format) {
      case Format::kRegister:
        inst.rd = static_cast<Reg>(rng.next_below(32));
        inst.rs = static_cast<Reg>(rng.next_below(32));
        inst.rt = static_cast<Reg>(rng.next_below(32));
        break;
      case Format::kShiftImm:
        inst.rd = static_cast<Reg>(rng.next_below(32));
        inst.rt = static_cast<Reg>(rng.next_below(32));
        inst.imm = static_cast<std::int32_t>(rng.next_below(32));
        break;
      case Format::kImmediate:
        inst.rt = static_cast<Reg>(rng.next_below(32));
        if (op != Opcode::kLui) inst.rs = static_cast<Reg>(rng.next_below(32));
        // andi/ori/xori/lui decode as zero-extended.
        inst.imm = (op == Opcode::kAndi || op == Opcode::kOri ||
                    op == Opcode::kXori || op == Opcode::kLui)
                       ? static_cast<std::int32_t>(rng.next_below(65536))
                       : static_cast<std::int32_t>(rng.next_below(65536)) -
                             32768;
        break;
      case Format::kLoadStore:
        inst.rt = static_cast<Reg>(rng.next_below(32));
        inst.rs = static_cast<Reg>(rng.next_below(32));
        inst.imm = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
        break;
      case Format::kBranch:
        inst.rs = static_cast<Reg>(rng.next_below(32));
        if (op == Opcode::kBeq || op == Opcode::kBne) {
          inst.rt = static_cast<Reg>(rng.next_below(32));
        }
        inst.imm = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
        break;
      case Format::kJump:
        inst.imm = static_cast<std::int32_t>(rng.next_below(1 << 26));
        break;
      case Format::kJumpReg:
        inst.rs = static_cast<Reg>(rng.next_below(32));
        if (op == Opcode::kJalr) inst.rd = static_cast<Reg>(rng.next_below(32));
        break;
      case Format::kNullary:
        break;
    }
    const Instruction decoded = decode(encode(inst));
    EXPECT_EQ(decoded, inst) << inst.to_string() << " vs "
                             << decoded.to_string();
  }
}

TEST(Encoding, OutOfRangeFieldsThrow) {
  EXPECT_THROW((void)encode(make_itype(Opcode::kAddiu, 1, 2, 70000)),
               std::invalid_argument);
  EXPECT_THROW((void)encode(make_shift(Opcode::kSll, 1, 2, 32)),
               std::invalid_argument);
  EXPECT_THROW((void)encode(make_jump(Opcode::kJ, 1 << 26)), std::invalid_argument);
  EXPECT_THROW((void)encode(make_branch(Opcode::kBeq, 1, 2, -40000)),
               std::invalid_argument);
  // A branch offset decodes sign-extended, so +32768 would come back as
  // -32768: only the signed range is encodable.
  EXPECT_THROW((void)encode(make_branch(Opcode::kBeq, 1, 2, 32768)),
               std::invalid_argument);
  EXPECT_EQ(decode(encode(make_branch(Opcode::kBeq, 1, 2, 32767))).imm, 32767);
}

TEST(Encoding, UnknownPatternsThrow) {
  EXPECT_THROW((void)decode(0x0000003Fu), std::invalid_argument);  // SPECIAL funct 3f
  EXPECT_THROW((void)decode(0xC0000000u), std::invalid_argument);  // primary 0x30
}

TEST(Encoding, AllZerosDecodesToNop) {
  const Instruction nop = decode(0);
  EXPECT_EQ(nop.op, Opcode::kSll);
  EXPECT_EQ(nop.imm, 0);
  EXPECT_FALSE(nop.secure);
}

}  // namespace
}  // namespace emask::isa
