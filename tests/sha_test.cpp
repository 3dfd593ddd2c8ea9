// SHA-1: golden known-answer vectors and the simulated assembly
// implementation under every masking policy.
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "compiler/masking.hpp"
#include "core/masking_pipeline.hpp"
#include "sha/asm_generator.hpp"
#include "sha/sha1.hpp"
#include "sim/interpreter.hpp"
#include "util/rng.hpp"

namespace emask::sha {
namespace {

TEST(Sha1Golden, KnownAnswers) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Golden, MillionAs) {
  EXPECT_EQ(sha1_hex(std::string(1000000, 'a')),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Golden, CompressMatchesFullHashOnOneBlock) {
  // "abc" padded fits one block; compress must agree with sha1().
  std::array<std::uint32_t, 16> block{};
  block[0] = 0x61626380u;  // "abc" + 0x80
  block[15] = 24;          // bit length
  Sha1State st = sha1_init();
  sha1_compress(st, block);
  EXPECT_EQ(st.h[0], 0xA9993E36u);
  EXPECT_EQ(st.h[4], 0x9CD0D89Du);
}

std::array<std::uint32_t, 16> random_block(util::Rng& rng) {
  std::array<std::uint32_t, 16> block;
  for (auto& w : block) w = rng.next_u32();
  return block;
}

TEST(Sha1OnPipeline, MatchesGoldenCompression) {
  util::Rng rng(0x5A1);
  const auto block = random_block(rng);
  const auto program = assembler::assemble(generate_sha1_asm(block));
  sim::Pipeline pipeline(program);
  pipeline.run();
  Sha1State golden = sha1_init();
  sha1_compress(golden, block);
  EXPECT_EQ(read_digest(pipeline.memory(), program), golden.h);
}

class ShaPolicyTest : public ::testing::TestWithParam<compiler::Policy> {};

TEST_P(ShaPolicyTest, CorrectUnderEveryPolicy) {
  util::Rng rng(0x5A2 + static_cast<std::uint64_t>(GetParam()));
  const auto block = random_block(rng);
  const auto pipeline = core::MaskingPipeline::from_source(
      generate_sha1_asm(block), GetParam());
  const auto run = pipeline.run({.image = &pipeline.program()});
  EXPECT_TRUE(run.sim.halted);
  sim::Pipeline machine(pipeline.program());
  machine.run();
  Sha1State golden = sha1_init();
  sha1_compress(golden, block);
  EXPECT_EQ(read_digest(machine.memory(), pipeline.program()), golden.h);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShaPolicyTest,
                         ::testing::Values(compiler::Policy::kOriginal,
                                           compiler::Policy::kSelective,
                                           compiler::Policy::kNaiveLoadStore,
                                           compiler::Policy::kAllSecure),
                         [](const auto& info) {
                           return std::string(
                               compiler::policy_name(info.param));
                         });

TEST(Sha1OnPipeline, SliceCoversEverythingWithoutDiagnostics) {
  util::Rng rng(0x5A3);
  const auto pipeline = core::MaskingPipeline::from_source(
      generate_sha1_asm(random_block(rng)), compiler::Policy::kSelective);
  for (const auto& d : pipeline.mask_result().slice.diagnostics) {
    ADD_FAILURE() << "diagnostic: " << d.message;
  }
  // The 80-round computation is secret-dependent nearly everywhere, so the
  // slice must secure the logic unit too (Ch/Maj use and/nor).
  bool secure_and = false, secure_nor = false;
  for (const auto& inst : pipeline.program().text) {
    secure_and |= inst.secure && inst.op == isa::Opcode::kAnd;
    secure_nor |= inst.secure && inst.op == isa::Opcode::kNor;
  }
  EXPECT_TRUE(secure_and) << "Ch/Maj must use the secure AND";
  EXPECT_TRUE(secure_nor) << "Ch must use the secure NOR";
}

TEST(Sha1OnPipeline, MaskingFlattensMessageDifferential) {
  util::Rng rng(0x5A4);
  const auto block1 = random_block(rng);
  auto block2 = block1;
  block2[3] ^= 1u;  // single-bit change in the secret block

  const auto masked = core::MaskingPipeline::from_source(
      generate_sha1_asm(block1), compiler::Policy::kSelective);
  assembler::Program image2 = masked.program();
  poke_message(image2, block2);
  const auto d = masked.run({.image = &masked.program()}).trace.difference(
      masked.run({.image = &image2}).trace);
  // Everything up to the declassified digest store is flat.
  const auto body = d.slice(0, d.size() - 100);
  EXPECT_EQ(body.max_abs(), 0.0);

  const auto original = core::MaskingPipeline::from_source(
      generate_sha1_asm(block1), compiler::Policy::kOriginal);
  assembler::Program image2o = original.program();
  poke_message(image2o, block2);
  const auto d_orig =
      original.run({.image = &original.program()})
          .trace.difference(original.run({.image = &image2o}).trace);
  EXPECT_GT(d_orig.slice(0, d_orig.size() - 100).max_abs(), 0.0);
}

TEST(Sha1OnPipeline, InterpreterAgrees) {
  util::Rng rng(0x5A5);
  const auto block = random_block(rng);
  const auto program = assembler::assemble(generate_sha1_asm(block));
  sim::Interpreter interp(program);
  interp.run();
  Sha1State golden = sha1_init();
  sha1_compress(golden, block);
  EXPECT_EQ(read_digest(interp.memory(), program), golden.h);
}

}  // namespace
}  // namespace emask::sha
