// AES-128: golden FIPS-197 vectors and the simulated byte-per-word
// implementation under every masking policy.
#include <gtest/gtest.h>

#include "aes/aes128.hpp"
#include "aes/asm_generator.hpp"
#include "assembler/assembler.hpp"
#include "compiler/masking.hpp"
#include "core/masking_pipeline.hpp"
#include "sim/interpreter.hpp"
#include "sim/pipeline.hpp"
#include "util/rng.hpp"

namespace emask::aes {
namespace {

Key seq_key() {
  Key k;
  for (int i = 0; i < 16; ++i) k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return k;
}

Block fips_plain() {
  Block b;
  for (int i = 0; i < 16; ++i) {
    b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 16 + i);
  }
  return b;  // 00 11 22 ... ff
}

TEST(AesGolden, Fips197AppendixCVector) {
  const Block ct = encrypt_block(fips_plain(), seq_key());
  const Block expected = {0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30,
                          0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5, 0x5A};
  EXPECT_EQ(ct, expected);
}

TEST(AesGolden, Fips197AppendixBVector) {
  const Key key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                   0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
  const Block pt = {0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A, 0x30, 0x8D,
                    0x31, 0x31, 0x98, 0xA2, 0xE0, 0x37, 0x07, 0x34};
  const Block expected = {0x39, 0x25, 0x84, 0x1D, 0x02, 0xDC, 0x09, 0xFB,
                          0xDC, 0x11, 0x85, 0x97, 0x19, 0x6A, 0x0B, 0x32};
  EXPECT_EQ(encrypt_block(pt, key), expected);
}

TEST(AesGolden, SboxProperties) {
  // Bijection, fixed reference points, and inverse consistency.
  bool seen[256] = {};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = sbox(static_cast<std::uint8_t>(i));
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
    EXPECT_EQ(inv_sbox(s), static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(sbox(0x00), 0x63);
  EXPECT_EQ(sbox(0x01), 0x7C);
  EXPECT_EQ(sbox(0x53), 0xED);  // FIPS 197 example
}

TEST(AesGolden, DecryptInvertsEncrypt) {
  util::Rng rng(0xAE5);
  for (int trial = 0; trial < 100; ++trial) {
    Key key;
    Block pt;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(decrypt_block(encrypt_block(pt, key), key), pt);
  }
}

TEST(AesGolden, KeyScheduleFirstExpansion) {
  // FIPS 197 Appendix A.1: w[4] for the 2b7e... key is a0fafe17.
  const Key key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                   0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
  const KeySchedule ks = expand_key(key);
  EXPECT_EQ(ks.bytes[16], 0xA0);
  EXPECT_EQ(ks.bytes[17], 0xFA);
  EXPECT_EQ(ks.bytes[18], 0xFE);
  EXPECT_EQ(ks.bytes[19], 0x17);
}

TEST(AesGolden, XtimeMatchesDefinition) {
  EXPECT_EQ(xtime(0x57), 0xAE);
  EXPECT_EQ(xtime(0xAE), 0x47);  // FIPS 197 Sec. 4.2.1 example chain
  EXPECT_EQ(xtime(0x80), 0x1B);
}

// ---- On the simulated processor ----

TEST(AesOnPipeline, MatchesGoldenFipsVector) {
  const auto program =
      assembler::assemble(generate_aes_asm(seq_key(), fips_plain()));
  sim::Pipeline pipeline(program);
  pipeline.run();
  EXPECT_EQ(read_cipher(pipeline.memory(), program),
            encrypt_block(fips_plain(), seq_key()));
}

class AesPolicyTest : public ::testing::TestWithParam<compiler::Policy> {};

TEST_P(AesPolicyTest, CorrectUnderEveryPolicy) {
  util::Rng rng(0xAE6 + static_cast<std::uint64_t>(GetParam()));
  Key key;
  Block pt;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto pipeline =
      core::MaskingPipeline::from_source(generate_aes_asm(key, pt), GetParam());
  sim::Pipeline machine(pipeline.program());
  machine.run();
  EXPECT_EQ(read_cipher(machine.memory(), pipeline.program()),
            encrypt_block(pt, key));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AesPolicyTest,
                         ::testing::Values(compiler::Policy::kOriginal,
                                           compiler::Policy::kSelective,
                                           compiler::Policy::kNaiveLoadStore,
                                           compiler::Policy::kAllSecure),
                         [](const auto& info) {
                           return std::string(
                               compiler::policy_name(info.param));
                         });

TEST(AesOnPipeline, SliceCleanAndSecuresIndexing) {
  const auto pipeline = core::MaskingPipeline::from_source(
      generate_aes_asm(seq_key(), fips_plain()), compiler::Policy::kSelective);
  for (const auto& d : pipeline.mask_result().slice.diagnostics) {
    ADD_FAILURE() << "diagnostic: " << d.message;
  }
  EXPECT_GT(pipeline.mask_result().secured_count, 50u);
  EXPECT_LT(pipeline.mask_result().secured_count,
            pipeline.program().text.size());
}

TEST(AesOnPipeline, MaskingFlattensKeyDifferential) {
  const auto masked = core::MaskingPipeline::from_source(
      generate_aes_asm(seq_key(), fips_plain()), compiler::Policy::kSelective);
  Key key2 = seq_key();
  key2[5] ^= 0x20;
  assembler::Program image2 = masked.program();
  poke_key(image2, key2);
  const auto d = masked.run({.image = &masked.program()})
                     .trace.difference(masked.run({.image = &image2}).trace);
  // Flat everywhere except the final output loop (public ciphertext).
  const auto body = d.slice(0, d.size() - 400);
  EXPECT_EQ(body.max_abs(), 0.0);

  const auto original = core::MaskingPipeline::from_source(
      generate_aes_asm(seq_key(), fips_plain()), compiler::Policy::kOriginal);
  assembler::Program image2o = original.program();
  poke_key(image2o, key2);
  const auto d_orig =
      original.run({.image = &original.program()})
          .trace.difference(original.run({.image = &image2o}).trace);
  EXPECT_GT(d_orig.slice(0, d_orig.size() - 400).max_abs(), 0.0);
}

TEST(AesOnPipeline, DecryptionInvertsEncryptionOnSimulator) {
  util::Rng rng(0xAE7);
  for (int trial = 0; trial < 2; ++trial) {
    Key key;
    Block pt;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
    const Block ct = encrypt_block(pt, key);
    AesAsmOptions opts;
    opts.decrypt = true;
    const auto program = assembler::assemble(generate_aes_asm(key, ct, opts));
    sim::Pipeline machine(program);
    machine.run();
    EXPECT_EQ(read_cipher(machine.memory(), program), pt);
  }
}

TEST(AesOnPipeline, MaskedDecryptionCleanSliceAndCorrect) {
  AesAsmOptions opts;
  opts.decrypt = true;
  const Block ct = encrypt_block(fips_plain(), seq_key());
  const auto pipeline = core::MaskingPipeline::from_source(
      generate_aes_asm(seq_key(), ct, opts), compiler::Policy::kSelective);
  for (const auto& d : pipeline.mask_result().slice.diagnostics) {
    ADD_FAILURE() << "diagnostic: " << d.message;
  }
  sim::Pipeline machine(pipeline.program());
  machine.run();
  EXPECT_EQ(read_cipher(machine.memory(), pipeline.program()), fips_plain());
}

TEST(AesOnPipeline, InterpreterAgrees) {
  const auto program =
      assembler::assemble(generate_aes_asm(seq_key(), fips_plain()));
  sim::Interpreter interp(program);
  interp.run();
  EXPECT_EQ(read_cipher(interp.memory(), program),
            encrypt_block(fips_plain(), seq_key()));
}

}  // namespace
}  // namespace emask::aes
