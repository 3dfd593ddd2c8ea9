// The framework is not DES-specific ("our approach is general and can be
// extended to other algorithms").  This example protects a different
// program: a 4-round XOR-rotate toy cipher written directly in the target
// assembly, with its key annotated `.secret`.  The same compiler pass
// finds the slice, the same hardware masks it, and the same differential
// experiment shows the leak disappearing.
#include <cstdio>

#include "core/masking_pipeline.hpp"

using namespace emask;

namespace {

// state[i] ^= key[i]; state rotated by one word each round.
constexpr const char* kToyCipher = R"(
.data
key:    .word 0x5a, 0x33, 0x0f, 0xc4
.secret key
state:  .word 0x11, 0x22, 0x33, 0x44
out:    .space 16
.declassified out
locals: .space 8      # round counter, loop counter

.text
main:
  la   $gp, locals
  sw   $zero, 0($gp)          # round = 0
round:
  # state[i] ^= key[i]
  sw   $zero, 4($gp)
  la   $s0, key
  la   $s1, state
mix:
  lw   $t9, 4($gp)
  sll  $t8, $t9, 2
  addu $t0, $s0, $t8
  lw   $t1, 0($t0)            # key word (secure)
  addu $t2, $s1, $t8
  lw   $t3, 0($t2)            # state word (secure after round 1)
  xor  $t4, $t1, $t3          # secure xor
  sw   $t4, 0($t2)            # secure store
  addiu $t9, $t9, 1
  sw   $t9, 4($gp)
  li   $k1, 4
  bne  $t9, $k1, mix
  # rotate: tmp = state[0]; state[i] = state[i+1]; state[3] = tmp
  lw   $t5, 0($s1)
  lw   $t6, 4($s1)
  sw   $t6, 0($s1)
  lw   $t6, 8($s1)
  sw   $t6, 4($s1)
  lw   $t6, 12($s1)
  sw   $t6, 8($s1)
  sw   $t5, 12($s1)
  lw   $t9, 0($gp)
  addiu $t9, $t9, 1
  sw   $t9, 0($gp)
  li   $k1, 4
  bne  $t9, $k1, round
  # publish the ciphertext
  la   $s2, out
  lw   $t0, 0($s1)
  sw   $t0, 0($s2)
  lw   $t0, 4($s1)
  sw   $t0, 4($s2)
  lw   $t0, 8($s1)
  sw   $t0, 8($s2)
  lw   $t0, 12($s1)
  sw   $t0, 12($s2)
  halt
)";

}  // namespace

int main() {
  const auto original = core::MaskingPipeline::from_source(
      kToyCipher, compiler::Policy::kOriginal);
  const auto masked = core::MaskingPipeline::from_source(
      kToyCipher, compiler::Policy::kSelective);

  std::printf("toy cipher: %zu instructions, %zu secured by the slice\n",
              masked.program().text.size(),
              masked.mask_result().secured_count);
  for (const auto& d : masked.mask_result().slice.diagnostics) {
    std::printf("diagnostic: line %d: %s\n", d.source_line, d.message.c_str());
  }

  const auto run = masked.run({.image = &masked.program()});
  std::printf("energy: %.3f uJ over %llu cycles (unmasked: %.3f uJ)\n",
              run.total_uj(),
              static_cast<unsigned long long>(run.sim.cycles),
              original.run({.image = &original.program()}).total_uj());

  // Differential check with a one-bit key change.  Poking the data image
  // directly plays the role of personalizing the card with a new key.
  auto run_with_key_bit_flipped = [&](const core::MaskingPipeline& p) {
    assembler::Program prog = p.program();
    const auto* key = prog.find_symbol("key");
    prog.poke_word(key->address, prog.initial_word(key->address) ^ 1u);
    return p.run({.image = &prog}).trace;
  };

  const auto d_orig = original.run({.image = &original.program()})
                          .trace.difference(run_with_key_bit_flipped(original));
  const auto d_mask = masked.run({.image = &masked.program()})
                          .trace.difference(run_with_key_bit_flipped(masked));
  std::printf("key-bit differential, unmasked: max |diff| = %.2f pJ\n",
              d_orig.max_abs());
  std::printf("key-bit differential, masked  : max |diff| = %.2f pJ "
              "(flat up to the declassified output)\n",
              d_mask.slice(0, d_mask.size() - 200).max_abs());
  return 0;
}
