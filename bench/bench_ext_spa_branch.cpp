// Extension L: the secret-dependent-branch leak of the paper's Sec. 1, end
// to end.
//
//   "From this power trace, an attacker can identify the operations being
//    performed (such as whether a branch at point p is taken or not) ...
//    when a branch is taken based on a particular bit of a secret key being
//    zero, the attacker can identify this bit by monitoring the power
//    consumption difference between a taken and not taken branch.
//    Protecting against this type of simple attack can be achieved fairly
//    easily by restructuring the code."  (Sec. 1, citing Coron [3])
//
// A square-and-multiply-shaped kernel (per key bit: always do work A; if
// the bit is set, also do work B) is run in two versions:
//
//   v1 (branchy)     — the classic leak.  The masking compiler *diagnoses*
//                      it (kTaintedBranch: no secure branch exists), SPA
//                      reads every key bit out of one trace, and the cycle
//                      count itself is key-dependent (a timing channel).
//   v2 (branch-free) — the restructured code: the conditional work always
//                      executes against a mask built with securable shifts;
//                      constant time, no diagnostics, flat once masked.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compiler/masking.hpp"
#include "util/csv.hpp"

using namespace emask;

namespace {

/// 8 secret bits, MSB first.
std::string kernel_source(unsigned key_bits, bool branch_free) {
  std::string data = R"(
.data
skey:)";
  for (int i = 7; i >= 0; --i) {
    data += (i == 7 ? " .word " : ", ");
    data += std::to_string((key_bits >> i) & 1u);
  }
  data += R"(
.secret skey
st:    .word 0x1234
cval:  .word 0x5A
var_i: .space 4
)";
  std::string body = R"(
.text
main:
  la   $gp, var_i
  la   $s0, st
  la   $s1, skey
  la   $s2, cval
  sw   $zero, 0($gp)
loop:
  lw   $t9, 0($gp)
# work A ("square"): state ^= rotl3(state)
  lw   $t0, 0($s0)
  sll  $t1, $t0, 3
  srl  $t2, $t0, 29
  or   $t1, $t1, $t2
  xor  $t0, $t0, $t1
  sw   $t0, 0($s0)
# fetch key bit i
  sll  $t8, $t9, 2
  addu $t3, $s1, $t8
  lw   $t4, 0($t3)
)";
  if (branch_free) {
    body += R"(# work B, unconditionally, against a key-bit mask (Coron-style)
  sll  $t5, $t4, 31
  sra  $t5, $t5, 31      # mask = bit ? ~0 : 0   (securable shifts)
  lw   $t6, 0($s2)
  and  $t6, $t6, $t5     # C or 0
  xor  $t0, $t0, $t6
  sll  $t7, $t6, 1
  xor  $t0, $t0, $t7
  sw   $t0, 0($s0)
)";
  } else {
    body += R"(# work B only when the key bit is set  <-- THE LEAK
  beq  $t4, $zero, skip
  lw   $t6, 0($s2)
  xor  $t0, $t0, $t6
  sll  $t7, $t6, 1
  xor  $t0, $t0, $t7
  sw   $t0, 0($s0)
skip:
)";
  }
  body += R"(  addiu $t9, $t9, 1
  sw   $t9, 0($gp)
  li   $k1, 8
  bne  $t9, $k1, loop
  halt
)";
  return data + body;
}

}  // namespace

int main() {
  bench::print_banner("Extension L",
                      "Secret-dependent branches: SPA bit readout + timing "
                      "channel, and the branch-free restructuring.");
  const unsigned key = 0b10110010u;

  // --- v1: the branchy kernel ---
  const auto v1 = core::MaskingPipeline::from_source(
      kernel_source(key, /*branch_free=*/false), compiler::Policy::kSelective);
  std::printf("v1 (branchy) compiler diagnostics:\n");
  std::size_t branch_diags = 0;
  for (const auto& d : v1.mask_result().slice.diagnostics) {
    if (d.kind == compiler::DiagnosticKind::kTaintedBranch) ++branch_diags;
    std::printf("  line %d: %s\n", d.source_line, d.message.c_str());
  }

  // SPA: one trace, read the bits from the per-iteration spacing.
  const auto starts = bench::label_fetch_cycles(v1.program(), "loop");
  const auto run1 = v1.run({.image = &v1.program()});
  std::vector<std::uint64_t> lengths;
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    lengths.push_back(starts[i + 1] - starts[i]);
  }
  // Threshold at the midpoint of observed iteration lengths (the attacker
  // needs no calibration beyond the trace itself).
  const auto [lo, hi] = std::minmax_element(lengths.begin(), lengths.end());
  const double mid = (static_cast<double>(*lo) + static_cast<double>(*hi)) / 2;
  unsigned recovered = 0;
  std::printf("\nv1 single-trace SPA: iteration lengths ");
  for (const std::uint64_t len : lengths) {
    std::printf("%llu ", static_cast<unsigned long long>(len));
    recovered = (recovered << 1) | (static_cast<double>(len) > mid ? 1u : 0u);
  }
  // The final iteration drains to halt instead of taking the backedge, so
  // its length sits one flush (~4 cycles) below the loop iterations'.
  const std::uint64_t tail = run1.sim.cycles - starts.back();
  recovered = (recovered << 1) |
              (static_cast<double>(tail) > mid - 4.0 ? 1u : 0u);
  std::printf("(tail %llu)\n", static_cast<unsigned long long>(tail));
  std::printf("key bits: true %02X, recovered from ONE trace: %02X -> %s\n",
              key, recovered, recovered == key ? "ALL BITS READ" : "partial");

  // Timing channel: cycle count depends on the key's Hamming weight.
  util::CsvWriter csv(bench::out_dir() + "/ext_spa_branch.csv");
  csv.write_header({"key_hamming_weight", "v1_cycles", "v2_cycles"});
  std::printf("\n%12s %12s %12s\n", "key HW", "v1 cycles", "v2 cycles");
  bool v1_varies = false, v2_constant = true;
  std::uint64_t v1_first = 0, v2_first = 0;
  for (const unsigned k : {0x00u, 0x01u, 0x0Fu, 0xFFu}) {
    const auto p1 = core::MaskingPipeline::from_source(
        kernel_source(k, false), compiler::Policy::kOriginal);
    const auto p2 = core::MaskingPipeline::from_source(
        kernel_source(k, true), compiler::Policy::kOriginal);
    const std::uint64_t c1 = p1.run({.image = &p1.program()}).sim.cycles;
    const std::uint64_t c2 = p2.run({.image = &p2.program()}).sim.cycles;
    std::printf("%12d %12llu %12llu\n", std::popcount(k),
                static_cast<unsigned long long>(c1),
                static_cast<unsigned long long>(c2));
    csv.write_row({static_cast<double>(std::popcount(k)),
                   static_cast<double>(c1), static_cast<double>(c2)});
    if (v1_first == 0) v1_first = c1;
    if (v2_first == 0) v2_first = c2;
    v1_varies |= c1 != v1_first;
    v2_constant &= c2 == v2_first;
  }

  // --- v2: restructured, then masked ---
  const auto v2 = core::MaskingPipeline::from_source(
      kernel_source(key, /*branch_free=*/true), compiler::Policy::kSelective);
  std::printf("\nv2 (branch-free) diagnostics: %zu\n",
              v2.mask_result().slice.diagnostics.size());
  assembler::Program flipped = v2.program();
  flipped.poke_word(flipped.find_symbol("skey")->address, 1u ^
                    flipped.initial_word(flipped.find_symbol("skey")->address));
  const auto d = v2.run({.image = &v2.program()})
                     .trace.difference(v2.run({.image = &flipped}).trace);
  std::printf("v2 masked key-bit differential: max |diff| = %.6f pJ\n",
              d.max_abs());

  const bool ok = branch_diags > 0 && recovered == key && v1_varies &&
                  v2_constant &&
                  v2.mask_result().slice.diagnostics.empty() &&
                  d.max_abs() == 0.0;
  std::printf("\nbranchy version: diagnosed, SPA-readable, timing-leaky.\n"
              "restructured version: clean compile, constant time, flat "
              "under masking.\n");
  return ok ? 0 : 1;
}
