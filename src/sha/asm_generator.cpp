#include "sha/asm_generator.hpp"

#include <sstream>
#include <stdexcept>

namespace emask::sha {
namespace {

void poke_words(assembler::Program& program, const char* symbol,
                const std::uint32_t* words, unsigned count) {
  const assembler::DataSymbol* s = program.find_symbol(symbol);
  if (s == nullptr || s->size_bytes < count * 4) {
    throw std::invalid_argument(std::string("sha: no symbol ") + symbol);
  }
  for (unsigned i = 0; i < count; ++i) {
    program.poke_word(s->address + i * 4, words[i]);
  }
}

/// Emits "rd = rotl(rsrc, n)" using the securable shift/or sequence.
void emit_rotl(std::ostringstream& os, const char* rd, const char* rsrc,
               int n) {
  os << "  sll  $at, " << rsrc << ", " << n << "\n";
  os << "  srl  " << rd << ", " << rsrc << ", " << (32 - n) << "\n";
  os << "  or   " << rd << ", " << rd << ", $at\n";
}

}  // namespace

std::string generate_sha1_asm(const std::array<std::uint32_t, 16>& block,
                              const Sha1AsmOptions& options) {
  std::ostringstream os;
  os << "# SHA-1 compression, one 512-bit block (generated)\n";
  os << ".data\n";
  os << "msg:\n";
  for (int i = 0; i < 16; ++i) {
    os << "  .word " << block[static_cast<std::size_t>(i)] << "\n";
  }
  if (options.secret_message) os << ".secret msg\n";
  os << "w:      .space 320\n";
  os << "hinit:  .word 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, "
        "0xC3D2E1F0\n";
  os << "kconst: .word 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6\n";
  os << "digest: .space 20\n";
  os << ".declassified digest\n";
  // -O0-style locals: t counter, scratch, and spilled base pointers.
  os << "sha_t:   .space 4\n";
  os << "sha_tmp: .space 4\n";
  os << "w_pt:    .space 4\n";
  os << "msg_pt:  .space 4\n";
  os << "kc_pt:   .space 4\n";

  os << "\n.text\nmain:\n";
  os << "  la   $gp, sha_t\n";
  os << "  la   $t0, w\n";
  os << "  sw   $t0, 8($gp)\n";    // w_pt
  os << "  la   $t0, msg\n";
  os << "  sw   $t0, 12($gp)\n";   // msg_pt
  os << "  la   $t0, kconst\n";
  os << "  sw   $t0, 16($gp)\n";   // kc_pt

  os << "# W[0..15] = msg[i]\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "wcopy:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  lw   $t0, 12($gp)\n";
  os << "  addu $t0, $t0, $t8\n";
  os << "  lw   $t1, 0($t0)\n";       // message word (secret)
  os << "  lw   $t2, 8($gp)\n";
  os << "  addu $t2, $t2, $t8\n";
  os << "  sw   $t1, 0($t2)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, wcopy\n";

  os << "# W[16..79] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16])\n";
  os << "wexpand:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  lw   $t0, 8($gp)\n";
  os << "  addu $t0, $t0, $t8\n";     // &W[t]
  os << "  lw   $t1, -12($t0)\n";
  os << "  lw   $t2, -32($t0)\n";
  os << "  xor  $t1, $t1, $t2\n";
  os << "  lw   $t2, -56($t0)\n";
  os << "  xor  $t1, $t1, $t2\n";
  os << "  lw   $t2, -64($t0)\n";
  os << "  xor  $t1, $t1, $t2\n";
  emit_rotl(os, "$t3", "$t1", 1);
  os << "  sw   $t3, 0($t0)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 80\n";
  os << "  bne  $t9, $k1, wexpand\n";

  os << "# chaining variables a..e in $s0..$s4 (public until round 1)\n";
  os << "  la   $t0, hinit\n";
  os << "  lw   $s0, 0($t0)\n";
  os << "  lw   $s1, 4($t0)\n";
  os << "  lw   $s2, 8($t0)\n";
  os << "  lw   $s3, 12($t0)\n";
  os << "  lw   $s4, 16($t0)\n";
  os << "  sw   $zero, 0($gp)\n";   // t = 0

  struct Segment {
    const char* label;
    int bound;
    int k_offset;
    int f_kind;  // 0 = Ch, 1 = parity, 2 = Maj
  };
  const Segment segments[] = {{"rounds_ch", 20, 0, 0},
                              {"rounds_par1", 40, 4, 1},
                              {"rounds_maj", 60, 8, 2},
                              {"rounds_par2", 80, 12, 1}};
  for (const Segment& seg : segments) {
    os << "# rounds " << (seg.bound - 20) << ".." << (seg.bound - 1) << "\n";
    os << seg.label << ":\n";
    // f(b, c, d) -> $t2
    switch (seg.f_kind) {
      case 0:  // Ch: (b & c) | (~b & d)
        os << "  and  $t2, $s1, $s2\n";
        os << "  nor  $t5, $s1, $zero\n";
        os << "  and  $t5, $t5, $s3\n";
        os << "  or   $t2, $t2, $t5\n";
        break;
      case 1:  // parity
        os << "  xor  $t2, $s1, $s2\n";
        os << "  xor  $t2, $t2, $s3\n";
        break;
      default:  // Maj: (b & c) | (b & d) | (c & d)
        os << "  and  $t2, $s1, $s2\n";
        os << "  and  $t5, $s1, $s3\n";
        os << "  or   $t2, $t2, $t5\n";
        os << "  and  $t5, $s2, $s3\n";
        os << "  or   $t2, $t2, $t5\n";
        break;
    }
    // temp = rotl5(a) + f + e + W[t] + K
    emit_rotl(os, "$t0", "$s0", 5);
    os << "  addu $t0, $t0, $t2\n";
    os << "  addu $t0, $t0, $s4\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  lw   $t3, 8($gp)\n";
    os << "  addu $t3, $t3, $t8\n";
    os << "  lw   $t3, 0($t3)\n";       // W[t] (secret-derived)
    os << "  addu $t0, $t0, $t3\n";
    os << "  lw   $t4, 16($gp)\n";
    os << "  lw   $t4, " << seg.k_offset << "($t4)\n";  // K (public constant)
    os << "  addu $t0, $t0, $t4\n";
    // e = d; d = c; c = rotl30(b); b = a; a = temp
    os << "  move $s4, $s3\n";
    os << "  move $s3, $s2\n";
    emit_rotl(os, "$s2", "$s1", 30);
    os << "  move $s1, $s0\n";
    os << "  move $s0, $t0\n";
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, " << seg.bound << "\n";
    os << "  bne  $t9, $k1, " << seg.label << "\n";
  }

  os << "# digest[i] = H[i] + {a..e}  (public output, Fig. 2(b) style)\n";
  os << "  la   $t6, hinit\n";
  os << "  la   $t7, digest\n";
  const char* vars[] = {"$s0", "$s1", "$s2", "$s3", "$s4"};
  for (int i = 0; i < 5; ++i) {
    os << "  lw   $t0, " << i * 4 << "($t6)\n";
    os << "  addu $t0, $t0, " << vars[i] << "\n";
    os << "  sw   $t0, " << i * 4 << "($t7)\n";
  }
  os << "  halt\n";
  return os.str();
}

void poke_message(assembler::Program& program,
                  const std::array<std::uint32_t, 16>& block) {
  poke_words(program, "msg", block.data(), 16);
}

}  // namespace emask::sha
