#include "aes/asm_generator.hpp"

#include <sstream>
#include <stdexcept>

namespace emask::aes {
namespace {

void emit_byte_words(std::ostringstream& os, const char* label,
                     const std::uint8_t* bytes, int count) {
  os << label << ":\n";
  for (int i = 0; i < count; ++i) {
    os << (i % 16 == 0 ? "  .word " : ", ")
       << static_cast<unsigned>(bytes[i]);
    if (i % 16 == 15 || i + 1 == count) os << '\n';
  }
}

void poke_byte_words(assembler::Program& program, const char* symbol,
                     const std::uint8_t* bytes, unsigned count) {
  const assembler::DataSymbol* s = program.find_symbol(symbol);
  if (s == nullptr || s->size_bytes < count * 4) {
    throw std::invalid_argument(std::string("aes: no symbol ") + symbol);
  }
  for (unsigned i = 0; i < count; ++i) {
    program.poke_word(s->address + i * 4, bytes[i]);
  }
}

/// Emits one MixColumns column (offsets are byte offsets of the column's
/// four state words).  Reads srbuf, writes state.  $s0 = state base,
/// $s1 = srbuf base, $s4 = xtime table base.
///
///   t = a0^a1^a2^a3
///   out_i = a_i ^ t ^ xtime(a_i ^ a_{i+1 mod 4})
void emit_mix_column(std::ostringstream& os, int column) {
  const int base = column * 16;  // 4 words of 4 bytes
  // a0..a3 -> $t0..$t3 (all secret-derived: secure loads).
  for (int r = 0; r < 4; ++r) {
    os << "  lw   $t" << r << ", " << (base + r * 4) << "($s1)\n";
  }
  os << "  xor  $t4, $t0, $t1\n";
  os << "  xor  $t4, $t4, $t2\n";
  os << "  xor  $t4, $t4, $t3\n";  // t
  for (int r = 0; r < 4; ++r) {
    const int next = (r + 1) % 4;
    os << "  xor  $t5, $t" << r << ", $t" << next << "\n";  // a_r ^ a_next
    os << "  sll  $t5, $t5, 2\n";                           // table offset
    os << "  addu $t5, $s4, $t5\n";  // secret-derived address
    os << "  lw   $t5, 0($t5)\n";    // xtime(...) — secure indexing
    os << "  xor  $t5, $t5, $t4\n";
    os << "  xor  $t5, $t5, $t" << r << "\n";
    os << "  sw   $t5, " << (base + r * 4) << "($s0)\n";
  }
}

}  // namespace

std::string generate_aes_asm(const Key& key, const Block& plaintext,
                             const AesAsmOptions& options) {
  std::ostringstream os;
  os << "# AES-128 encryption, byte-per-word layout (generated)\n";
  os << ".data\n";
  emit_byte_words(os, "key", key.data(), 16);
  os << ".secret key\n";
  emit_byte_words(os, "plain", plaintext.data(), 16);
  os << "cipher:  .space 64\n";
  os << ".declassified cipher\n";
  os << "state:   .space 64\n";
  os << "srbuf:   .space 64\n";   // ShiftRows output
  os << "rk:      .space 704\n";  // 176 round-key bytes
  os << "temp4:   .space 16\n";   // key-expansion word
  os << "aes_i:   .space 4\n";    // loop counters (-O0 style)
  os << "aes_w:   .space 4\n";
  os << "aes_r:   .space 4\n";

  // S-box, xtime and Rcon tables (word per byte value).
  std::array<std::uint8_t, 256> sbox_bytes, xtime_bytes;
  for (int i = 0; i < 256; ++i) {
    sbox_bytes[static_cast<std::size_t>(i)] =
        sbox(static_cast<std::uint8_t>(i));
    xtime_bytes[static_cast<std::size_t>(i)] =
        xtime(static_cast<std::uint8_t>(i));
  }
  emit_byte_words(os, "sbox_tab", sbox_bytes.data(), 256);
  emit_byte_words(os, "xtime_tab", xtime_bytes.data(), 256);
  if (options.decrypt) {
    std::array<std::uint8_t, 256> inv_sbox_bytes, g9, g11, g13, g14;
    for (int i = 0; i < 256; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      inv_sbox_bytes[static_cast<std::size_t>(i)] = inv_sbox(b);
      g9[static_cast<std::size_t>(i)] = gf_mul(b, 9);
      g11[static_cast<std::size_t>(i)] = gf_mul(b, 11);
      g13[static_cast<std::size_t>(i)] = gf_mul(b, 13);
      g14[static_cast<std::size_t>(i)] = gf_mul(b, 14);
    }
    emit_byte_words(os, "isbox_tab", inv_sbox_bytes.data(), 256);
    emit_byte_words(os, "g9_tab", g9.data(), 256);
    emit_byte_words(os, "g11_tab", g11.data(), 256);
    emit_byte_words(os, "g13_tab", g13.data(), 256);
    emit_byte_words(os, "g14_tab", g14.data(), 256);
    // Inverse ShiftRows source map: out[i] = in[isr[i]].
    os << "isr_tab:\n  .word ";
    for (int i = 0; i < 16; ++i) {
      const int r = i % 4, c = i / 4;
      os << (i ? ", " : "") << (r + 4 * ((c - r + 4) % 4)) * 4;
    }
    os << "\n";
  }
  std::array<std::uint8_t, 10> rcon_bytes;
  std::uint8_t rcon = 1;
  for (auto& b : rcon_bytes) {
    b = rcon;
    rcon = xtime(rcon);
  }
  emit_byte_words(os, "rcon_tab", rcon_bytes.data(), 10);
  // ShiftRows source map, as byte offsets: out[r+4c] = in[r + 4((c+r)%4)].
  os << "sr_tab:\n  .word ";
  for (int i = 0; i < 16; ++i) {
    const int r = i % 4, c = i / 4;
    os << (i ? ", " : "") << (r + 4 * ((c + r) % 4)) * 4;
  }
  os << "\n";

  os << "\n.text\nmain:\n";
  os << "  la   $gp, aes_i\n";
  os << "  la   $s0, state\n";
  os << "  la   $s1, srbuf\n";
  os << "  la   $s2, rk\n";
  os << "  la   $s3, sbox_tab\n";
  os << "  la   $s4, xtime_tab\n";
  os << "  la   $s5, temp4\n";

  os << "# round key 0 = the key itself\n";
  os << "  la   $t6, key\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "rk0_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $t6, $t8\n";
  os << "  lw   $t1, 0($t0)\n";       // key byte (secret)
  os << "  addu $t2, $s2, $t8\n";
  os << "  sw   $t1, 0($t2)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, rk0_loop\n";

  os << "# key expansion: words w = 4..43\n";
  os << "  li   $t9, 4\n";
  os << "  sw   $t9, 4($gp)\n";
  os << "kexp_loop:\n";
  os << "  lw   $t9, 4($gp)\n";
  os << "# temp[j] = rk[4(w-1)+j]\n";
  os << "  sll  $t8, $t9, 4\n";       // 16 bytes per key word
  os << "  addu $t0, $s2, $t8\n";
  os << "  addiu $t0, $t0, -16\n";    // &rk[4(w-1)]
  for (int j = 0; j < 4; ++j) {
    os << "  lw   $t1, " << j * 4 << "($t0)\n";
    os << "  sw   $t1, " << j * 4 << "($s5)\n";
  }
  os << "# every 4th word: rotate, substitute, fold in Rcon\n";
  os << "  andi $t1, $t9, 3\n";
  os << "  bne  $t1, $zero, kexp_noperm\n";
  // temp -> (sbox[t1]^rcon, sbox[t2], sbox[t3], sbox[t0])
  os << "  lw   $t0, 0($s5)\n";       // old temp[0] (saved in $t7)
  os << "  move $t7, $t0\n";
  for (int j = 0; j < 4; ++j) {
    const int src = (j + 1) % 4;
    if (src == 0) {
      os << "  move $t1, $t7\n";  // wrapped-around original temp[0]
    } else {
      os << "  lw   $t1, " << src * 4 << "($s5)\n";
    }
    os << "  sll  $t1, $t1, 2\n";
    os << "  addu $t1, $s3, $t1\n";
    os << "  lw   $t1, 0($t1)\n";     // sbox lookup (secure indexing)
    if (j == 0) {
      os << "  lw   $t2, 4($gp)\n";   // w
      os << "  srl  $t2, $t2, 2\n";
      os << "  addiu $t2, $t2, -1\n";  // rcon index (public)
      os << "  sll  $t2, $t2, 2\n";
      os << "  la   $t3, rcon_tab\n";
      os << "  addu $t3, $t3, $t2\n";
      os << "  lw   $t3, 0($t3)\n";   // rcon (public value)
      os << "  xor  $t1, $t1, $t3\n";
    }
    os << "  sw   $t1, " << j * 4 << "($s5)\n";
  }
  os << "kexp_noperm:\n";
  os << "# rk[4w+j] = rk[4(w-4)+j] ^ temp[j]\n";
  os << "  lw   $t9, 4($gp)\n";
  os << "  sll  $t8, $t9, 4\n";
  os << "  addu $t0, $s2, $t8\n";     // &rk[4w]
  for (int j = 0; j < 4; ++j) {
    os << "  lw   $t1, " << (j * 4 - 64) << "($t0)\n";  // rk[4(w-4)+j]
    os << "  lw   $t2, " << j * 4 << "($s5)\n";
    os << "  xor  $t1, $t1, $t2\n";
    os << "  sw   $t1, " << j * 4 << "($t0)\n";
  }
  os << "  lw   $t9, 4($gp)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 4($gp)\n";
  os << "  li   $k1, 44\n";
  os << "  bne  $t9, $k1, kexp_loop\n";

  if (options.decrypt) {
    os << "# initial AddRoundKey with rk[10]: state[i] = plain[i] ^ rk[160+i]\n";
    os << "  la   $t6, plain\n";
    os << "  la   $a0, g9_tab\n";
    os << "  la   $a1, g11_tab\n";
    os << "  la   $a2, g13_tab\n";
    os << "  la   $a3, g14_tab\n";
    os << "  sw   $zero, 0($gp)\n";
    os << "ark10_loop:\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  addu $t0, $t6, $t8\n";
    os << "  lw   $t1, 0($t0)\n";
    os << "  addu $t2, $s2, $t8\n";
    os << "  lw   $t3, 640($t2)\n";
    os << "  xor  $t1, $t1, $t3\n";
    os << "  addu $t4, $s0, $t8\n";
    os << "  sw   $t1, 0($t4)\n";
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, 16\n";
    os << "  bne  $t9, $k1, ark10_loop\n";

    os << "# rounds r = 9 down to 1\n";
    os << "  li   $t9, 9\n";
    os << "  sw   $t9, 8($gp)\n";
    os << "dround_loop:\n";
    os << "# InvShiftRows: srbuf[i] = state[isr_tab[i]]\n";
    os << "  la   $t6, isr_tab\n";
    os << "  sw   $zero, 0($gp)\n";
    os << "disr_loop:\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  addu $t0, $t6, $t8\n";
    os << "  lw   $t1, 0($t0)\n";
    os << "  addu $t1, $s0, $t1\n";
    os << "  lw   $t2, 0($t1)\n";
    os << "  addu $t3, $s1, $t8\n";
    os << "  sw   $t2, 0($t3)\n";
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, 16\n";
    os << "  bne  $t9, $k1, disr_loop\n";
    os << "# InvSubBytes (srbuf, in place) + AddRoundKey rk[r]\n";
    os << "  la   $t6, isbox_tab\n";
    os << "  lw   $t9, 8($gp)\n";
    os << "  sll  $t7, $t9, 6\n";
    os << "  addu $t7, $s2, $t7\n";
    os << "  sw   $zero, 0($gp)\n";
    os << "dsub_loop:\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  addu $t0, $s1, $t8\n";
    os << "  lw   $t1, 0($t0)\n";
    os << "  sll  $t1, $t1, 2\n";
    os << "  addu $t1, $t6, $t1\n";
    os << "  lw   $t1, 0($t1)\n";       // secure indexing
    os << "  addu $t2, $t7, $t8\n";
    os << "  lw   $t3, 0($t2)\n";
    os << "  xor  $t1, $t1, $t3\n";
    os << "  sw   $t1, 0($t0)\n";
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, 16\n";
    os << "  bne  $t9, $k1, dsub_loop\n";
    os << "# InvMixColumns (srbuf -> state) via the g-tables\n";
    for (int c = 0; c < 4; ++c) {
      const int base = c * 16;
      for (int r = 0; r < 4; ++r) {
        os << "  lw   $t" << r << ", " << (base + r * 4) << "($s1)\n";
      }
      static const int kFactors[4][4] = {{14, 11, 13, 9},
                                         {9, 14, 11, 13},
                                         {13, 9, 14, 11},
                                         {11, 13, 9, 14}};
      static const char* kTableReg[15] = {};
      for (int row = 0; row < 4; ++row) {
        for (int j = 0; j < 4; ++j) {
          const int f = kFactors[row][j];
          const char* tab = f == 9 ? "$a0" : f == 11 ? "$a1"
                            : f == 13 ? "$a2" : "$a3";
          os << "  sll  $t5, $t" << j << ", 2\n";
          os << "  addu $t5, " << tab << ", $t5\n";
          os << "  lw   $t5, 0($t5)\n";   // secure indexing
          if (j == 0) {
            os << "  move $t4, $t5\n";
          } else {
            os << "  xor  $t4, $t4, $t5\n";
          }
        }
        os << "  sw   $t4, " << (base + row * 4) << "($s0)\n";
      }
      (void)kTableReg;
    }
    os << "  lw   $t9, 8($gp)\n";
    os << "  addiu $t9, $t9, -1\n";
    os << "  sw   $t9, 8($gp)\n";
    os << "  bne  $t9, $zero, dround_loop\n";

    os << "# final: InvShiftRows, InvSubBytes, AddRoundKey rk[0] -> cipher\n";
    os << "  la   $t6, isr_tab\n";
    os << "  sw   $zero, 0($gp)\n";
    os << "fisr_loop:\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  addu $t0, $t6, $t8\n";
    os << "  lw   $t1, 0($t0)\n";
    os << "  addu $t1, $s0, $t1\n";
    os << "  lw   $t2, 0($t1)\n";
    os << "  addu $t3, $s1, $t8\n";
    os << "  sw   $t2, 0($t3)\n";
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, 16\n";
    os << "  bne  $t9, $k1, fisr_loop\n";
    os << "  la   $t6, isbox_tab\n";
    os << "  la   $t5, cipher\n";
    os << "  sw   $zero, 0($gp)\n";
    os << "dout_loop:\n";
    os << "  lw   $t9, 0($gp)\n";
    os << "  sll  $t8, $t9, 2\n";
    os << "  addu $t0, $s1, $t8\n";
    os << "  lw   $t1, 0($t0)\n";
    os << "  sll  $t1, $t1, 2\n";
    os << "  addu $t1, $t6, $t1\n";
    os << "  lw   $t1, 0($t1)\n";
    os << "  addu $t2, $s2, $t8\n";
    os << "  lw   $t3, 0($t2)\n";       // rk[0] bytes
    os << "  xor  $t1, $t1, $t3\n";
    os << "  addu $t4, $t5, $t8\n";
    os << "  sw   $t1, 0($t4)\n";       // recovered plaintext: public
    os << "  addiu $t9, $t9, 1\n";
    os << "  sw   $t9, 0($gp)\n";
    os << "  li   $k1, 16\n";
    os << "  bne  $t9, $k1, dout_loop\n";
    os << "  halt\n";
    return os.str();
  }

  os << "# initial AddRoundKey: state[i] = plain[i] ^ rk[i]\n";
  os << "  la   $t6, plain\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "ark0_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $t6, $t8\n";
  os << "  lw   $t1, 0($t0)\n";       // plaintext byte (public)
  os << "  addu $t2, $s2, $t8\n";
  os << "  lw   $t3, 0($t2)\n";       // key byte (secret)
  os << "  xor  $t1, $t1, $t3\n";
  os << "  addu $t4, $s0, $t8\n";
  os << "  sw   $t1, 0($t4)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, ark0_loop\n";

  os << "# rounds 1..9\n";
  os << "  li   $t9, 1\n";
  os << "  sw   $t9, 8($gp)\n";
  os << "round_loop:\n";
  os << "# SubBytes (in place)\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "sub_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $s0, $t8\n";
  os << "  lw   $t1, 0($t0)\n";
  os << "  sll  $t1, $t1, 2\n";
  os << "  addu $t1, $s3, $t1\n";
  os << "  lw   $t1, 0($t1)\n";       // sbox (secure indexing)
  os << "  sw   $t1, 0($t0)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, sub_loop\n";
  os << "# ShiftRows: srbuf[i] = state[sr_tab[i]]\n";
  os << "  la   $t6, sr_tab\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "sr_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $t6, $t8\n";
  os << "  lw   $t1, 0($t0)\n";       // source offset (public)
  os << "  addu $t1, $s0, $t1\n";
  os << "  lw   $t2, 0($t1)\n";
  os << "  addu $t3, $s1, $t8\n";
  os << "  sw   $t2, 0($t3)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, sr_loop\n";
  os << "# MixColumns (srbuf -> state)\n";
  for (int c = 0; c < 4; ++c) emit_mix_column(os, c);
  os << "# AddRoundKey: state[i] ^= rk[16r + i]\n";
  os << "  lw   $t9, 8($gp)\n";
  os << "  sll  $t7, $t9, 6\n";       // 64 bytes per round key
  os << "  addu $t7, $s2, $t7\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "ark_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $s0, $t8\n";
  os << "  lw   $t1, 0($t0)\n";
  os << "  addu $t2, $t7, $t8\n";
  os << "  lw   $t3, 0($t2)\n";
  os << "  xor  $t1, $t1, $t3\n";
  os << "  sw   $t1, 0($t0)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, ark_loop\n";
  os << "  lw   $t9, 8($gp)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 8($gp)\n";
  os << "  li   $k1, 10\n";
  os << "  bne  $t9, $k1, round_loop\n";

  os << "# final round: SubBytes, ShiftRows, AddRoundKey -> cipher\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "fsub_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $s0, $t8\n";
  os << "  lw   $t1, 0($t0)\n";
  os << "  sll  $t1, $t1, 2\n";
  os << "  addu $t1, $s3, $t1\n";
  os << "  lw   $t1, 0($t1)\n";
  os << "  sw   $t1, 0($t0)\n";
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, fsub_loop\n";
  os << "  la   $t6, sr_tab\n";
  os << "  la   $t5, cipher\n";
  os << "  sw   $zero, 0($gp)\n";
  os << "fout_loop:\n";
  os << "  lw   $t9, 0($gp)\n";
  os << "  sll  $t8, $t9, 2\n";
  os << "  addu $t0, $t6, $t8\n";
  os << "  lw   $t1, 0($t0)\n";       // ShiftRows source offset
  os << "  addu $t1, $s0, $t1\n";
  os << "  lw   $t2, 0($t1)\n";       // shifted state byte (secret-derived)
  os << "  addu $t3, $s2, $t8\n";
  os << "  lw   $t3, 640($t3)\n";     // rk[160 + i]
  os << "  xor  $t2, $t2, $t3\n";
  os << "  addu $t4, $t5, $t8\n";
  os << "  sw   $t2, 0($t4)\n";       // ciphertext byte: public, insecure
  os << "  addiu $t9, $t9, 1\n";
  os << "  sw   $t9, 0($gp)\n";
  os << "  li   $k1, 16\n";
  os << "  bne  $t9, $k1, fout_loop\n";
  os << "  halt\n";
  return os.str();
}

void poke_plaintext(assembler::Program& program, const Block& plaintext) {
  poke_byte_words(program, "plain", plaintext.data(), 16);
}

Block read_cipher(const sim::DataMemory& memory,
                  const assembler::Program& program) {
  const assembler::DataSymbol* s = program.find_symbol("cipher");
  if (s == nullptr || s->size_bytes < 64) {
    throw std::invalid_argument("aes: no cipher symbol");
  }
  Block out;
  for (unsigned i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(memory.load_word(s->address + i * 4));
  }
  return out;
}

}  // namespace emask::aes
