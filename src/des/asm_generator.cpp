#include "des/asm_generator.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "des/tables.hpp"
#include "util/bitops.hpp"

namespace emask::des {
namespace {

/// Emits a `.word` table of byte offsets: entry v (1-based bit number)
/// becomes (v-1)*4, so the program indexes bit arrays without runtime
/// subtraction or scaling.
template <std::size_t N>
void emit_offset_table(std::ostringstream& os, const char* label,
                       const std::array<int, N>& table) {
  os << label << ":\n";
  for (std::size_t i = 0; i < N; ++i) {
    os << (i % 8 == 0 ? "  .word " : ", ") << (table[i] - 1) * 4;
    if (i % 8 == 7 || i + 1 == N) os << '\n';
  }
}

void emit_bit_words(std::ostringstream& os, const char* label,
                    std::uint64_t block) {
  os << label << ":\n";
  for (unsigned i = 0; i < 64; ++i) {
    os << (i % 16 == 0 ? "  .word " : ", ")
       << util::bit_of64(block, 63 - i);
    if (i % 16 == 15) os << '\n';
  }
}

void poke_block(assembler::Program& program, const char* symbol,
                std::uint64_t block) {
  const assembler::DataSymbol* s = program.find_symbol(symbol);
  if (s == nullptr || s->size_bytes < 64 * 4) {
    throw std::invalid_argument(std::string("poke_block: no symbol ") +
                                symbol);
  }
  for (unsigned i = 0; i < 64; ++i) {
    program.poke_word(s->address + i * 4,
                      static_cast<std::uint32_t>(util::bit_of64(block, 63 - i)));
  }
}

// The program text reproduces the *shape* of the paper's compiled code
// (Fig. 4): unoptimized output with memory-resident locals.  Every loop
// iteration reloads its counter ("lw $2,i"), reloads its spilled base
// pointers, recomputes addresses, and stores the counter back before the
// backedge.  This shape is load-bearing for the evaluation — it is why the
// selective scheme secures only a fraction of the executed loads/stores
// ("we increase the energy cost of only one of the four load operations
// executed in the segment") while the naive scheme pays for all of them.
//
// Locals and spilled pointers live in individual 4-byte data symbols laid
// out consecutively and addressed as fixed offsets from $gp (which holds
// the first local's address).  One symbol per slot keeps the compiler's
// region-level points-to summaries precise.
class Slots {
 public:
  int declare(const std::string& name) {
    const int off = next_;
    next_ += 4;
    order_.push_back(name);
    offsets_[name] = off;
    return off;
  }
  [[nodiscard]] std::string at(const std::string& name) const {
    return std::to_string(offsets_.at(name)) + "($gp)";
  }
  void emit_data(std::ostringstream& os) const {
    for (const std::string& n : order_) os << n << ": .space 4\n";
  }
  [[nodiscard]] const std::string& first() const { return order_.front(); }

 private:
  int next_ = 0;
  std::vector<std::string> order_;
  std::map<std::string, int> offsets_;
};

class TextEmitter {
 public:
  TextEmitter(std::ostringstream& os, const Slots& slots)
      : os_(os), slots_(slots) {}

  void line(const std::string& s) { os_ << "  " << s << '\n'; }
  void label(const std::string& l) { os_ << l << ":\n"; }
  void comment(const std::string& c) { os_ << "# " << c << '\n'; }

  /// Spills the address of data symbol `sym` (+ byte offset) into a slot.
  void spill(const std::string& slot, const std::string& sym, int offset = 0) {
    line("la   $t0, " + sym);
    if (offset != 0) {
      line("addiu $t0, $t0, " + std::to_string(offset));
    }
    line("sw   $t0, " + slots_.at(slot));
  }

  /// for (i = 0; i < n; ++i) dst[i] = src[tab[i]];  all bases spilled.
  void perm_loop(const std::string& name, int n, const std::string& tab_slot,
                 const std::string& src_slot, const std::string& dst_slot) {
    line("sw   $zero, " + slots_.at("var_i"));
    label(name);
    line("lw   $t9, " + slots_.at("var_i"));
    line("sll  $t8, $t9, 2");
    line("lw   $t0, " + slots_.at(tab_slot));
    line("addu $t0, $t0, $t8");
    line("lw   $t1, 0($t0)");          // table entry: public byte offset
    line("lw   $t2, " + slots_.at(src_slot));
    line("addu $t2, $t2, $t1");
    line("lw   $t3, 0($t2)");          // the data bit
    line("lw   $t4, " + slots_.at(dst_slot));
    line("addu $t4, $t4, $t8");
    line("sw   $t3, 0($t4)");
    step_i(name, n);
  }

  /// for (i = 0; i < n; ++i) dst[i] = src[i];
  void copy_loop(const std::string& name, int n, const std::string& src_slot,
                 const std::string& dst_slot) {
    line("sw   $zero, " + slots_.at("var_i"));
    label(name);
    line("lw   $t9, " + slots_.at("var_i"));
    line("sll  $t8, $t9, 2");
    line("lw   $t0, " + slots_.at(src_slot));
    line("addu $t0, $t0, $t8");
    line("lw   $t1, 0($t0)");
    line("lw   $t2, " + slots_.at(dst_slot));
    line("addu $t2, $t2, $t8");
    line("sw   $t1, 0($t2)");
    step_i(name, n);
  }

  /// for (i = 0; i < n; ++i) dst[i] ^= src[i];  (CBC chaining XOR)
  void xor_into_loop(const std::string& name, int n,
                     const std::string& src_slot,
                     const std::string& dst_slot) {
    line("sw   $zero, " + slots_.at("var_i"));
    label(name);
    line("lw   $t9, " + slots_.at("var_i"));
    line("sll  $t8, $t9, 2");
    line("lw   $t0, " + slots_.at(dst_slot));
    line("addu $t0, $t0, $t8");
    line("lw   $t1, 0($t0)");
    line("lw   $t2, " + slots_.at(src_slot));
    line("addu $t2, $t2, $t8");
    line("lw   $t3, 0($t2)");
    line("xor  $t4, $t1, $t3");
    line("sw   $t4, 0($t0)");
    step_i(name, n);
  }

  /// Rotates the 28 words whose base address is in `base_slot` left by one.
  void rotate_once(const std::string& name, const std::string& base_slot) {
    line("lw   $t0, " + slots_.at(base_slot));
    line("lw   $v1, 0($t0)");  // saved element 0 (key-derived)
    line("sw   $zero, " + slots_.at("var_i"));
    label(name);
    line("lw   $t9, " + slots_.at("var_i"));
    line("sll  $t8, $t9, 2");
    line("lw   $t0, " + slots_.at(base_slot));
    line("addu $t0, $t0, $t8");
    line("lw   $t1, 4($t0)");
    line("sw   $t1, 0($t0)");
    step_i(name, 27);
    line("lw   $t0, " + slots_.at(base_slot));
    line("sw   $v1, 108($t0)");
  }

  /// Rotates the 28 words whose base address is in `base_slot` RIGHT by
  /// one (decryption key schedule): cd[i] = cd[i-1] for i = 27..1, then
  /// cd[0] = saved cd[27].
  void rotate_once_right(const std::string& name,
                         const std::string& base_slot) {
    line("lw   $t0, " + slots_.at(base_slot));
    line("lw   $v1, 108($t0)");  // saved element 27 (key-derived)
    line("li   $t9, 27");
    line("sw   $t9, " + slots_.at("var_i"));
    label(name);
    line("lw   $t9, " + slots_.at("var_i"));
    line("sll  $t8, $t9, 2");
    line("lw   $t0, " + slots_.at(base_slot));
    line("addu $t0, $t0, $t8");
    line("lw   $t1, -4($t0)");
    line("sw   $t1, 0($t0)");
    o0_filler();
    line("sw   $t8, " + slots_.at("var_t"));
    line("lw   $at, " + slots_.at("var_t"));
    line("addiu $t9, $t9, -1");
    line("sw   $t9, " + slots_.at("var_i"));
    line("bne  $t9, $zero, " + name);
    line("lw   $t0, " + slots_.at(base_slot));
    line("sw   $v1, 0($t0)");
  }

  /// Register-shuffle filler in the style of unoptimized compiler output
  /// (cf. the paper's Fig. 4: "addu $3,$2,$4 / move $2,$3 / sll $3,$4,2").
  /// Touches only public values, so no masking policy ever secures it.
  void o0_filler() {
    line("move $v0, $t8");
    line("sll  $at, $v0, 1");
    line("addu $v0, $at, $t9");
    line("move $at, $v0");
  }

  void step_i(const std::string& loop, int n) {
    o0_filler();
    line("sw   $t8, " + slots_.at("var_t"));  // -O0 scratch spill
    line("lw   $at, " + slots_.at("var_t"));
    line("addiu $t9, $t9, 1");
    line("sw   $t9, " + slots_.at("var_i"));
    line("li   $k1, " + std::to_string(n));
    line("bne  $t9, $k1, " + loop);
  }

 private:
  std::ostringstream& os_;
  const Slots& slots_;
};

}  // namespace

std::string generate_des_asm(std::uint64_t key, std::uint64_t plaintext,
                             const DesAsmOptions& options) {
  const bool hoist = options.hoist_key_schedule;
  Slots slots;
  for (const char* counter : {"var_i", "var_m", "var_n", "var_s", "var_t"}) {
    slots.declare(counter);
  }
  for (const char* slot :
       {"ip_pt",  "ip_ps",  "ip_pd",  "pc1_pt", "pc1_ps", "pc1_pd",
        "pc2_pt", "pc2_ps", "pc2_pd", "e_pt",   "e_ps",   "e_pd",
        "p_pt",   "p_ps",   "p_pd",   "fp_pt",  "fp_ps",  "fp_pd",
        "xor_pa", "xor_pb", "sb_pe",  "sb_po",  "sb_pb",  "upd_pl",
        "upd_pr", "upd_pf", "rotc_pb", "rotd_pb", "prer_ps", "prer_pd",
        "prel_ps", "prel_pd", "sh_pt"}) {
    slots.declare(slot);
  }
  if (hoist) slots.declare("ks_pb");  // base of the precomputed subkeys
  if (options.cbc_chain) {
    slots.declare("cbc_ps");  // iv base
    slots.declare("cbc_pd");  // chain destination (plain or cipher)
  }
  if (options.shuffle_slots) slots.declare("nop_pb");  // delay table base

  std::ostringstream os;
  os << "# DES encryption, bit-per-word layout (generated)\n";
  os << ".data\n";
  emit_bit_words(os, "key", key);
  if (options.secret_key) os << ".secret key\n";
  emit_bit_words(os, "plain", plaintext);
  if (options.cbc_chain) os << "iv:      .space 256\n";  // chaining value
  os << "cipher:  .space 256\n";
  if (options.declassify_output) os << ".declassified cipher\n";
  os << "lr:      .space 256\n";   // L = lr[0..31], R = lr[32..63]
  os << "cd:      .space 224\n";   // C = cd[0..27], D = cd[28..55]
  os << "subkey:  .space 192\n";   // 48 bits of Km
  if (hoist) os << "subkeys: .space 3072\n";  // all 16 x 48 bits, hoisted
  os << "er:      .space 192\n";   // E(R), then E(R) xor Km
  os << "sbval:   .space 128\n";   // raw S-box output bits
  os << "sout:    .space 128\n";   // f(R,K) after P
  os << "preout:  .space 256\n";   // R16 || L16
  if (options.declassify_output) os << ".declassified preout\n";
  if (options.shuffle_slots) {
    // Per-trace random-delay schedule: 16 per-round + 8 per-S-box slots,
    // zero by default (a zero schedule reproduces the unshuffled trace).
    os << "nop_tab: .space " << kShuffleSlotCount * 4 << "\n";
  }
  slots.emit_data(os);
  emit_offset_table(os, "ip_tab", kIp);
  emit_offset_table(os, "fp_tab", kIpInv);
  emit_offset_table(os, "e_tab", kE);
  emit_offset_table(os, "p_tab", kP);
  emit_offset_table(os, "pc1_tab", kPc1);
  emit_offset_table(os, "pc2_tab", kPc2);
  // Encryption rotates left by kShifts[m]; decryption rotates right by the
  // reversed schedule shifted one round (round 1 uses K16 with the C/D
  // halves exactly as PC-1 left them, since the 16 encryption rotations sum
  // to a full 28-bit revolution).
  os << "shift_tab:\n  .word ";
  for (std::size_t i = 0; i < kShifts.size(); ++i) {
    const int amount =
        options.decrypt ? (i == 0 ? 0 : kShifts[kShifts.size() - i]) : kShifts[i];
    os << (i ? ", " : "") << amount;
  }
  os << '\n';
  // S-box bit table: word at ((s*64 + idx)*4 + j)*4 bytes is bit j (MSB
  // first) of S_s[idx], idx = row*16 + col.
  os << "sbox_tab:\n";
  for (int s = 0; s < 8; ++s) {
    for (int idx = 0; idx < 64; ++idx) {
      const std::uint8_t v = kSbox[static_cast<std::size_t>(s)]
                                  [static_cast<std::size_t>(idx)];
      os << "  .word " << ((v >> 3) & 1) << ", " << ((v >> 2) & 1) << ", "
         << ((v >> 1) & 1) << ", " << (v & 1) << '\n';
    }
  }

  os << "\n.text\nmain:\n";
  TextEmitter e(os, slots);
  e.comment("frame setup: spill every base pointer to its local slot");
  e.line("la   $gp, " + slots.first());
  e.spill("ip_pt", "ip_tab");
  e.spill("ip_ps", "plain");
  e.spill("ip_pd", "lr");
  e.spill("pc1_pt", "pc1_tab");
  e.spill("pc1_ps", "key");
  e.spill("pc1_pd", "cd");
  e.spill("pc2_pt", "pc2_tab");
  e.spill("pc2_ps", "cd");
  e.spill("pc2_pd", "subkey");
  e.spill("e_pt", "e_tab");
  e.spill("e_ps", "lr", 128);  // R half
  e.spill("e_pd", "er");
  e.spill("p_pt", "p_tab");
  e.spill("p_ps", "sbval");
  e.spill("p_pd", "sout");
  e.spill("fp_pt", "fp_tab");
  e.spill("fp_ps", "preout");
  e.spill("fp_pd", "cipher");
  e.spill("xor_pa", "er");
  e.spill("xor_pb", "subkey");
  e.spill("sb_pe", "er");
  e.spill("sb_po", "sbval");
  e.spill("sb_pb", "sbox_tab");
  e.spill("upd_pl", "lr");
  e.spill("upd_pr", "lr", 128);
  e.spill("upd_pf", "sout");
  e.spill("rotc_pb", "cd");
  e.spill("rotd_pb", "cd", 112);  // D half
  e.spill("prer_ps", "lr", 128);
  e.spill("prer_pd", "preout");
  e.spill("prel_ps", "lr");
  e.spill("prel_pd", "preout", 128);
  e.spill("sh_pt", "shift_tab");
  if (hoist) e.spill("ks_pb", "subkeys");
  if (options.shuffle_slots) e.spill("nop_pb", "nop_tab");
  if (options.cbc_chain) {
    e.spill("cbc_ps", "iv");
    e.spill("cbc_pd", options.decrypt ? "cipher" : "plain");
  }

  // Rotate C and D by shift_tab[var_m]; `prefix` disambiguates the loop
  // labels between the in-round and the hoisted key-schedule placement
  // (empty prefix reproduces the classic program byte for byte).
  const auto emit_rotations = [&](const std::string& prefix) {
    e.line("lw   $t9, " + slots.at("var_m"));
    e.line("sll  $t8, $t9, 2");
    e.line("lw   $t0, " + slots.at("sh_pt"));
    e.line("addu $t0, $t0, $t8");
    e.line("lw   $t1, 0($t0)");  // rotation count (public; 0 in round 1 of
    e.line("sw   $t1, " + slots.at("var_n"));  // the decryption schedule)
    e.line("beq  $t1, $zero, " + prefix + "rot_done");
    e.label(prefix + "rot_loop");
    if (options.decrypt) {
      e.rotate_once_right(prefix + "rot_c", "rotc_pb");
      e.rotate_once_right(prefix + "rot_d", "rotd_pb");
    } else {
      e.rotate_once(prefix + "rot_c", "rotc_pb");
      e.rotate_once(prefix + "rot_d", "rotd_pb");
    }
    e.line("lw   $t1, " + slots.at("var_n"));
    e.line("addiu $t1, $t1, -1");
    e.line("sw   $t1, " + slots.at("var_n"));
    e.line("bne  $t1, $zero, " + prefix + "rot_loop");
    e.label(prefix + "rot_done");
  };

  // var_m += 1; loop back while var_m != 16.
  const auto emit_m_step = [&](const std::string& loop) {
    e.line("lw   $t9, " + slots.at("var_m"));
    e.line("addiu $t9, $t9, 1");
    e.line("sw   $t9, " + slots.at("var_m"));
    e.line("li   $k1, 16");
    e.line("bne  $t9, $k1, " + loop);
  };

  // slots[dst_slot] = subkeys + var_m * 192 (the 48-word subkey of round m).
  const auto emit_round_subkey_ptr = [&](const std::string& dst_slot) {
    e.line("lw   $t9, " + slots.at("var_m"));
    e.line("sll  $t0, $t9, 6");   // m * 64
    e.line("sll  $t1, $t9, 7");   // m * 128
    e.line("addu $t0, $t0, $t1");
    e.line("lw   $t1, " + slots.at("ks_pb"));
    e.line("addu $t0, $t0, $t1");
    e.line("sw   $t0, " + slots.at(dst_slot));
  };

  // Data-driven shuffle delay: spin nop_tab[$t9] times.  The slot value is
  // public (the schedule hides, it is not secret), so the loop stays
  // insecure under every masking policy; a zero slot costs a handful of
  // data-independent cycles and keeps the unshuffled trace shape.
  const auto emit_delay = [&](const std::string& name) {
    e.line("sll  $t8, $t9, 2");
    e.line("lw   $t0, " + slots.at("nop_pb"));
    e.line("addu $t0, $t0, $t8");
    e.line("lw   $t1, 0($t0)");  // delay count (public schedule entry)
    e.line("beq  $t1, $zero, " + name + "_done");
    e.label(name + "_loop");
    e.line("addiu $t1, $t1, -1");
    e.line("bne  $t1, $zero, " + name + "_loop");
    e.label(name + "_done");
  };

  // CBC input chaining (encryption): plain[i] ^= iv[i] before IP.  Both
  // operands are public — the iv is the previous ciphertext block — so no
  // masking policy secures the loop.  Placed after the fork marker in the
  // hoisted shape so forked blocks can poke a fresh chaining value.
  const auto emit_cbc_in = [&] {
    if (!options.cbc_chain || options.decrypt) return;
    e.comment("CBC chaining: plain[i] ^= iv[i] (public previous cipher)");
    e.xor_into_loop("cbc_loop", 64, "cbc_ps", "cbc_pd");
  };

  if (!hoist) {
    emit_cbc_in();
    e.comment("initial permutation: lr[i] = plain[IP[i]]  (no secret involved)");
    e.perm_loop("ip_loop", 64, "ip_pt", "ip_ps", "ip_pd");
  }

  e.comment("key permutation PC-1: cd[i] = key[PC1[i]]  (secure: reads key)");
  e.perm_loop("pc1_loop", 56, "pc1_pt", "pc1_ps", "pc1_pd");

  if (hoist) {
    e.comment("hoisted key schedule: subkeys[m*48..] = PC2(rotate(C, D))");
    e.comment("for every round, before any plaintext use");
    e.line("sw   $zero, " + slots.at("var_m"));
    e.label("ks_loop");
    emit_rotations("ks_");
    emit_round_subkey_ptr("pc2_pd");
    e.comment("PC-2: subkeys[m*48 + i] = cd[PC2[i]]");
    e.perm_loop("pc2_loop", 48, "pc2_pt", "pc2_ps", "pc2_pd");
    emit_m_step("ks_loop");

    e.comment("fork point: key schedule complete, plaintext untouched —");
    e.comment("snapshot capture resumes per-plaintext runs from here");
    e.line("fork");

    emit_cbc_in();
    e.comment("initial permutation: lr[i] = plain[IP[i]]  (no secret involved)");
    e.perm_loop("ip_loop", 64, "ip_pt", "ip_ps", "ip_pd");
  }

  e.comment("sixteen rounds; m lives in var_m");
  e.line("sw   $zero, " + slots.at("var_m"));
  e.label("round_loop");

  if (options.shuffle_slots) {
    e.comment("shuffle: random delay nop_tab[m] before the round body");
    e.line("lw   $t9, " + slots.at("var_m"));
    emit_delay("nop_round");
  }

  if (hoist) {
    e.comment("select the precomputed round subkey: xor_pb = &subkeys[m*48]");
    emit_round_subkey_ptr("xor_pb");
  } else {
    e.comment(options.decrypt
                  ? "key generation: rotate C and D right by shift_tab[m]"
                  : "key generation: rotate C and D left by shift_tab[m]");
    emit_rotations("");

    e.comment("PC-2: subkey[i] = cd[PC2[i]]");
    e.perm_loop("pc2_loop", 48, "pc2_pt", "pc2_ps", "pc2_pd");
  }

  e.comment("expansion: er[i] = R[E[i]]");
  e.perm_loop("e_loop", 48, "e_pt", "e_ps", "e_pd");

  e.comment("er[i] = er[i] (+) subkey[i]");
  e.line("sw   $zero, " + slots.at("var_i"));
  e.label("xor_loop");
  e.line("lw   $t9, " + slots.at("var_i"));
  e.line("sll  $t8, $t9, 2");
  e.line("lw   $t0, " + slots.at("xor_pa"));
  e.line("addu $t0, $t0, $t8");
  e.line("lw   $t1, 0($t0)");  // er[i]
  e.line("lw   $t2, " + slots.at("xor_pb"));
  e.line("addu $t2, $t2, $t8");
  e.line("lw   $t3, 0($t2)");  // subkey[i]
  e.line("xor  $t4, $t1, $t3");
  e.line("sw   $t4, 0($t0)");
  e.step_i("xor_loop", 48);

  e.comment("S-boxes: sbval[4s..4s+3] = S_s(er[6s..6s+5]); s lives in var_s");
  e.line("sw   $zero, " + slots.at("var_s"));
  e.label("sbox_loop");
  if (options.shuffle_slots) {
    e.comment("shuffle: random delay nop_tab[16 + s] before S-box s");
    e.line("lw   $t9, " + slots.at("var_s"));
    e.line("addiu $t9, $t9, 16");
    emit_delay("nop_sbox");
  }
  e.line("lw   $a0, " + slots.at("var_s"));
  e.line("sll  $t1, $a0, 4");      // s*16
  e.line("sll  $t2, $a0, 3");      // s*8
  e.line("addu $t1, $t1, $t2");    // s*24
  e.line("lw   $t0, " + slots.at("sb_pe"));
  e.line("addu $a1, $t0, $t1");    // 6-bit group pointer
  e.line("sll  $t2, $a0, 4");
  e.line("lw   $t0, " + slots.at("sb_po"));
  e.line("addu $a2, $t0, $t2");    // output pointer
  e.line("lw   $t0, 0($a1)");      // b1 (FIPS numbering within the group)
  e.line("lw   $t1, 4($a1)");      // b2
  e.line("lw   $t2, 8($a1)");      // b3
  e.line("lw   $t3, 12($a1)");     // b4
  e.line("lw   $t4, 16($a1)");     // b5
  e.line("lw   $t5, 20($a1)");     // b6
  e.line("sll  $t6, $t0, 1");      // idx = b1 b6 b2 b3 b4 b5 (row*16+col)
  e.line("or   $t6, $t6, $t5");
  e.line("sll  $t6, $t6, 1");
  e.line("or   $t6, $t6, $t1");
  e.line("sll  $t6, $t6, 1");
  e.line("or   $t6, $t6, $t2");
  e.line("sll  $t6, $t6, 1");
  e.line("or   $t6, $t6, $t3");
  e.line("sll  $t6, $t6, 1");
  e.line("or   $t6, $t6, $t4");
  e.line("sll  $t6, $t6, 4");      // 16 bytes per table entry
  e.line("sll  $t7, $a0, 10");     // 1024 bytes per S-box
  e.line("lw   $t0, " + slots.at("sb_pb"));
  e.line("addu $t7, $t0, $t7");
  e.line("addu $t7, $t7, $t6");    // key-dependent table address
  e.line("lw   $t8, 0($t7)");      // secure indexing (4 output bits)
  e.line("sw   $t8, 0($a2)");
  e.line("lw   $t8, 4($t7)");
  e.line("sw   $t8, 4($a2)");
  e.line("lw   $t8, 8($t7)");
  e.line("sw   $t8, 8($a2)");
  e.line("lw   $t8, 12($t7)");
  e.line("sw   $t8, 12($a2)");
  e.line("lw   $a0, " + slots.at("var_s"));
  e.line("sw   $a0, " + slots.at("var_t"));
  e.line("lw   $at, " + slots.at("var_t"));
  e.line("move $v0, $a0");
  e.line("sll  $at, $v0, 1");
  e.line("addu $v0, $at, $a0");
  e.line("move $at, $v0");
  e.line("addiu $a0, $a0, 1");
  e.line("sw   $a0, " + slots.at("var_s"));
  e.line("li   $k1, 8");
  e.line("bne  $a0, $k1, sbox_loop");

  e.comment("P permutation: sout[i] = sbval[P[i]]");
  e.perm_loop("p_loop", 32, "p_pt", "p_ps", "p_pd");

  e.comment("round update: Lm = Rm-1 ; Rm = Lm-1 (+) f(Rm-1, Km)");
  e.line("sw   $zero, " + slots.at("var_i"));
  e.label("upd_loop");
  e.line("lw   $t9, " + slots.at("var_i"));
  e.line("sll  $t8, $t9, 2");
  e.line("lw   $t0, " + slots.at("upd_pl"));
  e.line("addu $t0, $t0, $t8");    // &L[i]
  e.line("lw   $t1, " + slots.at("upd_pr"));
  e.line("addu $t1, $t1, $t8");    // &R[i]
  e.line("lw   $t2, " + slots.at("upd_pf"));
  e.line("addu $t2, $t2, $t8");    // &f[i]
  e.line("lw   $t3, 0($t1)");      // old R bit
  e.line("lw   $t4, 0($t0)");      // old L bit
  e.line("lw   $t5, 0($t2)");      // f bit
  e.line("xor  $t6, $t4, $t5");
  e.line("sw   $t6, 0($t1)");      // new R
  e.line("sw   $t3, 0($t0)");      // new L
  e.step_i("upd_loop", 32);

  e.line("lw   $t9, " + slots.at("var_m"));
  e.line("addiu $t9, $t9, 1");
  e.line("sw   $t9, " + slots.at("var_m"));
  e.line("li   $k1, 16");
  e.line("bne  $t9, $k1, round_loop");

  e.comment("pre-output: preout = R16 || L16 (declassified: equals the");
  e.comment("cipher up to a public permutation)");
  e.copy_loop("pre_r", 32, "prer_ps", "prer_pd");
  e.copy_loop("pre_l", 32, "prel_ps", "prel_pd");

  e.comment("output inverse permutation: cipher[i] = preout[IPinv[i]]");
  e.comment("(insecure, Fig. 2(b))");
  e.perm_loop("fp_loop", 64, "fp_pt", "fp_ps", "fp_pd");

  if (options.cbc_chain && options.decrypt) {
    e.comment("CBC output chaining: cipher[i] ^= iv[i] (declassified value");
    e.comment("xor public previous cipher block)");
    e.xor_into_loop("cbc_loop", 64, "cbc_ps", "cbc_pd");
  }

  e.line("halt");
  return os.str();
}

namespace {

/// poke_block into live simulator memory; `missing` is the error when the
/// program lacks the 64-word symbol.
void poke_block(sim::DataMemory& memory, const assembler::Program& program,
                const char* symbol, std::uint64_t block, const char* missing) {
  const assembler::DataSymbol* s = program.find_symbol(symbol);
  if (s == nullptr || s->size_bytes < 64 * 4) {
    throw std::invalid_argument(missing);
  }
  for (unsigned i = 0; i < 64; ++i) {
    memory.store_word(s->address + i * 4,
                      static_cast<std::uint32_t>(util::bit_of64(block, 63 - i)));
  }
}

constexpr const char* kNoIv =
    "poke_iv: program has no iv symbol (generate with cbc_chain)";

}  // namespace

void poke_key(assembler::Program& program, std::uint64_t key) {
  poke_block(program, "key", key);
}

void poke_key(sim::DataMemory& memory, const assembler::Program& program,
              std::uint64_t key) {
  poke_block(memory, program, "key", key, "poke_key: no key symbol");
}

void poke_plaintext(assembler::Program& program, std::uint64_t plaintext) {
  poke_block(program, "plain", plaintext);
}

void poke_plaintext(sim::DataMemory& memory, const assembler::Program& program,
                    std::uint64_t plaintext) {
  poke_block(memory, program, "plain", plaintext,
             "poke_plaintext: no plain symbol");
}

void poke_iv(assembler::Program& program, std::uint64_t iv) {
  if (!has_iv_symbol(program)) throw std::invalid_argument(kNoIv);
  poke_block(program, "iv", iv);
}

void poke_iv(sim::DataMemory& memory, const assembler::Program& program,
             std::uint64_t iv) {
  poke_block(memory, program, "iv", iv, kNoIv);
}

bool has_iv_symbol(const assembler::Program& program) {
  const assembler::DataSymbol* s = program.find_symbol("iv");
  return s != nullptr && s->size_bytes >= 64 * 4;
}

namespace {

const assembler::DataSymbol* nop_table_symbol(
    const assembler::Program& program, const std::vector<std::uint32_t>& delays) {
  if (delays.size() != kShuffleSlotCount) {
    throw std::invalid_argument(
        "poke_nop_schedule: expected " + std::to_string(kShuffleSlotCount) +
        " delay slots, got " + std::to_string(delays.size()));
  }
  const assembler::DataSymbol* s = program.find_symbol("nop_tab");
  if (s == nullptr || s->size_bytes < kShuffleSlotCount * 4) {
    throw std::invalid_argument(
        "poke_nop_schedule: program has no nop_tab symbol (generate with "
        "shuffle_slots)");
  }
  return s;
}

}  // namespace

void poke_nop_schedule(assembler::Program& program,
                       const std::vector<std::uint32_t>& delays) {
  const assembler::DataSymbol* s = nop_table_symbol(program, delays);
  for (std::size_t i = 0; i < kShuffleSlotCount; ++i) {
    program.poke_word(s->address + static_cast<std::uint32_t>(i) * 4,
                      delays[i]);
  }
}

void poke_nop_schedule(sim::DataMemory& memory,
                       const assembler::Program& program,
                       const std::vector<std::uint32_t>& delays) {
  const assembler::DataSymbol* s = nop_table_symbol(program, delays);
  for (std::size_t i = 0; i < kShuffleSlotCount; ++i) {
    memory.store_word(s->address + static_cast<std::uint32_t>(i) * 4,
                      delays[i]);
  }
}

bool has_nop_table(const assembler::Program& program) {
  const assembler::DataSymbol* s = program.find_symbol("nop_tab");
  return s != nullptr && s->size_bytes >= kShuffleSlotCount * 4;
}

std::uint64_t read_cipher(const sim::DataMemory& memory,
                          const assembler::Program& program) {
  const assembler::DataSymbol* s = program.find_symbol("cipher");
  if (s == nullptr || s->size_bytes < 64 * 4) {
    throw std::invalid_argument("read_cipher: no cipher symbol");
  }
  std::vector<std::uint32_t> bits(64);
  for (unsigned i = 0; i < 64; ++i) {
    bits[i] = memory.load_word(s->address + i * 4) & 1u;
  }
  return util::pack_block_msb_first(bits);
}

}  // namespace emask::des
