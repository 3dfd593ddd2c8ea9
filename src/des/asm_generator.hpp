// Generates the DES encryption program in the target assembly language.
//
// The program follows the paper's software structure exactly (Fig. 2):
// bit-per-word data layout ("newL[i] = oldR[i]", Fig. 4), table-driven
// permutations, sixteen identical rounds with in-round key generation, and
// S-box lookups implemented as table indexing with a key-derived offset.
//
// Annotations emitted:
//   * `.secret key`           — the seed for the compiler's forward slice;
//   * `.declassified preout`  +
//     `.declassified cipher`  — the output inverse permutation carries only
//     information already public in the ciphertext (Sec. 4.1), so its
//     assignments stay insecure exactly as in Fig. 2(b).
//
// Secret-dependent computation is restricted, by construction, to the four
// operation classes the paper defines secure versions for — assignment
// (lw/sw), XOR, shift, and indexing — so the selective compiler can cover
// the whole slice (tests assert there are no diagnostics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/program.hpp"
#include "sim/memory.hpp"

namespace emask::des {

struct DesAsmOptions {
  /// Generate the decryption program: the key schedule runs in reverse
  /// (rotate-right with the shift schedule 0,1,2,2,... so round m uses
  /// K(17-m)); everything else is identical to encryption.
  bool decrypt = false;
  /// Hoist the complete key schedule (PC-1 plus all sixteen rotate/PC-2
  /// rounds, stored to a `subkeys` array) ahead of any plaintext use, and
  /// emit a `fork` marker between the schedule and the initial
  /// permutation.  For a fixed key every trace then shares an identical,
  /// plaintext-independent prefix up to the marker, which snapshot/fork
  /// capture (core::MaskingPipeline::snapshot_des) amortizes across a
  /// batch.  Off by default: the paper's program shape interleaves key
  /// generation with the rounds (Fig. 2), and the figure reproductions
  /// depend on that shape.
  bool hoist_key_schedule = false;
  /// Random-delay (NOP-insertion) shuffle slots: the program grows a
  /// `nop_tab` data table (kShuffleSlotCount public words, zero by
  /// default) and data-driven delay loops that spin `nop_tab[m]` times at
  /// the top of round m and `nop_tab[16 + s]` times before S-box s in
  /// every round.  Poking a fresh per-trace schedule (poke_nop_schedule)
  /// desynchronizes the cycle axis across traces without changing the
  /// program text, the architectural result, or (for zero delays) the
  /// trace itself.  The slots read only public data, so no masking policy
  /// secures them.  Off by default: the classic program is byte-identical
  /// without it.
  bool shuffle_slots = false;
  /// CBC chaining on the device: the program grows an `iv` data symbol (64
  /// bit-words, poked per block via poke_iv).  Encryption XORs the chaining
  /// value into `plain` before the initial permutation; decryption XORs it
  /// into `cipher` after the output permutation.  Both sides of the XOR are
  /// public (the chaining value is the previous ciphertext), so the loop
  /// stays insecure under every masking policy.  With hoist_key_schedule
  /// the loop sits after the `fork` marker, so snapshot/fork capture can
  /// poke a fresh iv per forked block.  Off by default: the classic
  /// single-block program is byte-identical without it.
  bool cbc_chain = false;
};

/// Emits the complete assembly source for encrypting one block.
[[nodiscard]] std::string generate_des_asm(std::uint64_t key,
                                           std::uint64_t plaintext,
                                           const DesAsmOptions& options = {});

/// Replaces the 64 bit-words of `key` / `plain` in an assembled program
/// image (so one assembly + compilation can serve many runs).  The
/// program-image poke_plaintext is bench API: no tool links it.
void poke_key(assembler::Program& program, std::uint64_t key);
void poke_plaintext(assembler::Program& program, std::uint64_t plaintext);

/// Pokes the key / plaintext directly into a live simulator memory built
/// from `program` (the cold path pokes a fresh machine instead of copying
/// the program; the snapshot/fork path pokes a machine already past
/// initialization, where the program image can no longer seed it).
void poke_key(sim::DataMemory& memory, const assembler::Program& program,
              std::uint64_t key);
void poke_plaintext(sim::DataMemory& memory, const assembler::Program& program,
                    std::uint64_t plaintext);

/// Replaces the 64 bit-words of the `iv` symbol (cbc_chain programs only;
/// throws std::invalid_argument when the program was generated without
/// cbc_chain).  Same program-image / live-memory split as poke_plaintext.
/// The program-image overload is bench API: no tool links it.
void poke_iv(assembler::Program& program, std::uint64_t iv);
void poke_iv(sim::DataMemory& memory, const assembler::Program& program,
             std::uint64_t iv);

/// True when the program carries the cbc_chain `iv` symbol.
[[nodiscard]] bool has_iv_symbol(const assembler::Program& program);

/// Number of shuffle delay slots in `nop_tab`: one per round (indices
/// 0..15) plus one per S-box position (indices 16..23, applied in every
/// round).
inline constexpr std::size_t kShuffleSlotCount = 24;

/// Replaces the `nop_tab` delay schedule (shuffle_slots programs only;
/// throws std::invalid_argument when the program was generated without
/// shuffle_slots or `delays` is not kShuffleSlotCount entries).  Same
/// program-image / live-memory split as poke_plaintext.
void poke_nop_schedule(assembler::Program& program,
                       const std::vector<std::uint32_t>& delays);
void poke_nop_schedule(sim::DataMemory& memory,
                       const assembler::Program& program,
                       const std::vector<std::uint32_t>& delays);

/// True when the program carries the shuffle_slots `nop_tab` symbol.
[[nodiscard]] bool has_nop_table(const assembler::Program& program);

/// Packs the 64 bit-words of the `cipher` symbol from simulated memory.
[[nodiscard]] std::uint64_t read_cipher(const sim::DataMemory& memory,
                                        const assembler::Program& program);

}  // namespace emask::des
