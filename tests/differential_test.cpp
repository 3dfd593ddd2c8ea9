// Differential testing: the cycle-accurate five-stage pipeline must match
// the functional reference interpreter on the architectural state (all
// registers + data memory) for randomly generated, hazard-rich programs.
//
// The generator produces structured, guaranteed-terminating programs:
// straight-line blocks of random ALU and memory operations over a small
// register pool (maximizing RAW hazards, load-use interlocks, and
// forwarding paths), optional data-dependent forward branches, and one
// counted loop.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "des/asm_generator.hpp"
#include "sim/pipeline.hpp"
#include "support/interpreter.hpp"
#include "util/rng.hpp"

namespace emask::sim {
namespace {

/// Registers the generator may freely clobber.  $s7 holds the scratch base
/// and $k1 the loop counter; both are excluded from random writes.
constexpr const char* kPool[] = {"$t0", "$t1", "$t2", "$t3", "$t4",
                                 "$t5", "$t6", "$t7", "$s0", "$s1",
                                 "$s2", "$s3", "$v0", "$a0"};
constexpr int kPoolSize = static_cast<int>(std::size(kPool));

class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << ".data\nscratch: .space 256\n.text\nmain:\n";
    os << "  la $s7, scratch\n";
    for (const char* r : kPool) {
      os << "  li " << r << ", "
         << static_cast<std::int64_t>(
                static_cast<std::int32_t>(rng_.next_u32() & 0xFFFF)) -
                0x8000
         << "\n";
    }
    const int segments = 3 + static_cast<int>(rng_.next_below(4));
    for (int s = 0; s < segments; ++s) {
      // Maybe a data-dependent forward branch over part of the segment.
      const bool branch = rng_.next_below(2) == 0;
      if (branch) {
        os << "  " << branch_op() << " " << reg() << ", " << reg() << ", seg"
           << s << "\n";
      }
      emit_block(os, 4 + static_cast<int>(rng_.next_below(10)));
      if (branch) os << "seg" << s << ":\n";
      emit_block(os, 2 + static_cast<int>(rng_.next_below(6)));
    }
    // One counted loop: fixed trip count, body full of hazards.
    os << "  li $k1, " << (2 + rng_.next_below(6)) << "\n";
    os << "loop:\n";
    emit_block(os, 3 + static_cast<int>(rng_.next_below(8)));
    os << "  addiu $k1, $k1, -1\n";
    os << "  bne $k1, $zero, loop\n";
    emit_block(os, 3);
    os << "  halt\n";
    return os.str();
  }

 private:
  const char* reg() { return kPool[rng_.next_below(kPoolSize)]; }
  const char* branch_op() {
    return rng_.next_below(2) == 0 ? "beq" : "bne";
  }
  std::int64_t aligned_offset() {
    return static_cast<std::int64_t>(rng_.next_below(64)) * 4;
  }

  void emit_block(std::ostringstream& os, int n) {
    for (int i = 0; i < n; ++i) {
      switch (rng_.next_below(12)) {
        case 0:
          os << "  lw " << reg() << ", " << aligned_offset() << "($s7)\n";
          break;
        case 1:
          os << "  sw " << reg() << ", " << aligned_offset() << "($s7)\n";
          break;
        case 2:
          os << "  addiu " << reg() << ", " << reg() << ", "
             << static_cast<std::int64_t>(rng_.next_below(256)) - 128 << "\n";
          break;
        case 3:
          os << "  sll " << reg() << ", " << reg() << ", "
             << rng_.next_below(32) << "\n";
          break;
        case 4:
          os << "  srl " << reg() << ", " << reg() << ", "
             << rng_.next_below(32) << "\n";
          break;
        case 5:
          os << "  sra " << reg() << ", " << reg() << ", "
             << rng_.next_below(32) << "\n";
          break;
        case 6: {
          const char* three[] = {"addu", "subu", "and", "or",
                                 "xor",  "nor",  "slt", "sltu"};
          os << "  " << three[rng_.next_below(8)] << " " << reg() << ", "
             << reg() << ", " << reg() << "\n";
          break;
        }
        case 7: {
          const char* vshift[] = {"sllv", "srlv", "srav"};
          os << "  " << vshift[rng_.next_below(3)] << " " << reg() << ", "
             << reg() << ", " << reg() << "\n";
          break;
        }
        case 8:
          os << "  lui " << reg() << ", " << rng_.next_below(0x10000) << "\n";
          break;
        case 9: {
          const char* logical[] = {"andi", "ori", "xori"};
          os << "  " << logical[rng_.next_below(3)] << " " << reg() << ", "
             << reg() << ", " << rng_.next_below(0x10000) << "\n";
          break;
        }
        case 10:
          os << "  slti " << reg() << ", " << reg() << ", "
             << static_cast<std::int64_t>(rng_.next_below(0x8000)) << "\n";
          break;
        default:
          os << "  move " << reg() << ", " << reg() << "\n";
          break;
      }
    }
  }

  util::Rng rng_;
};

/// One data access as the pipeline reports it in CycleActivity::mem.
struct Access {
  bool write = false;
  std::uint32_t address = 0;
  std::uint32_t data = 0;
};

/// Parameter: (seed index, replay the data accesses).  The `_cached`
/// instances, named for the data cache whose timing this stream decides,
/// also check the pipeline's reported data-access stream — what a cache in
/// front of the SRAM would see, and what bench_ext_cache_timing replays
/// into its tags.  Replayed in order onto the initial image, every load
/// must read the value the pipeline reported and the stores must leave the
/// interpreter's final memory.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DifferentialTest, PipelineMatchesInterpreter) {
  const auto [seed, replay_accesses] = GetParam();
  ProgramFuzzer fuzzer(0xD1FF0000ull + static_cast<std::uint64_t>(seed));
  const std::string source = fuzzer.generate();
  const assembler::Program program = assembler::assemble(source);

  Interpreter golden(program);
  golden.run();

  std::vector<Access> accesses;
  Pipeline pipeline(program);
  const SimResult result =
      pipeline.run([&](const energy::CycleActivity& activity) {
        if (activity.mem.read || activity.mem.write) {
          accesses.push_back(
              {activity.mem.write, activity.mem.address, activity.mem.data});
        }
      });

  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.instructions, golden.instructions())
      << "retired-count mismatch";
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    EXPECT_EQ(pipeline.reg(static_cast<isa::Reg>(r)),
              golden.reg(static_cast<isa::Reg>(r)))
        << "register " << isa::reg_name(static_cast<isa::Reg>(r))
        << " diverged; program:\n"
        << source;
  }
  const std::uint32_t base = assembler::kDataBase;
  for (std::uint32_t off = 0; off < 256; off += 4) {
    ASSERT_EQ(pipeline.memory().load_word(base + off),
              golden.memory().load_word(base + off))
        << "memory diverged at offset " << off;
  }

  if (!replay_accesses) return;
  DataMemory replay(program);
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const Access& access = accesses[i];
    if (access.write) {
      replay.store_word(access.address, access.data);
    } else {
      ASSERT_EQ(replay.load_word(access.address), access.data)
          << "access " << i << " read a value its predecessors did not leave";
    }
  }
  for (std::uint32_t off = 0; off < 256; off += 4) {
    ASSERT_EQ(replay.load_word(base + off),
              golden.memory().load_word(base + off))
        << "replayed stores diverged at offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, DifferentialTest,
    ::testing::Combine(::testing::Range(0, 40), ::testing::Bool()),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cached" : "_flat");
    });

TEST(DifferentialDes, InterpreterEncryptsDesCorrectly) {
  // The oracle itself must also be right: running the generated DES program
  // functionally reproduces the FIPS ciphertext.
  const assembler::Program program = assembler::assemble(des::generate_des_asm(
      0x133457799BBCDFF1ull, 0x0123456789ABCDEFull, {}));
  Interpreter interp(program);
  interp.run();
  EXPECT_EQ(des::read_cipher(interp.memory(), program),
            0x85E813540F0AB405ull);
}

}  // namespace
}  // namespace emask::sim
