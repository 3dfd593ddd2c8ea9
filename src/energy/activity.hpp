// Per-cycle microarchitectural activity report: the interface between the
// pipeline simulator (producer) and the energy model (consumer).
//
// The simulator fills one CycleActivity per clock; the energy model converts
// it into joules.  Keeping the two decoupled mirrors SimplePower's split
// between the performance simulator and the energy estimation back end, and
// lets tests drive the energy model with synthetic activity.
#pragma once

#include <cstdint>

#include "isa/opcode.hpp"

namespace emask::energy {

/// A pipeline-register write: `payload` is the data-dependent portion of the
/// latch contents.  Each register's width is fixed by its slot in
/// CycleActivity, so the write does not carry it.
struct LatchWrite {
  bool wrote = false;
  bool secure = false;   // latch operates in dual-rail pre-charged mode
  std::uint64_t payload = 0;
};

/// Functional-unit activity in EX.
struct ExecActivity {
  bool valid = false;
  isa::FuncUnit unit = isa::FuncUnit::kNone;
  bool secure = false;
  std::uint32_t a = 0;       // operand A
  std::uint32_t b = 0;       // operand B
  std::uint32_t result = 0;  // unit output
};

/// Data-memory activity in MEM.
struct MemActivity {
  bool read = false;
  bool write = false;
  bool secure = false;       // secure load/store: dual-rail address+data path
  std::uint32_t address = 0;
  std::uint32_t data = 0;    // word read or written
};

/// One clock's activity.  The flags (fetch, decode, ex.valid, mem.read /
/// mem.write, rf_write, wb_secure, retired and each latch's `wrote`) say
/// what happened; every other field is a payload, meaningful only while
/// the flag that gates it is set (rf_reads under decode, retire_pc under
/// retired, a latch's secure bit and payload under its wrote).  The
/// producer clears only the flags each cycle, so a payload whose flag is
/// clear may hold a stale value from an earlier cycle.
struct CycleActivity {
  // IF stage.
  bool fetch = false;
  std::uint64_t fetch_bits = 0;  // 33-bit encoded instruction word
  std::uint32_t fetch_pc = 0;    // instruction index (metadata: lets tools
                                 // map cycles to program phases)

  // ID stage.
  bool decode = false;
  int rf_reads = 0;

  // EX stage.
  ExecActivity ex;

  // MEM stage.
  MemActivity mem;

  // WB stage.
  bool rf_write = false;
  bool wb_secure = false;  // complementary rail terminated (dummy load)
  bool retired = false;    // an instruction completed this cycle
  std::uint32_t retire_pc = 0;  // its instruction index (metadata)

  // Pipeline registers written at the end of this cycle.
  LatchWrite if_id;   // 33 bits: the fetch word
  LatchWrite id_ex;   // 64 bits: operands a | b << 32
  LatchWrite ex_mem;  // 64 bits: alu | store data << 32
  LatchWrite mem_wb;  // 32 bits: the write-back value

  /// Marks the cycle idle: clears every flag, leaves the payloads as they
  /// are.
  void clear_flags() {
    fetch = decode = rf_write = wb_secure = retired = false;
    ex.valid = mem.read = mem.write = false;
    if_id.wrote = id_ex.wrote = ex_mem.wrote = mem_wb.wrote = false;
  }
};

}  // namespace emask::energy
