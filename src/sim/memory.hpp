// Flat on-chip data SRAM of the modeled smart-card core.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "assembler/program.hpp"

namespace emask::sim {

/// Size of the modeled core's data SRAM: 1 MiB, the size every simulator
/// and the reference interpreter build.
inline constexpr std::size_t kDataMemoryBytes = 1u << 20;

/// Byte-addressable data memory based at assembler::kDataBase.  Word
/// accesses must be 4-byte aligned; violations and out-of-range accesses
/// throw (they indicate a broken program, not a modeled trap).
///
/// Storage is paged and copy-on-write: copying a DataMemory shares its
/// pages, and a store to a shared page clones just that page.  Forking N
/// simulators from one sim::Snapshot therefore costs O(pages actually
/// written) per fork, not O(memory size) — the 1 MiB default image is 256
/// pages, of which a DES encryption dirties only a handful.  A fresh
/// memory allocates only the pages its data image covers; every other page
/// points at one immutable, process-wide zero page until first written.
/// Page reference counts are atomic (std::shared_ptr), so concurrent forks
/// from a shared read-only snapshot are safe; the bytes of a shared page
/// are never mutated in place.
class DataMemory {
 public:
  explicit DataMemory(const assembler::Program& program,
                      std::size_t size_bytes = kDataMemoryBytes);

  [[nodiscard]] std::uint32_t load_word(std::uint32_t address) const;
  void store_word(std::uint32_t address, std::uint32_t value);

  [[nodiscard]] std::uint32_t base() const { return assembler::kDataBase; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Copy-on-write bookkeeping: does `this` still share the physical page
  /// holding `address` with `other`?  Exposed for tests and fork-cost
  /// observability; `address` must be in range for both.
  [[nodiscard]] bool shares_page_with(const DataMemory& other,
                                      std::uint32_t address) const;

 private:
  // 4 KiB pages: large enough that the per-access indirection is noise,
  // small enough that a forked DES run (which touches the lr/cd/er/sbval
  // working set plus the cipher area) clones only a few.
  static constexpr std::size_t kPageBytes = 4096;
  static_assert(kPageBytes % 4 == 0, "aligned words must not span pages");
  using Page = std::array<std::uint8_t, kPageBytes>;

  [[nodiscard]] static const std::shared_ptr<Page>& zero_page();
  void check(std::uint32_t address) const;
  [[nodiscard]] Page& writable_page(std::size_t page_index);

  std::size_t size_ = 0;  // logical size in bytes (last page may be partial)
  std::vector<std::shared_ptr<Page>> pages_;
};

}  // namespace emask::sim
