#include "sim/memory.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace emask::sim {
namespace {

std::string hex(std::uint32_t address) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", address);
  return buf;
}

}  // namespace

DataMemory::DataMemory(const assembler::Program& program,
                       std::size_t size_bytes)
    : size_(size_bytes) {
  if (program.data.size() > size_bytes) {
    throw std::invalid_argument("DataMemory: image larger than memory");
  }
  const std::size_t num_pages = (size_bytes + kPageBytes - 1) / kPageBytes;
  pages_.assign(num_pages, zero_page());
  // Only the pages the data image covers get storage of their own.
  for (std::size_t i = 0; i < program.data.size(); i += kPageBytes) {
    const std::size_t n = std::min(kPageBytes, program.data.size() - i);
    std::copy_n(program.data.begin() + static_cast<std::ptrdiff_t>(i), n,
                writable_page(i / kPageBytes).begin());
  }
}

const std::shared_ptr<DataMemory::Page>& DataMemory::zero_page() {
  // Never written: the static reference keeps use_count() above one, so
  // writable_page() clones it on a memory's first store to that page.
  static const std::shared_ptr<Page> page = std::make_shared<Page>();
  return page;
}

void DataMemory::check(std::uint32_t address) const {
  if (address % 4 != 0) {
    throw std::runtime_error("DataMemory: unaligned 4-byte word access at " +
                             hex(address));
  }
  if (address < base() || address - base() + 4 > size_) {
    throw std::runtime_error(
        "DataMemory: 4-byte access outside memory at " + hex(address) +
        " (valid range [" + hex(base()) + ", " +
        hex(base() + static_cast<std::uint32_t>(size_)) + "))");
  }
}

DataMemory::Page& DataMemory::writable_page(std::size_t page_index) {
  std::shared_ptr<Page>& slot = pages_[page_index];
  // use_count() == 1 means this DataMemory is the sole owner: writing in
  // place is safe.  Shared pages are never mutated — they are replaced by a
  // private clone, so snapshots and sibling forks keep their view.
  if (slot.use_count() > 1) slot = std::make_shared<Page>(*slot);
  return *slot;
}

std::uint32_t DataMemory::load_word(std::uint32_t address) const {
  check(address);
  const std::size_t off = address - base();
  const Page& page = *pages_[off / kPageBytes];
  const std::size_t o = off % kPageBytes;
  return static_cast<std::uint32_t>(page[o]) |
         (static_cast<std::uint32_t>(page[o + 1]) << 8) |
         (static_cast<std::uint32_t>(page[o + 2]) << 16) |
         (static_cast<std::uint32_t>(page[o + 3]) << 24);
}

void DataMemory::store_word(std::uint32_t address, std::uint32_t value) {
  check(address);
  const std::size_t off = address - base();
  Page& page = writable_page(off / kPageBytes);
  const std::size_t o = off % kPageBytes;
  page[o] = static_cast<std::uint8_t>(value & 0xFF);
  page[o + 1] = static_cast<std::uint8_t>((value >> 8) & 0xFF);
  page[o + 2] = static_cast<std::uint8_t>((value >> 16) & 0xFF);
  page[o + 3] = static_cast<std::uint8_t>((value >> 24) & 0xFF);
}

bool DataMemory::shares_page_with(const DataMemory& other,
                                  std::uint32_t address) const {
  check(address);
  other.check(address);
  const std::size_t index = (address - base()) / kPageBytes;
  return pages_[index].get() == other.pages_[index].get();
}

}  // namespace emask::sim
