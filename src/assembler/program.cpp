#include "assembler/program.hpp"

#include <stdexcept>

namespace emask::assembler {

std::uint32_t Program::entry() const {
  const auto it = text_labels.find("main");
  return it != text_labels.end() ? it->second : 0u;
}

const DataSymbol* Program::find_symbol(const std::string& name) const {
  for (const DataSymbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint32_t Program::initial_word(std::uint32_t addr) const {
  if (addr < kDataBase || addr + 4 > kDataBase + data.size()) {
    throw std::out_of_range("Program::initial_word: address outside image");
  }
  const std::size_t off = addr - kDataBase;
  return static_cast<std::uint32_t>(data[off]) |
         (static_cast<std::uint32_t>(data[off + 1]) << 8) |
         (static_cast<std::uint32_t>(data[off + 2]) << 16) |
         (static_cast<std::uint32_t>(data[off + 3]) << 24);
}

void Program::poke_word(std::uint32_t addr, std::uint32_t value) {
  if (addr < kDataBase || addr + 4 > kDataBase + data.size()) {
    throw std::out_of_range("Program::poke_word: address outside image");
  }
  const std::size_t off = addr - kDataBase;
  data[off] = static_cast<std::uint8_t>(value & 0xFF);
  data[off + 1] = static_cast<std::uint8_t>((value >> 8) & 0xFF);
  data[off + 2] = static_cast<std::uint8_t>((value >> 16) & 0xFF);
  data[off + 3] = static_cast<std::uint8_t>((value >> 24) & 0xFF);
}

}  // namespace emask::assembler
