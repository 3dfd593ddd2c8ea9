#include "util/bitops.hpp"

#include <stdexcept>

namespace emask::util {

std::uint64_t pack_block_msb_first(const std::vector<std::uint32_t>& bits) {
  if (bits.size() != 64) {
    throw std::invalid_argument("pack_block_msb_first: need exactly 64 bits");
  }
  std::uint64_t block = 0;
  for (unsigned i = 0; i < 64; ++i) {
    block |= static_cast<std::uint64_t>(bits[i] & 1u) << (63 - i);
  }
  return block;
}

}  // namespace emask::util
