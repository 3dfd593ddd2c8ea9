// Golden AES-128 decryption (FIPS 197, Fig. 12): the test oracle that
// checks aes::encrypt_block and the generated decryption program.
#pragma once

#include "aes/aes128.hpp"

namespace emask::aes {

[[nodiscard]] Block decrypt_block(const Block& ciphertext, const Key& key);

}  // namespace emask::aes
