#include "support/des_rounds.hpp"

#include "des/des.hpp"

namespace emask::des {

RoundState round_state(std::uint64_t plaintext, std::uint64_t key, int round) {
  const KeySchedule ks = key_schedule(key);
  const std::uint64_t ip = initial_permutation(plaintext);
  RoundState st{static_cast<std::uint32_t>(ip >> 32),
                static_cast<std::uint32_t>(ip & 0xFFFFFFFFu)};
  for (int m = 0; m < round; ++m) {
    const std::uint32_t next_r =
        st.l ^ feistel(st.r, ks.subkeys[static_cast<std::size_t>(m)]);
    st.l = st.r;
    st.r = next_r;
  }
  return st;
}

}  // namespace emask::des
