// AES-128 on the simulated smart card: the post-DES workload, protected by
// the same compiler pass and hardware — and attacked by the classic
// first-round CPA when unprotected.
#include <cstdio>

#include "aes/aes128.hpp"
#include "aes/asm_generator.hpp"
#include "analysis/generic_cpa.hpp"
#include "core/masking_pipeline.hpp"
#include "util/rng.hpp"

using namespace emask;

int main() {
  const aes::Key key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                        0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
  const aes::Block pt = {0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A, 0x30, 0x8D,
                         0x31, 0x31, 0x98, 0xA2, 0xE0, 0x37, 0x07, 0x34};
  const std::string source = aes::generate_aes_asm(key, pt);

  const auto masked =
      core::MaskingPipeline::from_source(source, compiler::Policy::kSelective);
  sim::Pipeline machine(masked.program());
  machine.run();
  const aes::Block ct = aes::read_cipher(machine.memory(), masked.program());
  const aes::Block golden = aes::encrypt_block(pt, key);

  std::printf("AES-128 ciphertext (card)  : ");
  for (const auto b : ct) std::printf("%02x", b);
  std::printf("\nAES-128 ciphertext (golden): ");
  for (const auto b : golden) std::printf("%02x", b);
  std::printf("  [%s]\n", ct == golden ? "match" : "MISMATCH");

  const auto run = masked.run({.image = &masked.program()});
  std::printf("energy: %.2f uJ over %llu cycles; %zu of %zu instructions "
              "secured by the forward slice\n",
              run.total_uj(),
              static_cast<unsigned long long>(run.sim.cycles),
              masked.mask_result().secured_count,
              masked.program().text.size());

  // The attacker's view: CPA on key byte 0 with 200 random plaintexts.
  std::printf("\nCPA on key byte 0 (Hamming weight of sbox(pt[0]^guess)):\n");
  for (const compiler::Policy policy :
       {compiler::Policy::kOriginal, compiler::Policy::kSelective}) {
    const auto device = core::MaskingPipeline::from_source(source, policy);
    analysis::GenericCpa cpa(256, 3000, 4000);
    util::Rng rng(0xAE5CA8D);
    for (int i = 0; i < 200; ++i) {
      aes::Block p;
      for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_below(256));
      assembler::Program image = device.program();
      aes::poke_plaintext(image, p);
      std::vector<int> h(256);
      for (int g = 0; g < 256; ++g) {
        h[static_cast<std::size_t>(g)] = std::popcount(
            static_cast<unsigned>(aes::sbox(static_cast<std::uint8_t>(
                p[0] ^ g))));
      }
      cpa.add_trace(
          h, device.run({.image = &image, .stop_after_cycles = 4000}).trace);
    }
    const auto r = cpa.solve();
    std::printf("  %-10s: best guess 0x%02X (true 0x%02X), |rho| = %.3f\n",
                compiler::policy_name(policy).data(),
                r.best_guess < 0 ? 0 : r.best_guess, key[0], r.best_corr);
  }
  return ct == golden ? 0 : 1;
}
