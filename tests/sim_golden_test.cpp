// Byte guard for simulator and energy-model speed work: FNV-1a digests of
// everything a simulated run hands to its callers — every trace sample's
// bits, the SimResult counters, the per-component breakdown and the
// cipher — pinned for the countermeasure-zoo policies on every run path
// (full cold, truncated capture, snapshot + fork), one CBC stage and the
// AES / SHA-1 image paths.  A change that alters any simulated result by a
// single bit fails here; one that alters them on purpose must re-pin.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "aes/asm_generator.hpp"
#include "core/masking_pipeline.hpp"
#include "des/asm_generator.hpp"
#include "hiding/policy.hpp"
#include "sha/asm_generator.hpp"

namespace emask::core {
namespace {

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;
constexpr std::uint64_t kIv = 0x1122334455667788ull;
constexpr std::uint64_t kCaptureCycles = 13000;

/// FNV-1a 64 over the object bytes of every value added.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  void add(std::uint64_t word) { add_bytes(&word, sizeof word); }
  void add(double value) { add_bytes(&value, sizeof value); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

std::uint64_t digest(const EncryptionRun& run) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(run.trace.size()));
  for (double s : run.trace.samples()) h.add(s);
  h.add(run.sim.cycles);
  h.add(run.sim.instructions);
  h.add(run.sim.stalls);
  h.add(run.sim.flushes);
  h.add(static_cast<std::uint64_t>(run.sim.halted));
  for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
    h.add(run.breakdown.get(static_cast<energy::Component>(c)));
  }
  h.add(run.cipher);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

struct PolicyGolden {
  const char* policy;  // countermeasures.ini spelling
  std::uint64_t cold;
  std::uint64_t capture;
  std::uint64_t forked;
};

// Computed before the predecoded pipeline, the closed-form dual-rail XOR
// and the shared zero page; every later simulator must reproduce them.
constexpr std::array<PolicyGolden, 8> kPolicies = {{
    {"original", 0x29AE5D4263B884F6, 0xC65CC227B6B30FF2, 0x47A5DB824C61E55E},
    {"selective", 0x79BAC66CFC7E1D45, 0xE7DFD0F580EEC89D, 0x1D5530B8F79FD4E7},
    {"naive_loadstore", 0xDA86AD1A5D117858, 0x6EFB4B30D5EE9221,
     0x5525BF45B57C810B},
    {"all_secure", 0x1C518428BD1EB96B, 0x9F4ED498F6A2E516, 0x46BC4B017F1E66FA},
    {"wddl", 0x0032659461AA8A52, 0x500EDC629E307450, 0xDC3C67CD90F37FB1},
    {"random_precharge", 0x011E6A3D1F1E3CCB, 0xBEFDF6DB3B58EB3A,
     0x2AD1EC7FB06535CE},
    {"shuffle_nop", 0x4BBAF2290515435A, 0x3C068B0B0060F17E, 0xAFE33CDA621E5219},
    // Under wddl every structure already runs its secure path, so masking
    // on top changes nothing the energy model sees.
    {"selective+wddl", 0x0032659461AA8A52, 0x500EDC629E307450,
     0xDC3C67CD90F37FB1},
}};

TEST(SimGolden, DesPoliciesColdCaptureAndFork) {
  des::DesAsmOptions hoisted;
  hoisted.hoist_key_schedule = true;
  for (const PolicyGolden& g : kPolicies) {
    SCOPED_TRACE(g.policy);
    const hiding::Countermeasure cm = hiding::countermeasure_from_name(g.policy);
    const MaskingPipeline device = MaskingPipeline::des(cm);
    EXPECT_EQ(hex(digest(device.run_des(kKey, kPlain))), hex(g.cold));
    EXPECT_EQ(hex(digest(device.run_des(kKey, kPlain, kCaptureCycles))),
              hex(g.capture));

    // random_precharge draws its stream from cycle 0 and must run cold;
    // every other policy forks from the hoisted key schedule.
    const MaskingPipeline fork_device = MaskingPipeline::des(
        cm, energy::TechParams::smartcard_025um(), hoisted);
    const EncryptionRun forked =
        fork_device.fork_eligible()
            ? fork_device.run_des_from(fork_device.snapshot_des(kKey), kPlain)
            : fork_device.run_des(kKey, kPlain);
    EXPECT_EQ(hex(digest(forked)), hex(g.forked));
  }
}

TEST(SimGolden, CbcStage) {
  des::DesAsmOptions options;
  options.hoist_key_schedule = true;
  options.cbc_chain = true;
  const MaskingPipeline device = MaskingPipeline::des(
      compiler::Policy::kSelective, energy::TechParams::smartcard_025um(),
      options);
  EXPECT_EQ(hex(digest(device.run_des_cbc(kKey, kPlain, kIv))),
            hex(0xAB7B3ACBD40331F5));
}

TEST(SimGolden, AesAndSha1Images) {
  aes::Key key{};
  aes::Block block{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x11 * i + 3);
    block[i] = static_cast<std::uint8_t>(0x2D * i + 7);
  }
  const MaskingPipeline aes_device = MaskingPipeline::from_source(
      aes::generate_aes_asm(key, aes::Block{}), compiler::Policy::kSelective);
  assembler::Program aes_image = aes_device.program();
  aes::poke_plaintext(aes_image, block);
  EXPECT_EQ(hex(digest(aes_device.run({.image = &aes_image}))),
            hex(0xBBCD1B4C2554F8D3));

  std::array<std::uint32_t, 16> message{};
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint32_t>(0x9E3779B9u * (i + 1));
  }
  const MaskingPipeline sha_device = MaskingPipeline::from_source(
      sha::generate_sha1_asm(std::array<std::uint32_t, 16>{}),
      compiler::Policy::kSelective);
  assembler::Program sha_image = sha_device.program();
  sha::poke_message(sha_image, message);
  EXPECT_EQ(hex(digest(sha_device.run({.image = &sha_image}))),
            hex(0xD2973F8BFF6A70A4));
}

}  // namespace
}  // namespace emask::core
