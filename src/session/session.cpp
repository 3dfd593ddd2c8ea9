#include "session/session.hpp"

#include <algorithm>
#include <utility>

#include "des/des.hpp"

namespace emask::session {
namespace {

/// One DES pass over the whole session: the device key, the per-block
/// BatchRunner inputs, the golden-model expected outputs, and the
/// effective single-DES inputs the attack hypotheses consume.
struct StagePlan {
  std::vector<core::BatchInput> inputs;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> des_inputs;
  std::vector<std::uint64_t> chains;  // 0 where the stage is unchained
};

}  // namespace

std::string_view session_cipher_name(SessionCipher cipher) {
  for (const auto& entry : kSessionCipherNames) {
    if (entry.value == cipher) return entry.name;
  }
  throw SessionError("session_cipher_name: unknown cipher value");
}

std::vector<std::uint64_t> pack_message(
    const std::vector<std::uint8_t>& bytes) {
  const std::size_t pad = 8 - bytes.size() % 8;  // 1..8, never 0
  std::vector<std::uint8_t> padded = bytes;
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));
  std::vector<std::uint64_t> blocks;
  blocks.reserve(padded.size() / 8);
  for (std::size_t i = 0; i < padded.size(); i += 8) {
    std::uint64_t block = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      block = (block << 8) | padded[i + j];
    }
    blocks.push_back(block);
  }
  return blocks;
}

std::vector<std::uint64_t> pack_message(std::string_view text) {
  return pack_message(std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::vector<std::uint8_t> unpack_message(
    const std::vector<std::uint64_t>& blocks) {
  if (blocks.empty()) {
    throw SessionError("unpack_message: empty block vector (a padded "
                       "message is never shorter than one block)");
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(blocks.size() * 8);
  for (const std::uint64_t block : blocks) {
    for (int j = 7; j >= 0; --j) {
      bytes.push_back(static_cast<std::uint8_t>(block >> (8 * j)));
    }
  }
  const std::uint8_t pad = bytes.back();
  if (pad == 0 || pad > 8) {
    throw SessionError("unpack_message: malformed PKCS#7 padding (pad byte " +
                       std::to_string(static_cast<int>(pad)) +
                       ", expected 1..8)");
  }
  for (std::size_t i = bytes.size() - pad; i < bytes.size(); ++i) {
    if (bytes[i] != pad) {
      throw SessionError(
          "unpack_message: malformed PKCS#7 padding (trailing bytes do not "
          "all equal the pad value)");
    }
  }
  bytes.resize(bytes.size() - pad);
  return bytes;
}

std::vector<std::uint64_t> golden_encrypt(
    SessionCipher cipher, const SessionKeys& keys, std::uint64_t iv,
    const std::vector<std::uint64_t>& blocks) {
  switch (cipher) {
    case SessionCipher::kDesCbc:
      return des::cbc_encrypt(blocks, keys.k1, iv);
    case SessionCipher::kTdesEdeCbc:
      return des::cbc_encrypt_ede3(blocks, keys.k1, keys.k2, keys.k3, iv);
  }
  throw SessionError("golden_encrypt: unknown cipher value");
}

std::vector<std::uint64_t> golden_decrypt(
    SessionCipher cipher, const SessionKeys& keys, std::uint64_t iv,
    const std::vector<std::uint64_t>& blocks) {
  switch (cipher) {
    case SessionCipher::kDesCbc:
      return des::cbc_decrypt(blocks, keys.k1, iv);
    case SessionCipher::kTdesEdeCbc:
      return des::cbc_decrypt_ede3(blocks, keys.k1, keys.k2, keys.k3, iv);
  }
  throw SessionError("golden_decrypt: unknown cipher value");
}

SessionEngine::SessionEngine(SessionConfig config)
    : config_(std::move(config)) {
  build_devices(/*decrypt=*/false);
}

void SessionEngine::build_devices(bool decrypt) {
  std::vector<core::MaskingPipeline>& devs =
      decrypt ? decrypt_devices_ : devices_;
  if (!devs.empty()) return;
  const auto make = [&](bool dec, bool chained) {
    des::DesAsmOptions opt;
    opt.decrypt = dec;
    opt.cbc_chain = chained;
    opt.hoist_key_schedule = true;
    return core::MaskingPipeline::des(config_.policy, config_.params, opt);
  };
  if (config_.cipher == SessionCipher::kDesCbc) {
    devs.push_back(make(decrypt, /*chained=*/true));
  }
  // 3DES-EDE outer CBC.  Encrypt: chained E(k1), D(k2), E(k3).  Decrypt:
  // D(k3), E(k2), chained D(k1) — the chaining XOR lands on the plaintext
  // side in both directions.
  else if (!decrypt) {
    devs.push_back(make(false, true));
    devs.push_back(make(true, false));
    devs.push_back(make(false, false));
  } else {
    devs.push_back(make(true, false));
    devs.push_back(make(false, false));
    devs.push_back(make(true, true));
  }
  for (std::size_t i = 0; i < devs.size(); ++i) {
    devs[i].set_hiding_seed(config_.hiding_seed +
                            0x9E3779B97F4A7C15ull * (i + 1));
  }
}

const core::MaskingPipeline& SessionEngine::device(std::size_t stage) const {
  if (stage >= devices_.size()) {
    throw SessionError("SessionEngine::device: stage out of range");
  }
  return devices_[stage];
}

SessionResult SessionEngine::encrypt(const std::vector<std::uint64_t>& blocks,
                                     const BlockSink& sink) {
  return run(blocks, /*decrypt=*/false, sink);
}

SessionResult SessionEngine::decrypt(const std::vector<std::uint64_t>& blocks,
                                     const BlockSink& sink) {
  return run(blocks, /*decrypt=*/true, sink);
}

SessionResult SessionEngine::run(const std::vector<std::uint64_t>& blocks,
                                 bool decrypt, const BlockSink& sink) {
  build_devices(decrypt);
  std::vector<core::MaskingPipeline>& devs =
      decrypt ? decrypt_devices_ : devices_;
  const std::size_t n = blocks.size();
  const bool truncated = config_.stop_after_cycles != 0;
  const std::size_t stages = truncated ? 1 : devs.size();
  const SessionKeys& k = config_.keys;

  SessionResult result;
  result.stages = stages;
  result.output = decrypt
                      ? golden_decrypt(config_.cipher, k, config_.iv, blocks)
                      : golden_encrypt(config_.cipher, k, config_.iv, blocks);

  // Chaining values are public (iv, then the previous *ciphertext* block),
  // so they come straight from the golden model and every per-block input
  // below is a pure function of its index — BatchRunner's determinism
  // contract applies unchanged.
  std::vector<std::uint64_t> chain(n);
  const std::vector<std::uint64_t>& cipher_blocks =
      decrypt ? blocks : result.output;
  for (std::size_t i = 0; i < n; ++i) {
    chain[i] = i == 0 ? config_.iv : cipher_blocks[i - 1];
  }

  // Per-stage plans: device key, inputs, golden expectations.
  std::vector<StagePlan> plans;
  const auto add_stage = [&](std::uint64_t key, bool chained, bool dec_core,
                             const std::vector<std::uint64_t>& stage_in) {
    StagePlan plan;
    plan.inputs.reserve(n);
    plan.expected.reserve(n);
    plan.des_inputs.reserve(n);
    plan.chains.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t cv = chained ? chain[i] : 0;
      // Encrypt-side chaining XORs into the DES core's input; decrypt-side
      // chaining XORs into its output.
      const std::uint64_t core_in =
          (chained && !dec_core) ? (stage_in[i] ^ cv) : stage_in[i];
      const std::uint64_t core_out =
          dec_core ? des::decrypt_block(core_in, key)
                   : des::encrypt_block(core_in, key);
      plan.inputs.push_back(core::BatchInput{key, stage_in[i], cv});
      plan.expected.push_back((chained && dec_core) ? (core_out ^ cv)
                                                    : core_out);
      plan.des_inputs.push_back(core_in);
      plan.chains.push_back(cv);
    }
    plans.push_back(std::move(plan));
    return plans.back().expected;  // the next stage's input
  };

  if (config_.cipher == SessionCipher::kDesCbc) {
    add_stage(k.k1, /*chained=*/true, /*dec_core=*/decrypt, blocks);
  } else if (!decrypt) {
    std::vector<std::uint64_t> s1 = add_stage(k.k1, true, false, blocks);
    std::vector<std::uint64_t> s2 = add_stage(k.k2, false, true, s1);
    add_stage(k.k3, false, false, s2);
  } else {
    std::vector<std::uint64_t> t1 = add_stage(k.k3, false, true, blocks);
    std::vector<std::uint64_t> t2 = add_stage(k.k2, false, false, t1);
    add_stage(k.k1, true, true, t2);
  }

  result.blocks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.blocks[i].input = blocks[i];
    result.blocks[i].chain = chain[i];
    result.blocks[i].output = truncated ? 0 : result.output[i];
  }
  if (truncated) result.output.assign(n, 0);
  if (n == 0) return result;

  for (std::size_t s = 0; s < stages; ++s) {
    const StagePlan& plan = plans[s];
    core::BatchConfig bc;
    bc.threads = config_.threads;
    bc.stop_after_cycles = config_.stop_after_cycles;
    bc.noise_sigma_pj = config_.noise_sigma_pj;
    // Distinct per-stage noise streams, still pure functions of the index.
    bc.noise_seed = config_.noise_seed + 0x9E3779B97F4A7C15ull * s;
    core::BatchRunner runner(devs[s], bc);
    runner.capture_each(
        n, [&plan](std::size_t i) { return plan.inputs[i]; },
        [&](std::size_t i, const core::BatchInput&, core::EncryptionRun& r) {
          if (!truncated && r.cipher != plan.expected[i]) {
            throw SessionError(
                "session block " + std::to_string(i) + " stage " +
                std::to_string(s) +
                ": device output disagrees with the golden model");
          }
          result.blocks[i].cycles += r.sim.cycles;
          result.blocks[i].energy_uj += r.total_uj();
          if (sink) {
            BlockEvent ev;
            ev.block = i;
            ev.stage = s;
            ev.stage_input = plan.inputs[i].plaintext;
            ev.chain = plan.chains[i];
            ev.des_input = plan.des_inputs[i];
            sink(ev, r);
          }
        });
    result.threads_used =
        std::max(result.threads_used, runner.stats().threads_used);
    // The prefix length is a property of the program: the runner snapshots
    // every fork-eligible stage and reports its fork cycle.  Other devices
    // (random_precharge) have no shareable prefix — every block pays the
    // schedule, so no prefix cycles are credited.
    if (devs[s].fork_eligible()) {
      const std::uint64_t pc = runner.stats().snapshot_prefix_cycles;
      if (!truncated || pc < config_.stop_after_cycles) {
        result.prefix_cycles += pc;
      }
    }
  }

  result.block_cycles = result.blocks.front().cycles;
  for (const BlockResult& b : result.blocks) {
    result.cold_cycles += b.cycles;
    result.total_uj += b.energy_uj;
  }
  result.session_cycles =
      result.cold_cycles -
      result.prefix_cycles * static_cast<std::uint64_t>(n - 1);
  return result;
}

}  // namespace emask::session
