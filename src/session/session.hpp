// Protocol-scale multi-block sessions: DES-CBC and 3DES-EDE-CBC as
// first-class workloads.
//
// The paper measures one ECB block per transaction; real smart-card traffic
// (PuTTY's des_cbc_encrypt / des_3cbc_encrypt shape) is a *session* — many
// blocks chained through CBC under one key.  This subsystem promotes that
// shape from hand-rolled example loops into an engine:
//
//   * chaining happens ON THE DEVICE: the DES generator's cbc_chain option
//     adds an `iv` data symbol and a chaining XOR (plain ^= iv before IP
//     for encryption, cipher ^= iv after the output permutation for
//     decryption), so the simulated trace includes the chaining energy;
//   * the key schedule is hoisted (DesAsmOptions::hoist_key_schedule) and
//     computed ONCE per session: every block forks from the
//     post-key-schedule snapshot (core::MaskingPipeline::snapshot_des),
//     amortizing the schedule across the session;
//   * capture goes through core::BatchRunner.  CBC is sequential on the
//     device but the chain values are *public* (each block's iv is the
//     previous ciphertext), so the engine precomputes the chain with the
//     des:: golden model and every block stays a pure function of its batch
//     index — the runner's determinism contract (bit-identical at any
//     thread count, fork vs cold) carries over to sessions unchanged.  The
//     device output of every block is verified against the golden chain.
//
// Padding contract (pack_message / unpack_message): PKCS#7 over 8-byte
// blocks.  A message of n bytes gains p = 8 - (n mod 8) trailing bytes of
// value p (so a whole-block message gains a full block of 0x08) — never a
// silent zero-pad, and unpack_message rejects malformed padding with a
// SessionError.  Bytes pack big-endian into the std::uint64_t blocks, first
// message byte in the most significant byte.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/masking.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "energy/params.hpp"
#include "hiding/policy.hpp"

namespace emask::session {

class SessionError : public std::runtime_error {
 public:
  explicit SessionError(const std::string& what) : std::runtime_error(what) {}
};

/// Session cipher-axis values.  kDesCbc is single DES in CBC; kTdesEdeCbc
/// is triple-DES EDE with outer CBC (one chaining XOR per block around the
/// whole E-D-E cascade, PuTTY's des_3cbc shape).
enum class SessionCipher {
  kDesCbc,
  kTdesEdeCbc,
};

/// Name table — the one source of truth for spec parsing and errors.
inline constexpr struct {
  SessionCipher value;
  std::string_view name;
} kSessionCipherNames[] = {
    {SessionCipher::kDesCbc, "des_cbc"},
    {SessionCipher::kTdesEdeCbc, "tdes_cbc"},
};

[[nodiscard]] std::string_view session_cipher_name(SessionCipher cipher);
/// Throws SessionError listing the accepted names.
[[nodiscard]] SessionCipher session_cipher_from_name(std::string_view name);

/// Keys of a session.  DES-CBC uses k1 only; 3DES-EDE uses all three.
struct SessionKeys {
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
  std::uint64_t k3 = 0;
};

// ---- Padding / packing (the session byte contract) ----------------------

/// PKCS#7-pads `bytes` and packs them into big-endian 64-bit blocks.
[[nodiscard]] std::vector<std::uint64_t> pack_message(
    const std::vector<std::uint8_t>& bytes);
[[nodiscard]] std::vector<std::uint64_t> pack_message(std::string_view text);

/// Unpacks blocks and strips PKCS#7 padding.  Throws SessionError on an
/// empty block vector or malformed padding (pad byte 0, > 8, or trailing
/// bytes that do not all equal the pad value).
[[nodiscard]] std::vector<std::uint8_t> unpack_message(
    const std::vector<std::uint64_t>& blocks);

// ---- Golden model at session level --------------------------------------

/// CBC over whole blocks with the des:: golden model (single DES or EDE3
/// by cipher).  The engine validates every device output against these.
[[nodiscard]] std::vector<std::uint64_t> golden_encrypt(
    SessionCipher cipher, const SessionKeys& keys, std::uint64_t iv,
    const std::vector<std::uint64_t>& blocks);
[[nodiscard]] std::vector<std::uint64_t> golden_decrypt(
    SessionCipher cipher, const SessionKeys& keys, std::uint64_t iv,
    const std::vector<std::uint64_t>& blocks);

// ---- The engine ----------------------------------------------------------

struct SessionConfig {
  SessionCipher cipher = SessionCipher::kDesCbc;
  SessionKeys keys;
  std::uint64_t iv = 0;
  /// Masking and/or hiding countermeasure for every stage device (converts
  /// implicitly from a bare compiler::Policy).  A non-fork-compatible
  /// hiding policy (random_precharge) disables the shared-prefix
  /// amortization: every block runs cold and no prefix is credited.
  hiding::Countermeasure policy = compiler::Policy::kSelective;
  energy::TechParams params = energy::TechParams::smartcard_025um();
  /// Worker threads for block capture (BatchConfig::threads: 0 = one
  /// capture thread per core).  Any value produces bit-identical results.
  std::size_t threads = 1;
  /// Additive Gaussian measurement noise per block trace (pJ rms), seeded
  /// per block index.
  double noise_sigma_pj = 0.0;
  std::uint64_t noise_seed = 0xC0FFEE;
  /// Truncate each first-stage block run after this many cycles (0 = run
  /// to halt).  Attack captures window round 1 of the first DES pass; a
  /// truncated session simulates ONLY that pass (3DES stages 2-3 are
  /// skipped) and skips ciphertext validation, since truncated runs report
  /// cipher = 0.
  std::uint64_t stop_after_cycles = 0;
  /// Base seed for per-trace hiding randomness; each stage device gets a
  /// distinct derived seed (still a pure function of this value).
  std::uint64_t hiding_seed = 0x9E3779B97F4A7C15ull;
};

/// Per-block view delivered to the capture sink, in strict block order.
struct BlockEvent {
  std::size_t block = 0;       // block index within the session
  std::size_t stage = 0;       // DES pass (0 for DES-CBC; 0..2 for 3DES)
  std::uint64_t stage_input = 0;  // value poked as `plain` for this pass
  std::uint64_t chain = 0;        // chaining value into this block
  /// Effective single-DES input of the pass: stage_input ^ chain for the
  /// chained pass, stage_input otherwise.  Round-1 attack hypotheses use
  /// this exactly like an ECB plaintext.
  std::uint64_t des_input = 0;
};

using BlockSink =
    std::function<void(const BlockEvent&, core::EncryptionRun&)>;

/// One block's attribution, summed over the session's stages.
struct BlockResult {
  std::uint64_t input = 0;   // session-level input block
  std::uint64_t chain = 0;   // chaining value into the block
  std::uint64_t output = 0;  // session-level output block (0 if truncated)
  std::uint64_t cycles = 0;  // full spliced cycle count across stages
  double energy_uj = 0.0;    // full energy across stages (prefix included)
};

struct SessionResult {
  std::vector<std::uint64_t> output;  // ciphertext (encrypt) or plaintext
  std::vector<BlockResult> blocks;
  std::size_t stages = 1;        // DES passes per block actually simulated
  std::size_t threads_used = 0;  // capture threads (BatchStats::threads_used)
  /// Amortization accounting, pure cycle math (the same whether blocks
  /// fork or run cold).  A cold session pays the key-schedule prefix on every
  /// block of every stage; the hoisted session pays it once per stage.
  std::uint64_t prefix_cycles = 0;     // summed across simulated stages
  std::uint64_t block_cycles = 0;      // full cycles of one block, all stages
  std::uint64_t session_cycles = 0;    // amortized: prefix + N * body
  std::uint64_t cold_cycles = 0;       // N * block_cycles
  double total_uj = 0.0;               // summed full block energies

  [[nodiscard]] double amortized_speedup() const {
    return session_cycles > 0 ? static_cast<double>(cold_cycles) /
                                    static_cast<double>(session_cycles)
                              : 1.0;
  }
  [[nodiscard]] double uj_per_block() const {
    return blocks.empty() ? 0.0
                          : total_uj / static_cast<double>(blocks.size());
  }
};

/// Builds the per-stage devices once (assembly + masking compile), then
/// encrypts or decrypts any number of block vectors.  3DES-EDE-CBC runs
/// stage-major: all blocks through pass 1, then pass 2, then pass 3 — each
/// pass is one BatchRunner batch forking from that stage's own
/// post-key-schedule snapshot.
class SessionEngine {
 public:
  explicit SessionEngine(SessionConfig config);

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  /// Adjusts the attack truncation window after construction — campaign
  /// attack windows are derived from the compiled stage-0 program, which
  /// only exists once the engine is built.
  void set_stop_after_cycles(std::uint64_t cycles) {
    config_.stop_after_cycles = cycles;
  }
  /// DES passes per block (1 for DES-CBC, 3 for 3DES-EDE-CBC).
  [[nodiscard]] std::size_t stages() const { return devices_.size(); }
  /// The compiled device of a pass (0-based; encrypt-order stages).
  [[nodiscard]] const core::MaskingPipeline& device(std::size_t stage) const;

  /// Encrypts `blocks` (whole 64-bit blocks; use pack_message for bytes).
  /// The sink, when set, receives every simulated (block, stage) run in
  /// strict block order within each stage.  Device outputs are validated
  /// against the golden model chain; a mismatch throws SessionError.
  SessionResult encrypt(const std::vector<std::uint64_t>& blocks,
                        const BlockSink& sink = {});
  /// Decrypts `blocks`; same contract.
  SessionResult decrypt(const std::vector<std::uint64_t>& blocks,
                        const BlockSink& sink = {});

 private:
  SessionResult run(const std::vector<std::uint64_t>& blocks, bool decrypt,
                    const BlockSink& sink);

  SessionConfig config_;
  // Encrypt-order devices: [chained E(k1)] for DES-CBC; [chained E(k1),
  // plain D(k2), plain E(k3)] for 3DES.  Decryption reverses the order and
  // swaps each stage's direction; those devices are built lazily.
  std::vector<core::MaskingPipeline> devices_;
  std::vector<core::MaskingPipeline> decrypt_devices_;
  void build_devices(bool decrypt);
};

}  // namespace emask::session
