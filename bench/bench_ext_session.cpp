// Extension S: protocol-scale CBC sessions through the session engine —
// key-schedule amortization and fork-vs-cold bit-identity.
//
// A session chains N blocks through DES-CBC (or 3DES-EDE outer CBC) under
// one key; the engine hoists the key schedule ahead of the fork marker so
// it is simulated once per session instead of once per block.  This bench
// measures simulated blocks/sec at small session lengths, *proves* the
// snapshot contract on the spot (forked per-block traces bit-identical to
// cold captures), and extrapolates the amortized speedup to a 10^5-block
// session with pure cycle math:
//
//   speedup(N) = N * F / (P + N * (F - P))
//
// where F is the full cycle count of one block (all stages) and P the
// summed key-schedule prefix.  Exit status gates the bit-identity checks
// and the 10^5-block speedup (>= 1.2x) — never wall clock.  The CSV/JSON
// series carries cycle math only, so two runs byte-diff clean and CI gates
// the session path on it.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "session/session.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {

constexpr std::size_t kBlocks = 16;  // fully simulated session length
constexpr std::uint64_t kSeed = 0x5E5510;
constexpr double kSpeedupGate = 1.2;  // at the 10^5-block session

struct CipherCase {
  const char* label;
  session::SessionCipher cipher;
  compiler::Policy policy;
};

const session::SessionKeys kKeys = {bench::kKey, 0x23456789ABCDEF01ull,
                                    0x456789ABCDEF0123ull};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A forked session: its result rows, plus every (stage, block) run the
/// engine simulated, in delivery order.
struct Captured {
  session::SessionResult result;
  std::vector<session::BlockEvent> events;
  std::vector<std::vector<double>> samples;  // one entry per event
  double wall_s = 0.0;
};

Captured run_session(session::SessionEngine& engine,
                     const std::vector<std::uint64_t>& blocks) {
  Captured out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = engine.encrypt(
      blocks, [&](const session::BlockEvent& ev, core::EncryptionRun& run) {
        out.events.push_back(ev);
        out.samples.push_back(run.trace.samples());
      });
  out.wall_s = seconds_since(t0);
  return out;
}

/// Re-simulates every run of a forked session from cycle 0 — run_des never
/// snapshots — and checks that each trace, each block's summed cycles and
/// energy, and the session output come out bit for bit the same.
bool matches_cold(const session::SessionEngine& engine, const Captured& fork,
                  double& wall_s) {
  const std::uint64_t stage_keys[] = {kKeys.k1, kKeys.k2, kKeys.k3};
  const std::size_t n = fork.result.blocks.size();
  std::vector<std::uint64_t> cycles(n, 0);
  std::vector<double> energy_uj(n, 0.0);
  std::vector<std::uint64_t> output(n, 0);
  bool same = fork.events.size() == n * engine.stages();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; same && k < fork.events.size(); ++k) {
    const session::BlockEvent& ev = fork.events[k];
    const core::MaskingPipeline& device = engine.device(ev.stage);
    const std::uint64_t key = stage_keys[ev.stage];
    const core::EncryptionRun cold =
        device.has_iv() ? device.run_des_cbc(key, ev.stage_input, ev.chain)
                        : device.run_des(key, ev.stage_input);
    same = cold.trace.samples() == fork.samples[k];
    cycles[ev.block] += cold.sim.cycles;
    energy_uj[ev.block] += cold.total_uj();
    output[ev.block] = cold.cipher;
  }
  wall_s = seconds_since(t0);
  for (std::size_t i = 0; same && i < n; ++i) {
    const session::BlockResult& b = fork.result.blocks[i];
    same = b.cycles == cycles[i] && b.energy_uj == energy_uj[i] &&
           b.output == output[i];
  }
  return same && fork.result.output == output;
}

/// Amortized speedup of an N-block session from one block's cycle counts.
double projected_speedup(std::uint64_t full, std::uint64_t prefix,
                         double n) {
  const double cold = n * static_cast<double>(full);
  const double amortized =
      static_cast<double>(prefix) + n * static_cast<double>(full - prefix);
  return amortized > 0.0 ? cold / amortized : 1.0;
}

}  // namespace

int main() {
  bench::print_banner("Extension S",
                      "CBC session engine: key-schedule amortization and "
                      "fork-vs-cold bit-identity at protocol scale.");

  const CipherCase cases[] = {
      {"des_cbc/selective", session::SessionCipher::kDesCbc,
       compiler::Policy::kSelective},
      {"tdes_cbc/original", session::SessionCipher::kTdesEdeCbc,
       compiler::Policy::kOriginal},
  };
  const std::vector<double> lengths = {1.0, 16.0, 256.0, 100000.0};

  std::vector<std::uint64_t> blocks(kBlocks);
  util::Rng rng(kSeed);
  for (std::uint64_t& b : blocks) b = rng.next_u64();

  bench::SeriesWriter series("ext_session");
  series.write_header({"cipher_tdes", "session_blocks", "prefix_cycles",
                       "block_cycles", "session_cycles", "cold_cycles",
                       "amortized_speedup", "fork_identical"});

  bool all_identical = true;
  bool all_fast_enough = true;
  for (const CipherCase& c : cases) {
    session::SessionConfig cfg;
    cfg.cipher = c.cipher;
    cfg.policy = c.policy;
    cfg.keys = kKeys;
    cfg.iv = bench::kPlain2;
    session::SessionEngine engine(cfg);
    const Captured fork = run_session(engine, blocks);
    double cold_wall_s = 0.0;
    const bool same = matches_cold(engine, fork, cold_wall_s);
    all_identical &= same;

    const session::SessionResult& r = fork.result;
    const double fork_bps = static_cast<double>(kBlocks) / fork.wall_s;
    std::printf("\n-- %s: %zu-block session, %zu stage(s)/block --\n", c.label,
                kBlocks, r.stages);
    std::printf("wall: fork %.3f s (%.1f blocks/s), cold %.3f s; "
                "fork vs cold bit-identical: %s\n",
                fork.wall_s, fork_bps, cold_wall_s, same ? "YES" : "NO");
    std::printf("cycles: prefix %llu, block %llu, session %llu "
                "(cold %llu, %.3fx)\n",
                static_cast<unsigned long long>(r.prefix_cycles),
                static_cast<unsigned long long>(r.block_cycles),
                static_cast<unsigned long long>(r.session_cycles),
                static_cast<unsigned long long>(r.cold_cycles),
                r.amortized_speedup());

    std::printf("%12s %14s %12s\n", "blocks", "speedup", "est. wall s");
    const double cycles_per_s =
        static_cast<double>(r.session_cycles) / fork.wall_s;
    double gate_speedup = 0.0;
    for (const double n : lengths) {
      const double speedup =
          projected_speedup(r.block_cycles, r.prefix_cycles, n);
      const double session_cycles =
          static_cast<double>(r.prefix_cycles) +
          n * static_cast<double>(r.block_cycles - r.prefix_cycles);
      std::printf("%12.0f %13.3fx %12.1f\n", n, speedup,
                  session_cycles / cycles_per_s);
      series.write_row(
          {c.cipher == session::SessionCipher::kTdesEdeCbc ? 1.0 : 0.0, n,
           static_cast<double>(r.prefix_cycles),
           static_cast<double>(r.block_cycles), session_cycles,
           n * static_cast<double>(r.block_cycles), speedup,
           same ? 1.0 : 0.0});
      if (n == lengths.back()) gate_speedup = speedup;
    }
    const bool fast_enough = gate_speedup >= kSpeedupGate;
    all_fast_enough &= fast_enough;
    std::printf("amortized speedup at 10^5 blocks >= %.1fx: %s (%.3fx)\n",
                kSpeedupGate, fast_enough ? "YES" : "NO", gate_speedup);
  }
  series.flush();

  std::printf("\nall ciphers fork-vs-cold bit-identical: %s\n",
              all_identical ? "YES" : "NO");
  return (all_identical && all_fast_enough) ? 0 : 1;
}
