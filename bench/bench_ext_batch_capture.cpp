// Extension P: parallel batch trace capture — serial loop vs the
// core::BatchRunner thread-pool engine.
//
// Every attack experiment consumes thousands of independent encryption
// traces; this bench measures how fast the capture engine acquires them
// and *proves* the engine's determinism contract on the spot: the
// multi-threaded TraceSet must be bit-identical (inputs, sample values,
// ordering) to the 1-thread capture, which in turn must match a plain
// serial run_des loop.  A second section benchmarks shared-prefix
// snapshot/fork capture (hoisted key schedule + `fork` marker): fork-vs-
// cold bit-identity plus the algorithmic speedup from simulating the
// plaintext-independent prefix once per batch.  Exit status reflects the
// bit-identity checks and the cycle-count speedup gate (> 1.3x) — never
// wall clock, which depends on the host's core count (a 4-core machine
// typically shows >= 3x on the thread-pool table).
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {

constexpr std::size_t kTraces = 24;
constexpr std::uint64_t kWindowEnd = 6000;  // round-1 window prefix
constexpr std::uint64_t kSeed = 0xBA7C4;
constexpr std::size_t kForkTraces = 12;  // full traces for the fork series

bool identical(const analysis::TraceSet& a, const analysis::TraceSet& b) {
  if (a.size() != b.size() || a.inputs != b.inputs) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.traces[i].samples() != b.traces[i].samples()) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_banner("Extension P",
                      "Batch trace capture: serial loop vs BatchRunner "
                      "thread pool (bit-identity + throughput).");
  const auto device = core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("host reports %u hardware thread(s); batch = %zu traces x %llu "
              "cycles\n\n",
              hw, kTraces, static_cast<unsigned long long>(kWindowEnd));

  // Reference: the plain serial loop every bench used before BatchRunner.
  analysis::TraceSet reference;
  util::Rng rng(kSeed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kTraces; ++i) {
    const std::uint64_t pt = rng.next_u64();
    reference.add(pt, device.run_des(bench::kKey, pt, kWindowEnd).trace);
  }
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double serial_eps = static_cast<double>(kTraces) / serial_s;
  std::printf("%8s %12s %12s %10s %9s\n", "threads", "wall s", "enc/s",
              "speedup", "bitwise?");
  std::printf("%8s %12.3f %12.1f %10s %9s\n", "loop", serial_s, serial_eps,
              "1.00x", "ref");

  util::CsvWriter csv(bench::out_dir() + "/ext_batch_capture.csv");
  csv.write_header({"threads", "wall_s", "enc_per_s", "speedup", "bitwise"});
  csv.write_row({0.0, serial_s, serial_eps, 1.0, 1.0});

  bool all_identical = true;
  double best_speedup = 1.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{hw}}) {
    core::BatchConfig bc;
    bc.threads = threads;
    bc.stop_after_cycles = kWindowEnd;
    core::BatchRunner runner(device, bc);
    const analysis::TraceSet set =
        runner.capture(kTraces, core::random_plaintexts(bench::kKey, kSeed));
    const core::BatchStats& stats = runner.stats();
    const bool same = identical(set, reference);
    all_identical &= same;
    const double speedup = serial_s / stats.wall_seconds;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%8zu %12.3f %12.1f %9.2fx %9s\n", threads,
                stats.wall_seconds, stats.encryptions_per_sec(), speedup,
                same ? "YES" : "NO");
    csv.write_row({static_cast<double>(threads), stats.wall_seconds,
                   stats.encryptions_per_sec(), speedup, same ? 1.0 : 0.0});
  }

  std::printf("\nbest speedup over serial loop : %.2fx (%u cores visible)\n",
              best_speedup, hw);
  std::printf("all thread counts bit-identical: %s\n",
              all_identical ? "YES" : "NO");

  // --- Shared-prefix snapshot/fork capture ------------------------------
  // A fork-capable device (hoisted key schedule + `fork` marker) captures
  // the plaintext-independent prefix once per batch and forks every trace
  // from the snapshot.  Wall clock goes to stdout only; the CSV/JSON series
  // carries pure cycle-count math, so two runs of this bench byte-diff
  // clean and CI gates the snapshot path on it.
  std::printf("\n-- shared-prefix snapshot/fork (full traces, fixed key) --\n");
  des::DesAsmOptions hoisted;
  hoisted.hoist_key_schedule = true;
  const auto forkable = core::MaskingPipeline::des(
      compiler::Policy::kOriginal, energy::TechParams::smartcard_025um(),
      hoisted);

  // The cold reference: a run function never snapshots.
  core::BatchConfig cold_bc;
  cold_bc.threads = 1;
  cold_bc.run_function = [](const core::MaskingPipeline& device,
                            const core::BatchInput& in) {
    return device.run_des(in.key, in.plaintext);
  };
  core::BatchRunner cold(forkable, cold_bc);
  const analysis::TraceSet cold_set =
      cold.capture(kForkTraces, core::random_plaintexts(bench::kKey, kSeed));
  const double cold_wall = cold.stats().wall_seconds;
  const std::uint64_t trace_cycles = cold.stats().total_cycles;

  bool fork_identical = true;
  std::uint64_t prefix_cycles = 0;
  std::uint64_t forks = 0;
  double fork_wall_1t = 0.0;
  std::printf("%8s %12s %12s %10s %9s\n", "threads", "wall s", "enc/s",
              "speedup", "bitwise?");
  std::printf("%8s %12.3f %12.1f %10s %9s\n", "cold", cold_wall,
              cold.stats().encryptions_per_sec(), "1.00x", "ref");
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{hw}}) {
    core::BatchConfig fork_bc;
    fork_bc.threads = threads;
    core::BatchRunner forked(forkable, fork_bc);
    const analysis::TraceSet set = forked.capture(
        kForkTraces, core::random_plaintexts(bench::kKey, kSeed));
    const bool same = identical(set, cold_set);
    fork_identical &= same;
    prefix_cycles = forked.stats().snapshot_prefix_cycles;
    forks = forked.stats().snapshot_forks;
    if (threads == 1) fork_wall_1t = forked.stats().wall_seconds;
    std::printf("%8zu %12.3f %12.1f %9.2fx %9s\n", threads,
                forked.stats().wall_seconds,
                forked.stats().encryptions_per_sec(),
                cold_wall / forked.stats().wall_seconds, same ? "YES" : "NO");
  }

  // Algorithmic speedup from cycle counts alone: a cold batch simulates
  // every cycle of every trace; a forked batch simulates the prefix once
  // plus each trace's continuation.  (Forked traces still *report* full
  // cycle counts — the prefix is spliced — so trace_cycles is mode-
  // independent, which is itself part of the bit-identity contract.)
  const std::uint64_t fork_simulated =
      trace_cycles - forks * prefix_cycles + prefix_cycles;
  const double algorithmic_speedup =
      static_cast<double>(trace_cycles) / static_cast<double>(fork_simulated);
  std::printf("\nshared prefix: %llu of %llu cycles/trace (%.1f%%)\n",
              static_cast<unsigned long long>(prefix_cycles),
              static_cast<unsigned long long>(trace_cycles / kForkTraces),
              100.0 * static_cast<double>(prefix_cycles * kForkTraces) /
                  static_cast<double>(trace_cycles));
  std::printf("algorithmic speedup (cycles simulated, cold/fork): %.2fx\n",
              algorithmic_speedup);
  std::printf("measured 1-thread wall speedup: %.2fx\n",
              fork_wall_1t > 0.0 ? cold_wall / fork_wall_1t : 0.0);
  std::printf("fork vs cold bit-identical: %s\n",
              fork_identical ? "YES" : "NO");

  {
    bench::SeriesWriter series("ext_snapshot_fork");
    series.write_header({"mode_fork", "traces", "prefix_cycles",
                         "snapshot_forks", "trace_cycles", "simulated_cycles",
                         "algorithmic_speedup", "bitwise_vs_cold"});
    series.write_row({0.0, static_cast<double>(kForkTraces), 0.0, 0.0,
                      static_cast<double>(trace_cycles),
                      static_cast<double>(trace_cycles), 1.0, 1.0});
    series.write_row({1.0, static_cast<double>(kForkTraces),
                      static_cast<double>(prefix_cycles),
                      static_cast<double>(forks),
                      static_cast<double>(trace_cycles),
                      static_cast<double>(fork_simulated), algorithmic_speedup,
                      fork_identical ? 1.0 : 0.0});
    series.flush();
  }

  const bool fork_fast_enough = algorithmic_speedup > 1.3;
  std::printf("algorithmic speedup > 1.3x: %s\n",
              fork_fast_enough ? "YES" : "NO");

  return (all_identical && fork_identical && fork_fast_enough) ? 0 : 1;
}
