// Parallel batch trace-capture engine.
//
// Every attack experiment (DPA key recovery, TVLA, noise sweeps) consumes
// thousands of independent encryption traces.  Each encryption is a pure
// function of its (key, plaintext) input — the compiled program, simulator
// and energy model carry no state across runs — so capture is
// embarrassingly parallel.  BatchRunner fans a batch out across a
// std::thread worker pool plus the calling thread, all running the one
// const device (each run builds its own machine and energy model), and
// re-serializes completions so consumers observe traces in input order.
//
// Determinism contract
// --------------------
// The captured TraceSet is **bit-identical to a serial capture regardless
// of thread count**.  Three mechanisms guarantee this:
//
//   1. every per-encryption input is derived from the batch *index* alone
//      (explicit input list, or a deterministic per-index generator —
//      util::Rng::nth gives O(1) random access into a SplitMix64 stream);
//   2. each capture thread writes its result into the slot reserved for
//      that index; whichever thread completes the next in-order run emits
//      it, and emission hands results to the consumer strictly in index
//      order;
//   3. batch statistics (cycle totals, energy aggregates, per-component
//      breakdown) are accumulated on the emission side, in serial order, so
//      even floating-point sums are schedule-independent.
//
// The sink is serialized: calls never overlap, arrive in index order, and
// each happens-before the next, but a call may run on any capture thread
// (a spawned worker or the calling thread).  The first call, index 0,
// always runs on the calling thread.  Every capture thread simulates, so
// BatchRunner::effective_threads threads are busy at once.
//
// Large batches stream: a bounded reorder window (four traces per worker)
// caps resident memory, so a sink that writes each trace out (the
// campaign runner's traces.emts) never holds more than the window in RAM.
//
// Shared-prefix forking: when the device is fork_eligible() and the batch
// has no run_function, the runner captures the plaintext-independent
// prefix once (MaskingPipeline::snapshot_des) and forks every same-key run
// from the snapshot.  run_des_from is bit-identical to run_des, so the
// determinism contract is unaffected — snapshotting is purely a throughput
// optimization, and fork/cold accounting lands in BatchStats.  A cold
// reference for a forkable device is a run_function calling run_des, which
// never snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/trace_io.hpp"
#include "core/masking_pipeline.hpp"
#include "energy/components.hpp"

namespace emask::core {

/// One encryption job.
struct BatchInput {
  std::uint64_t key = 0;
  std::uint64_t plaintext = 0;
  /// CBC chaining value, poked into the `iv` symbol of cbc_chain programs
  /// (the session layer precomputes the chain via the golden model so every
  /// block stays a pure function of its batch index).  Ignored for programs
  /// without an `iv` symbol.
  std::uint64_t iv = 0;
};

/// Produces the input for batch index `i`.  Must be a pure function of the
/// index (and thread-safe): the determinism contract hangs on it.
using InputGenerator = std::function<BatchInput(std::size_t)>;

/// Custom per-encryption run: lets a batch drive non-DES workloads (poke
/// an AES plaintext or SHA-1 message block into an image copy, then
/// MaskingPipeline::run with RunRequest::image).  Must be a pure function
/// of (device, input) and thread-safe — the determinism contract extends
/// to it.  Measurement noise is still applied by the runner on top of the
/// returned trace.
using RunFunction =
    std::function<EncryptionRun(const MaskingPipeline&, const BatchInput&)>;

struct BatchConfig {
  /// Spawned worker threads, which the calling thread joins in capturing;
  /// 1 runs on the calling thread alone, and 0 = one capture thread per
  /// core (std::thread::hardware_concurrency() in all, the calling thread
  /// included).
  std::size_t threads = 0;
  /// Truncate each encryption after this many cycles (0 = run to halt) —
  /// an attacker windowing round 1 does not pay for the other fifteen.
  std::uint64_t stop_after_cycles = 0;
  /// Additive Gaussian measurement noise, pJ rms (0 = noise-free).  Seeded
  /// per *index* so noisy batches stay schedule-independent.
  double noise_sigma_pj = 0.0;
  std::uint64_t noise_seed = 0xC0FFEE;
  /// Null = DES: device.run with the input's key, plaintext (and iv) and
  /// stop_after_cycles, forked from a shared-prefix snapshot when the
  /// device is fork_eligible().  Non-null overrides the whole simulation
  /// step (stop_after_cycles is then the run function's business) and
  /// never snapshots — the runner cannot know what a custom run reads
  /// before the fork point.
  RunFunction run_function;
};

/// Batch observability: what the capture cost, aggregated in serial order.
struct BatchStats {
  std::uint64_t encryptions = 0;
  std::uint64_t total_cycles = 0;       // simulated cycles across the batch
  std::uint64_t total_instructions = 0; // retired
  double total_energy_uj = 0.0;
  energy::Breakdown breakdown;          // per-component energy, joules
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;  // capture threads, the calling thread's too
  /// Shared-prefix accounting.  total_cycles counts every trace in full
  /// (forked traces splice the prefix, so they report the same cycle count
  /// as a cold run); the cycles *not* re-simulated thanks to forking are
  /// snapshot_forks * snapshot_prefix_cycles.
  std::uint64_t snapshot_forks = 0;          // runs forked from the snapshot
  std::uint64_t cold_starts = 0;             // runs simulated from cycle 0
  std::uint64_t snapshot_prefix_cycles = 0;  // fork_cycle of the snapshot

  [[nodiscard]] double encryptions_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(encryptions) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double cycles_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_cycles) / wall_seconds
               : 0.0;
  }
};

class BatchRunner {
 public:
  explicit BatchRunner(const MaskingPipeline& pipeline,
                       BatchConfig config = {});

  /// Captures one trace per input, in order.
  [[nodiscard]] analysis::TraceSet capture(
      const std::vector<BatchInput>& inputs);

  /// Captures `count` traces with per-index generated inputs.
  [[nodiscard]] analysis::TraceSet capture(std::size_t count,
                                           const InputGenerator& generator);

  /// Streams the batch through `sink(index, input, run)` in strict index
  /// order with bounded memory — the workhorse behind the other overloads.
  /// Sink calls are serialized, in index order, on any capture thread
  /// (index 0 on the calling thread); effective_threads(count) threads
  /// are busy.  An exception from the sink or a run stops the batch and
  /// reaches the caller once every thread is done.
  void capture_each(
      std::size_t count, const InputGenerator& generator,
      const std::function<void(std::size_t, const BatchInput&,
                               EncryptionRun&)>& sink);

  /// Statistics of the most recent capture.
  [[nodiscard]] const BatchStats& stats() const { return stats_; }

  /// Capture threads the next capture will actually use for `count` jobs,
  /// the calling thread included: `threads` workers plus the caller (the
  /// caller alone at 1, one per core at 0), never more than `count`.
  [[nodiscard]] std::size_t effective_threads(std::size_t count) const;

 private:
  const MaskingPipeline& pipeline_;
  BatchConfig config_;
  BatchStats stats_;
};

/// Convenience: the uniform-random (key fixed, plaintext = stream of
/// util::Rng(seed)) generator every attack bench uses.  Index i yields
/// plaintext util::Rng::nth(seed, i), reproducing the serial
/// `rng.next_u64()` acquisition loop bit-exactly.
[[nodiscard]] InputGenerator random_plaintexts(std::uint64_t key,
                                               std::uint64_t seed);

}  // namespace emask::core
