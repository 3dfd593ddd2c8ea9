// Parallel batch trace-capture engine: determinism contract, streaming,
// stats, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/batch_runner.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kSeed = 0xBA7C4;
constexpr std::size_t kTraces = 8;
constexpr std::uint64_t kStop = 1500;  // short prefix keeps the test quick

const MaskingPipeline& device() {
  static const MaskingPipeline p =
      MaskingPipeline::des(compiler::Policy::kOriginal);
  return p;
}

BatchConfig config(std::size_t threads) {
  BatchConfig bc;
  bc.threads = threads;
  bc.stop_after_cycles = kStop;
  return bc;
}

void expect_identical(const analysis::TraceSet& a,
                      const analysis::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.inputs, b.inputs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise: vector<double> operator== compares every sample exactly.
    EXPECT_EQ(a.traces[i].samples(), b.traces[i].samples()) << "trace " << i;
  }
}

// The headline contract: N threads produce the same TraceSet as 1 thread,
// bit for bit — inputs, sample values, and ordering.
TEST(BatchRunner, ThreadCountDoesNotChangeTheTraceSet) {
  const InputGenerator gen = random_plaintexts(kKey, kSeed);
  BatchRunner serial(device(), config(1));
  const analysis::TraceSet one = serial.capture(kTraces, gen);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    BatchRunner parallel(device(), config(threads));
    const analysis::TraceSet many = parallel.capture(kTraces, gen);
    expect_identical(one, many);
  }
}

// ... and noisy capture stays deterministic too (noise is seeded per index,
// not from a stream threaded through the batch).
TEST(BatchRunner, NoisyCaptureIsThreadCountInvariant) {
  BatchConfig noisy = config(1);
  noisy.noise_sigma_pj = 1.0;
  noisy.noise_seed = 0x5EED;
  BatchRunner serial(device(), noisy);
  const analysis::TraceSet one =
      serial.capture(kTraces, random_plaintexts(kKey, kSeed));
  noisy.threads = 4;
  BatchRunner parallel(device(), noisy);
  const analysis::TraceSet many =
      parallel.capture(kTraces, random_plaintexts(kKey, kSeed));
  expect_identical(one, many);
}

// The generator stream matches the serial rng.next_u64() acquisition loops
// the benches used before BatchRunner existed.
TEST(BatchRunner, RandomPlaintextsReproduceTheSerialRngStream) {
  util::Rng rng(kSeed);
  const InputGenerator gen = random_plaintexts(kKey, kSeed);
  for (std::size_t i = 0; i < 32; ++i) {
    const BatchInput input = gen(i);
    EXPECT_EQ(input.key, kKey);
    EXPECT_EQ(input.plaintext, rng.next_u64()) << "index " << i;
  }
}

TEST(BatchRunner, MatchesDirectRunDes) {
  BatchRunner runner(device(), config(4));
  const analysis::TraceSet set =
      runner.capture(kTraces, random_plaintexts(kKey, kSeed));
  // Spot-check first and last against the single-encryption API.
  for (const std::size_t i : {std::size_t{0}, kTraces - 1}) {
    const EncryptionRun run =
        device().run_des(kKey, set.inputs[i], kStop);
    EXPECT_EQ(set.traces[i].samples(), run.trace.samples());
  }
}

TEST(BatchRunner, ExplicitInputListKeepsOrder) {
  std::vector<BatchInput> inputs;
  for (std::uint64_t i = 0; i < 5; ++i) inputs.push_back({kKey, 100 + i});
  BatchRunner runner(device(), config(3));
  const analysis::TraceSet set = runner.capture(inputs);
  ASSERT_EQ(set.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(set.inputs[i], inputs[i].plaintext);
  }
}

TEST(BatchRunner, CaptureEachEmitsInStrictIndexOrder) {
  BatchRunner runner(device(), config(4));
  std::size_t expected = 0;
  runner.capture_each(kTraces, random_plaintexts(kKey, kSeed),
                      [&](std::size_t i, const BatchInput&, EncryptionRun&) {
                        EXPECT_EQ(i, expected);
                        ++expected;
                      });
  EXPECT_EQ(expected, kTraces);
}

TEST(BatchRunner, StatsAggregateInSerialOrder) {
  BatchRunner serial(device(), config(1));
  (void)serial.capture(kTraces, random_plaintexts(kKey, kSeed));
  BatchRunner parallel(device(), config(4));
  (void)parallel.capture(kTraces, random_plaintexts(kKey, kSeed));
  const BatchStats& a = serial.stats();
  const BatchStats& b = parallel.stats();
  EXPECT_EQ(a.encryptions, kTraces);
  EXPECT_EQ(b.encryptions, kTraces);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  // Serial-order accumulation: even the floating-point sums agree exactly.
  EXPECT_EQ(a.total_energy_uj, b.total_energy_uj);
  EXPECT_EQ(a.breakdown.total(), b.breakdown.total());
  EXPECT_EQ(a.total_cycles, kTraces * kStop);
  EXPECT_GT(a.total_energy_uj, 0.0);
  // The device's program has no fork marker, so every run starts cold.
  EXPECT_EQ(a.snapshot_forks, 0u);
  EXPECT_EQ(a.cold_starts, kTraces);
  EXPECT_EQ(a.snapshot_prefix_cycles, 0u);
}

TEST(BatchRunner, EmptyBatchIsANoOp) {
  BatchRunner runner(device(), config(4));
  const analysis::TraceSet set =
      runner.capture(0, random_plaintexts(kKey, kSeed));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(runner.stats().encryptions, 0u);
}

TEST(BatchRunner, WorkerExceptionPropagatesToCaller) {
  BatchRunner runner(device(), config(4));
  // Plaintext is irrelevant: a generator that throws models a failing
  // acquisition source.
  const InputGenerator poisoned = [](std::size_t i) -> BatchInput {
    if (i == 5) throw std::runtime_error("acquisition failed");
    return {kKey, i};
  };
  EXPECT_THROW((void)runner.capture(kTraces, poisoned), std::runtime_error);
}

TEST(BatchRunner, SinkExceptionStopsTheBatch) {
  BatchRunner runner(device(), config(4));
  EXPECT_THROW(
      runner.capture_each(kTraces, random_plaintexts(kKey, kSeed),
                          [](std::size_t i, const BatchInput&,
                             EncryptionRun&) {
                            if (i == 2) throw std::runtime_error("sink full");
                          }),
      std::runtime_error);
}

TEST(BatchRunner, EffectiveThreadsClampsToBatchSize) {
  BatchRunner runner(device(), config(8));
  EXPECT_EQ(runner.effective_threads(3), 3u);
  EXPECT_EQ(runner.effective_threads(100), 8u);
  EXPECT_GE(runner.effective_threads(1), 1u);
}

// --- Shared-prefix snapshot/fork batches -------------------------------

// A device whose program declares a fork marker (hoisted key schedule).
const MaskingPipeline& forkable_device() {
  static const MaskingPipeline p = [] {
    des::DesAsmOptions opts;
    opts.hoist_key_schedule = true;
    return MaskingPipeline::des(compiler::Policy::kOriginal,
                                energy::TechParams::smartcard_025um(), opts);
  }();
  return p;
}

// Full runs (stop = 0): the fork path is exercised.
BatchConfig full_config(std::size_t threads) {
  BatchConfig bc;
  bc.threads = threads;
  return bc;
}

// The cold reference: a run function never snapshots.
BatchConfig cold_config() {
  BatchConfig bc = full_config(1);
  bc.run_function = [](const MaskingPipeline& dev, const BatchInput& in) {
    return dev.run_des(in.key, in.plaintext);
  };
  return bc;
}

// The snapshot path obeys the same headline contract: any thread count,
// with or without forking, produces the identical TraceSet — including
// with per-index measurement noise on top.
TEST(BatchRunnerSnapshot, ForkingIsBitIdenticalAcrossThreadCounts) {
  const std::size_t kN = 6;
  const InputGenerator gen = random_plaintexts(kKey, kSeed);
  BatchRunner cold(forkable_device(), cold_config());
  const analysis::TraceSet reference = cold.capture(kN, gen);
  EXPECT_EQ(cold.stats().snapshot_forks, 0u);
  EXPECT_EQ(cold.stats().cold_starts, kN);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchRunner forked(forkable_device(), full_config(threads));
    const analysis::TraceSet set = forked.capture(kN, gen);
    expect_identical(reference, set);
    EXPECT_EQ(forked.stats().snapshot_forks, kN) << threads << " threads";
    EXPECT_EQ(forked.stats().cold_starts, 0u);
    EXPECT_GT(forked.stats().snapshot_prefix_cycles, 0u);
  }
}

TEST(BatchRunnerSnapshot, NoisyForkedCaptureMatchesNoisyColdCapture) {
  const std::size_t kN = 4;
  BatchConfig cold_cfg = cold_config();
  cold_cfg.noise_sigma_pj = 2.0;
  cold_cfg.noise_seed = 0x5EED;
  BatchRunner cold(forkable_device(), cold_cfg);
  const analysis::TraceSet reference =
      cold.capture(kN, random_plaintexts(kKey, kSeed));
  EXPECT_EQ(cold.stats().cold_starts, kN);
  BatchConfig fork_cfg = full_config(8);
  fork_cfg.noise_sigma_pj = cold_cfg.noise_sigma_pj;
  fork_cfg.noise_seed = cold_cfg.noise_seed;
  BatchRunner forked(forkable_device(), fork_cfg);
  const analysis::TraceSet set =
      forked.capture(kN, random_plaintexts(kKey, kSeed));
  expect_identical(reference, set);
  EXPECT_EQ(forked.stats().snapshot_forks, kN);
  EXPECT_EQ(forked.stats().cold_starts, 0u);
}

// The snapshot is keyed to the batch's first input: other keys in the same
// batch cold-start (and still come out right).
TEST(BatchRunnerSnapshot, MixedKeysForkOnlyTheSnapshotKey) {
  std::vector<BatchInput> inputs = {{kKey, 1}, {kKey ^ 1, 2}, {kKey, 3}};
  BatchRunner runner(forkable_device(), full_config(2));
  const analysis::TraceSet set = runner.capture(inputs);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(runner.stats().snapshot_forks, 2u);
  EXPECT_EQ(runner.stats().cold_starts, 1u);
  // The foreign-key trace matches its own cold single run.
  const EncryptionRun direct = forkable_device().run_des(kKey ^ 1, 2);
  EXPECT_EQ(set.traces[1].samples(), direct.trace.samples());
}

// A stop_after_cycles budget ending before the fork point silently falls
// back to cold starts — the trace is never longer than requested.
TEST(BatchRunnerSnapshot, StopBeforeForkPointFallsBackCold) {
  BatchConfig bc = full_config(2);
  bc.stop_after_cycles = 100;  // well before the hoisted key schedule ends
  BatchRunner runner(forkable_device(), bc);
  const analysis::TraceSet set =
      runner.capture(3, random_plaintexts(kKey, kSeed));
  for (const auto& trace : set.traces) EXPECT_EQ(trace.size(), 100u);
  EXPECT_EQ(runner.stats().snapshot_forks, 0u);
  EXPECT_EQ(runner.stats().cold_starts, 3u);
}

// A custom run_function never snapshots, so it is the cold reference.
TEST(BatchRunnerSnapshot, RunFunctionBypassesSnapshotting) {
  BatchConfig bc = cold_config();
  bc.threads = 2;
  BatchRunner runner(forkable_device(), bc);
  const analysis::TraceSet set =
      runner.capture(3, random_plaintexts(kKey, kSeed));
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(runner.stats().snapshot_forks, 0u);
  EXPECT_EQ(runner.stats().cold_starts, 3u);
  EXPECT_EQ(runner.stats().snapshot_prefix_cycles, 0u);
}

}  // namespace
}  // namespace emask::core
