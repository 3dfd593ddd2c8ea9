// Parallel batch trace-capture engine: determinism contract, streaming,
// stats, and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

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
  // The noise is really on: every trace differs from its noise-free twin.
  BatchRunner clean(device(), config(1));
  const analysis::TraceSet quiet =
      clean.capture(kTraces, random_plaintexts(kKey, kSeed));
  for (std::size_t i = 0; i < kTraces; ++i) {
    EXPECT_NE(one.traces[i].samples(), quiet.traces[i].samples())
        << "trace " << i;
  }
}

bool same_bytes(const analysis::Trace& a, const analysis::Trace& b) {
  return a.size() == b.size() &&
         std::memcmp(a.samples().data(), b.samples().data(),
                     a.size() * sizeof(double)) == 0;
}

// Any capture thread may run the sink, but sink calls never overlap and
// arrive strictly in index order, with the serial capture's bytes; the
// first call runs on the calling thread.
TEST(BatchRunner, SinkCallsAreSerializedInIndexOrder) {
  constexpr std::size_t kN = 24;
  const InputGenerator gen = random_plaintexts(kKey, kSeed);
  BatchRunner serial(device(), config(1));
  const analysis::TraceSet reference = serial.capture(kN, gen);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    BatchRunner runner(device(), config(threads));
    std::atomic<bool> in_sink{false};
    std::vector<std::size_t> order;
    std::vector<analysis::Trace> traces;
    std::thread::id first_sink;
    runner.capture_each(
        kN, gen, [&](std::size_t i, const BatchInput& in, EncryptionRun& run) {
          EXPECT_FALSE(in_sink.exchange(true)) << "overlapping sink at " << i;
          if (i == 0) first_sink = std::this_thread::get_id();
          EXPECT_EQ(in.plaintext, reference.inputs[i]);
          order.push_back(i);
          traces.push_back(std::move(run.trace));
          // Linger so a concurrent call would be seen.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          in_sink.store(false);
        });
    ASSERT_EQ(order.size(), kN) << threads << " threads";
    EXPECT_EQ(first_sink, std::this_thread::get_id()) << threads << " threads";
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(order[i], i) << threads << " threads";
      EXPECT_TRUE(same_bytes(traces[i], reference.traces[i]))
          << threads << " threads, trace " << i;
    }
  }
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

struct SinkFull : std::runtime_error {
  SinkFull() : std::runtime_error("sink full") {}
};

TEST(BatchRunner, SinkExceptionStopsTheBatch) {
  BatchRunner runner(device(), config(4));
  std::vector<std::size_t> seen;
  EXPECT_THROW(
      runner.capture_each(kTraces, random_plaintexts(kKey, kSeed),
                          [&](std::size_t i, const BatchInput&,
                              EncryptionRun&) {
                            seen.push_back(i);
                            if (i == 2) throw SinkFull();
                          }),
      SinkFull);
  // Nothing after the throwing index reaches the sink.
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

struct WorkerFailure : std::runtime_error {
  WorkerFailure() : std::runtime_error("worker run failed") {}
};

// A run that throws on a spawned worker, not on the calling thread, still
// reaches the caller with its own type.
TEST(BatchRunner, RunExceptionOnAWorkerReachesTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  BatchConfig bc = config(2);
  bc.run_function = [&](const MaskingPipeline& dev, const BatchInput& in) {
    if (std::this_thread::get_id() != caller) {
      worker_threw = true;
      throw WorkerFailure();
    }
    // Leave the workers time to claim a run.
    for (int k = 0; k < 5000 && !worker_threw; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return dev.run_des(in.key, in.plaintext, kStop);
  };
  BatchRunner runner(device(), bc);
  EXPECT_THROW((void)runner.capture(kTraces, random_plaintexts(kKey, kSeed)),
               WorkerFailure);
  EXPECT_TRUE(worker_threw);
}

// The calling thread captures too: once it has run index 0 it goes on
// claiming ordinary runs rather than waiting to emit, and no more than
// threads + 1 threads ever run one.  Each run is slow enough that the two
// workers cannot take every later claim while the caller runs index 0.
TEST(BatchRunner, CallingThreadSimulates) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::size_t caller_runs_after_first = 0;
  BatchConfig bc = config(2);
  bc.run_function = [&](const MaskingPipeline& dev, const BatchInput& in) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      // Plaintext i is batch index i (the input list below).
      if (in.plaintext != 0 && std::this_thread::get_id() == caller) {
        ++caller_runs_after_first;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return dev.run_des(in.key, in.plaintext, kStop);
  };
  std::vector<BatchInput> inputs;
  for (std::uint64_t i = 0; i < 16; ++i) inputs.push_back({kKey, i});
  BatchRunner runner(device(), bc);
  (void)runner.capture(inputs);
  EXPECT_GE(caller_runs_after_first, 1u);
  EXPECT_LE(ids.size(), 3u);
}

// Capture threads count the calling thread: `threads` workers plus the
// caller, the caller alone at 1, and one per core at 0.
TEST(BatchRunner, EffectiveThreadsClampsToBatchSize) {
  BatchRunner runner(device(), config(8));
  EXPECT_EQ(runner.effective_threads(3), 3u);
  EXPECT_EQ(runner.effective_threads(100), 9u);
  EXPECT_GE(runner.effective_threads(1), 1u);
  EXPECT_EQ(BatchRunner(device(), config(1)).effective_threads(100), 1u);
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  EXPECT_EQ(BatchRunner(device(), config(0)).effective_threads(100),
            std::min<std::size_t>(cores, 100));
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
