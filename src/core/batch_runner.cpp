#include "core/batch_runner.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/trace.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

/// Reorder-window slots per worker: bounds the traces resident during a
/// streaming capture.
constexpr std::size_t kWindowPerThread = 4;

void accumulate(BatchStats& stats, const EncryptionRun& run) {
  ++stats.encryptions;
  stats.total_cycles += run.sim.cycles;
  stats.total_instructions += run.sim.instructions;
  stats.total_energy_uj += run.total_uj();
  for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
    const auto component = static_cast<energy::Component>(c);
    stats.breakdown.add(component, run.breakdown.get(component));
  }
}

}  // namespace

BatchRunner::BatchRunner(const MaskingPipeline& pipeline, BatchConfig config)
    : pipeline_(pipeline), config_(config) {}

std::size_t BatchRunner::effective_threads(std::size_t count) const {
  std::size_t threads = config_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > count) threads = count;
  return threads == 0 ? 1 : threads;
}

void BatchRunner::capture_each(
    std::size_t count, const InputGenerator& generator,
    const std::function<void(std::size_t, const BatchInput&,
                             EncryptionRun&)>& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  stats_ = BatchStats{};
  const std::size_t threads = effective_threads(count);
  stats_.threads_used = threads;
  const auto finish = [&] {
    stats_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  // Shared-prefix snapshot, captured once for the batch's first key.  Runs
  // with that key fork from it; any other key, and any budget ending at or
  // before the fork point, cold-starts (DesSnapshot::forks).
  // Workers only read the snapshot; memory forks copy-on-write.
  std::optional<DesSnapshot> snap;
  if (count > 0 && !config_.run_function && pipeline_.fork_eligible()) {
    snap.emplace(pipeline_.snapshot_des(generator(0).key));
    stats_.snapshot_prefix_cycles = snap->fork_cycle;
  }
  // Whether a run takes the fork path — a pure function of the input,
  // evaluated again on the serial emission side for stats.
  const auto forks = [&](const BatchInput& input) {
    return snap.has_value() &&
           snap->forks(input.key, config_.stop_after_cycles);
  };

  // One encryption, with per-index measurement noise.  The noise RNG is
  // seeded from the batch index (not from a stream shared across traces),
  // so noisy captures honour the determinism contract too.
  const bool chained = !config_.run_function && pipeline_.has_iv();
  const auto run_one = [this, &snap, &forks, chained](
                           const MaskingPipeline& device,
                           const BatchInput& input,
                           std::size_t index) -> EncryptionRun {
    EncryptionRun run =
        config_.run_function
            ? config_.run_function(device, input)
            : device.run(
                  {.key = input.key,
                   .plaintext = input.plaintext,
                   .iv = chained ? std::optional(input.iv) : std::nullopt,
                   .stop_after_cycles = config_.stop_after_cycles,
                   .from = forks(input) ? &*snap : nullptr});
    if (config_.noise_sigma_pj > 0.0) {
      analysis::NoiseModel noise(config_.noise_sigma_pj,
                                 util::Rng::nth(config_.noise_seed, index));
      run.trace = noise.apply(run.trace);
    }
    return run;
  };

  if (count == 0) {
    finish();
    return;
  }

  if (threads <= 1) {
    // Serial reference path: the parallel path below is contractually
    // bit-identical to this loop.
    for (std::size_t i = 0; i < count; ++i) {
      const BatchInput input = generator(i);
      EncryptionRun run = run_one(pipeline_, input, i);
      accumulate(stats_, run);
      if (forks(input)) ++stats_.snapshot_forks; else ++stats_.cold_starts;
      sink(i, input, run);
    }
    finish();
    return;
  }

  // Parallel path: workers claim indices from a shared cursor, bounded by a
  // sliding reorder window; the calling thread re-serializes completions in
  // index order.  Slot i lives at slots[i % window]; the window invariant
  // (claimed < emitted + window) guarantees a claimed slot is free.
  const std::size_t window = threads * kWindowPerThread;
  struct Slot {
    bool ready = false;
    BatchInput input;
    EncryptionRun run;
  };
  std::vector<Slot> slots(window);
  std::mutex mu;
  std::condition_variable ready_cv;  // consumer waits: slot became ready
  std::condition_variable space_cv;  // workers wait: window advanced
  std::size_t next_index = 0;        // guarded by mu
  std::size_t emitted = 0;           // guarded by mu
  bool abort = false;                // guarded by mu
  std::exception_ptr error;          // guarded by mu

  const auto worker = [&] {
    // Per-worker device instance: a private copy of the compiled pipeline
    // (program image, simulator configuration, energy parameters), so
    // workers share no mutable state at all.
    const MaskingPipeline device(pipeline_);
    while (true) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        space_cv.wait(lock, [&] {
          return abort || next_index >= count ||
                 next_index < emitted + window;
        });
        if (abort || next_index >= count) return;
        i = next_index++;
      }
      try {
        const BatchInput input = generator(i);
        EncryptionRun run = run_one(device, input, i);
        std::lock_guard<std::mutex> lock(mu);
        Slot& slot = slots[i % window];
        slot.input = input;
        slot.run = std::move(run);
        slot.ready = true;
        ready_cv.notify_all();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        abort = true;
        ready_cv.notify_all();
        space_cv.notify_all();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);

  const auto shut_down = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
      ready_cv.notify_all();
      space_cv.notify_all();
    }
    for (std::thread& t : pool) t.join();
  };

  try {
    for (std::size_t e = 0; e < count; ++e) {
      BatchInput input;
      EncryptionRun run;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready_cv.wait(lock, [&] { return abort || slots[e % window].ready; });
        if (abort) break;
        Slot& slot = slots[e % window];
        input = slot.input;
        run = std::move(slot.run);
        slot.ready = false;
        slot.run = EncryptionRun{};
        emitted = e + 1;
        space_cv.notify_all();
      }
      accumulate(stats_, run);
      if (forks(input)) ++stats_.snapshot_forks; else ++stats_.cold_starts;
      sink(e, input, run);
    }
  } catch (...) {
    shut_down();
    throw;
  }
  shut_down();
  if (error) std::rethrow_exception(error);
  finish();
}

analysis::TraceSet BatchRunner::capture(std::size_t count,
                                        const InputGenerator& generator) {
  analysis::TraceSet set;
  set.inputs.reserve(count);
  set.traces.reserve(count);
  capture_each(count, generator,
               [&](std::size_t, const BatchInput& input, EncryptionRun& run) {
                 set.add(input.plaintext, std::move(run.trace));
               });
  return set;
}

analysis::TraceSet BatchRunner::capture(const std::vector<BatchInput>& inputs) {
  return capture(inputs.size(),
                 [&inputs](std::size_t i) { return inputs[i]; });
}

InputGenerator random_plaintexts(std::uint64_t key, std::uint64_t seed) {
  return [key, seed](std::size_t i) {
    return BatchInput{key, util::Rng::nth(seed, static_cast<std::uint64_t>(i))};
  };
}

}  // namespace emask::core
