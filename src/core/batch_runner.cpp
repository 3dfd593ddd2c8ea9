#include "core/batch_runner.hpp"

#include <algorithm>
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
    // Every core, the calling thread's included: one more simulating
    // thread than cores only adds scheduling and malloc-arena memory.
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  } else if (threads > 1) {
    ++threads;  // the spawned workers, plus the calling thread
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
  // Capture threads only read the snapshot; memory forks copy-on-write.
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
                           const BatchInput& input,
                           std::size_t index) -> EncryptionRun {
    EncryptionRun run =
        config_.run_function
            ? config_.run_function(pipeline_, input)
            : pipeline_.run(
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

  // One capture loop, run by the spawned workers and by the calling thread
  // alike.  A participant emits while the next
  // in-order slot is ready and nobody else is emitting, else claims the
  // next index inside the reorder window and simulates it, else waits.
  // Slot i lives at slots[i % window]; the window invariant
  // (claimed < emitted + window) guarantees a claimed slot is free.
  // Emission goes to whichever thread completes the next in-order run, so
  // completed traces never wait on a thread that is busy simulating.
  const std::size_t workers = threads - 1;
  const std::size_t window = std::max<std::size_t>(workers, 1) *
                             kWindowPerThread;
  struct Slot {
    bool ready = false;
    BatchInput input;
    EncryptionRun run;
  };
  std::vector<Slot> slots(window);
  std::mutex mu;
  std::condition_variable space_cv;  // window advanced, or abort
  std::size_t next_index = 0;        // guarded by mu
  std::size_t emitted = 0;           // guarded by mu
  bool emitting = false;             // guarded by mu: one emitter at a time
  bool abort = false;                // guarded by mu
  std::exception_ptr error;          // guarded by mu

  // Every thread runs the one const device: a run builds its own machine
  // and energy model, and the device's only mutable state is its
  // atomic trace-length hint.  `claimed` is an index this thread already
  // owns, or kNoClaim.
  constexpr std::size_t kNoClaim = SIZE_MAX;
  const auto participate = [&](std::size_t claimed) {
    std::unique_lock<std::mutex> lock(mu);
    try {
      while (!abort) {
        if (claimed != kNoClaim) {
          const std::size_t i = std::exchange(claimed, kNoClaim);
          lock.unlock();
          const BatchInput input = generator(i);
          EncryptionRun run = run_one(input, i);
          lock.lock();
          Slot& slot = slots[i % window];
          slot.input = input;
          slot.run = std::move(run);
          slot.ready = true;
        } else if (!emitting && emitted < count &&
                   slots[emitted % window].ready) {
          // The emitter role passes through mu, so sink calls are
          // serialized, in index order and in happens-before order, and
          // stats_ is summed in serial order on whichever thread emits.
          emitting = true;
          while (!abort && emitted < count && slots[emitted % window].ready) {
            Slot& slot = slots[emitted % window];
            const std::size_t e = emitted++;
            const BatchInput input = slot.input;
            EncryptionRun run = std::move(slot.run);
            slot.ready = false;
            slot.run = EncryptionRun{};
            space_cv.notify_all();
            lock.unlock();
            accumulate(stats_, run);
            if (forks(input)) ++stats_.snapshot_forks; else ++stats_.cold_starts;
            sink(e, input, run);
            lock.lock();
          }
          emitting = false;
        } else if (next_index < count && next_index < emitted + window) {
          claimed = next_index++;
        } else if (next_index < count) {
          space_cv.wait(lock);
        } else {
          // Nothing left to claim: whoever completes the next in-order
          // run emits it.
          return;
        }
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (!error) error = std::current_exception();
      abort = true;
      space_cv.notify_all();
    }
  };

  // The calling thread claims index 0 before any worker starts, and so
  // completes and emits it.  Sinks that size their state from the first
  // trace (an attack's accumulators, megabytes wide) then allocate it on
  // the calling thread, as a caller-side sink always did: were it sized
  // on whichever worker emits first, every worker's malloc arena would in
  // time keep such a block, and peak memory would grow with the thread
  // count.
  next_index = 1;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(participate, kNoClaim);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
    }
    space_cv.notify_all();
    for (std::thread& t : pool) t.join();
    throw;
  }
  participate(0);
  for (std::thread& t : pool) t.join();
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
