// emask-perf: shared pieces of the wall-clock benchmark.
//
// The benchmark measures from outside the program: it drives the public API
// of each module and records spans around those calls.  Nothing here is
// linked into the libraries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace emask::perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64 over bytes, lowercase hex.  Every workload folds its
/// deterministic outputs into one of these; equal seeds give equal digests.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t word) { add_bytes(&word, sizeof word); }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(std::string_view text) { add_bytes(text.data(), text.size()); }
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// In-memory span recorder.  A span has a name, start and end (ns since the
/// tracer was made), the span that caused it, and the id of the unit (one
/// encryption, scenario, session or campaign) it belongs to.  Spans nest per
/// thread; a span opened on a worker thread names its parent explicitly.
/// Thread-safe; written out once, when the workload ends.
class Tracer {
 public:
  static constexpr int kCurrent = -2;  // parent = innermost open span here
  static constexpr int kNone = -1;

  struct Span {
    std::string_view name;  // always a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = kNone;
    std::uint32_t unit = 0;
  };

  /// Per-name totals: call count, summed duration, summed self time (the
  /// duration minus the part of it covered by child spans).
  struct Totals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(std::string_view name, std::uint32_t unit, int parent);
  void end(int id);

  /// Adds `value` to the named counter (created at zero).
  void count(const std::string& name, double value);
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] std::map<std::string, Totals, std::less<>> totals() const;
  [[nodiscard]] std::size_t span_count() const;

  /// Writes `trace.json`: every span (one per line) plus the counters.
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                  // guarded by mu_
  std::map<std::string, double> counters_;   // guarded by mu_
};

/// RAII span; does nothing when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint32_t unit,
             int parent = Tracer::kCurrent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = Tracer::kNone;
};

/// What one workload run measured.
struct WorkloadResult {
  std::vector<double> setup_s;  // one entry per set-up repetition
  double wall_s = 0.0;          // the timed part
  std::uint64_t passes = 0;     // DES passes completed in the timed part
  std::vector<double> round_rate;  // DES passes per second, per round
  /// Unit latencies in ms, grouped by unit class: units of one class repeat
  /// the same work on fresh inputs (one policy, one attack, one cipher, one
  /// campaign scenario).
  std::map<std::string, std::vector<double>> unit_ms;
  std::uint64_t attempted = 0;  // checked operations
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log
  std::string digest;                 // of the units the digest covers
  std::size_t digest_units = 0;

  /// Counts one checked operation, and a failure when `ok` is false.
  void check(bool ok, const std::string& what);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string out_dir;
};

/// Workload names, in the order `run.sh` runs them.
inline constexpr std::string_view kWorkloads[] = {
    "encrypt_cold", "attack_round1", "session_cbc", "campaign_zoo"};

/// Runs one workload.  `tracer` is null for the untraced run; when set, the
/// run also replays a fixed sample through the per-cycle layers and fills
/// `layers` with every per-layer metric.
WorkloadResult run_workload(const Options& options, Tracer* tracer,
                            std::map<std::string, double>* layers);

}  // namespace emask::perf
