// Trace-set persistence: capture once, attack offline.
//
// Binary format "EMTS" (eMask Trace Set), little-endian:
//   magic "EMTS"  u32 version  u64 n_traces  u64 trace_len
//   then per trace: u64 input (e.g. the plaintext)  +  trace_len float32
//   samples (pJ).
//
// float32 halves the footprint; the quantization (~1e-5 relative) is far
// below any attack's decision margin.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/trace.hpp"

namespace emask::analysis {

struct TraceSet {
  std::vector<std::uint64_t> inputs;  // parallel to traces
  std::vector<Trace> traces;

  [[nodiscard]] std::size_t size() const { return traces.size(); }
  void add(std::uint64_t input, Trace trace) {
    inputs.push_back(input);
    traces.push_back(std::move(trace));
  }
};

/// Reads a set; throws std::runtime_error on IO failure, bad magic,
/// unsupported version, a header that does not match the file's actual
/// size (truncation, trailing bytes, or a corrupted count), or short
/// reads.
[[nodiscard]] TraceSet load_trace_set(const std::string& path);

/// Incremental EMTS writer: streams a trace set of known cardinality to
/// disk one trace at a time, so arbitrarily large capture batches never
/// need to be resident in memory (core::BatchRunner streams through this).
///
/// The header's trace length is taken from the first appended trace; every
/// later trace must match it.  `close()` (or the destructor) finishes the
/// file; close() throws if the number of appended traces differs from the
/// `n_traces` promised at construction, guaranteeing a well-formed file or
/// an error — never a silently short one.  Appends must arrive in the
/// final (serial) trace order; the writer performs no reordering.
class TraceSetWriter {
 public:
  TraceSetWriter(const std::string& path, std::uint64_t n_traces);
  TraceSetWriter(const TraceSetWriter&) = delete;
  TraceSetWriter& operator=(const TraceSetWriter&) = delete;
  ~TraceSetWriter() noexcept;

  void append(std::uint64_t input, const Trace& trace);

  /// Flushes and validates; throws on IO failure or a trace-count
  /// mismatch.  Idempotent.
  void close();

  [[nodiscard]] std::uint64_t written() const { return written_; }

 private:
  void write_header(std::uint64_t trace_len);

  std::string path_;
  std::ofstream out_;
  std::uint64_t expected_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t trace_len_ = 0;
  bool header_written_ = false;
  bool closed_ = false;
  std::vector<float> row_;
};

}  // namespace emask::analysis
