#include "analysis/trace_io.hpp"

#include <cstring>
#include <stdexcept>

namespace emask::analysis {
namespace {

constexpr char kMagic[4] = {'E', 'M', 'T', 'S'};
constexpr std::uint32_t kVersion = 1;
// magic + version + n_traces + trace_len
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8 + 8;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in, const std::string& path) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("trace set: truncated header in " + path);
  }
  return value;
}

}  // namespace

TraceSet load_trace_set(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace set: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("trace set: bad magic in " + path +
                             " (not an EMTS file)");
  }
  const auto version = read_pod<std::uint32_t>(in, path);
  if (version != kVersion) {
    throw std::runtime_error("trace set: unsupported version " +
                             std::to_string(version) + " in " + path +
                             " (this build reads version " +
                             std::to_string(kVersion) + ")");
  }
  const auto n = read_pod<std::uint64_t>(in, path);
  const auto len = read_pod<std::uint64_t>(in, path);

  // Validate the header against the file's actual size before trusting it
  // to size allocations: a corrupted count would otherwise either OOM the
  // loader or hand the attack code a short set that looks complete.
  const std::uint64_t row_bytes = 8 + len * sizeof(float);
  if (len != 0 && row_bytes / sizeof(float) < len) {
    throw std::runtime_error("trace set: corrupt trace length in " + path);
  }
  const std::uint64_t expected = kHeaderBytes + n * row_bytes;
  if (n != 0 && (expected - kHeaderBytes) / n != row_bytes) {
    throw std::runtime_error("trace set: corrupt trace count in " + path);
  }
  if (file_bytes < expected) {
    throw std::runtime_error(
        "trace set: truncated file " + path + " (header promises " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(file_bytes) + ")");
  }
  if (file_bytes > expected) {
    throw std::runtime_error(
        "trace set: trailing bytes in " + path + " (header promises " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(file_bytes) + ")");
  }

  TraceSet set;
  set.inputs.reserve(n);
  set.traces.reserve(n);
  std::vector<float> row(len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto input = read_pod<std::uint64_t>(in, path);
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(len * sizeof(float)));
    if (!in) throw std::runtime_error("trace set: truncated file " + path);
    std::vector<double> samples(row.begin(), row.end());
    set.add(input, Trace(std::move(samples)));
  }
  return set;
}

TraceSetWriter::TraceSetWriter(const std::string& path, std::uint64_t n_traces)
    : path_(path), out_(path, std::ios::binary), expected_(n_traces) {
  if (!out_) throw std::runtime_error("trace set: cannot open " + path);
}

TraceSetWriter::~TraceSetWriter() noexcept {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an incomplete file is detected on load
    // by the size check.  Call close() explicitly to observe the error.
  }
}

void TraceSetWriter::write_header(std::uint64_t trace_len) {
  trace_len_ = trace_len;
  out_.write(kMagic, 4);
  write_pod(out_, kVersion);
  write_pod(out_, expected_);
  write_pod(out_, trace_len_);
  row_.resize(trace_len_);
  header_written_ = true;
}

void TraceSetWriter::append(std::uint64_t input, const Trace& trace) {
  if (closed_) {
    throw std::runtime_error("trace set: append after close on " + path_);
  }
  if (!header_written_) write_header(trace.size());
  if (trace.size() != trace_len_) {
    throw std::runtime_error("trace set: traces must share a length (got " +
                             std::to_string(trace.size()) + ", expected " +
                             std::to_string(trace_len_) + ")");
  }
  if (written_ == expected_) {
    throw std::runtime_error("trace set: more traces than promised for " +
                             path_);
  }
  write_pod(out_, input);
  for (std::size_t j = 0; j < trace_len_; ++j) {
    row_[j] = static_cast<float>(trace[j]);
  }
  out_.write(reinterpret_cast<const char*>(row_.data()),
             static_cast<std::streamsize>(trace_len_ * sizeof(float)));
  if (!out_) throw std::runtime_error("trace set: write failed for " + path_);
  ++written_;
}

void TraceSetWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (!header_written_) write_header(0);
  out_.flush();
  if (!out_) throw std::runtime_error("trace set: write failed for " + path_);
  out_.close();
  if (written_ != expected_) {
    throw std::runtime_error(
        "trace set: promised " + std::to_string(expected_) +
        " traces for " + path_ + " but " + std::to_string(written_) +
        " were appended");
  }
}

}  // namespace emask::analysis
