// EMTS trace-set persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/trace_io.hpp"
#include "util/rng.hpp"

namespace emask::analysis {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `set` through TraceSetWriter, the writer captures stream through.
void write_set(const std::string& path, const TraceSet& set) {
  TraceSetWriter writer(path, set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    writer.append(set.inputs[i], set.traces[i]);
  }
  EXPECT_EQ(writer.written(), set.size());
  writer.close();
}

TEST(TraceIo, RoundTrip) {
  const std::string path = temp_path("roundtrip.emts");
  TraceSet original;
  util::Rng rng(1);
  for (int i = 0; i < 7; ++i) {
    std::vector<double> v(33);
    for (auto& s : v) s = 100.0 + rng.next_gaussian();
    original.add(rng.next_u64(), Trace(std::move(v)));
  }
  write_set(path, original);
  const TraceSet loaded = load_trace_set(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.inputs, original.inputs);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(loaded.traces[i].size(), original.traces[i].size());
    for (std::size_t j = 0; j < loaded.traces[i].size(); ++j) {
      // float32 quantization only.
      EXPECT_NEAR(loaded.traces[i][j], original.traces[i][j],
                  1e-4 * std::abs(original.traces[i][j]));
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, EmptySetRoundTrips) {
  const std::string path = temp_path("empty.emts");
  write_set(path, TraceSet{});
  EXPECT_EQ(load_trace_set(path).size(), 0u);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMixedLengths) {
  TraceSet bad;
  bad.add(1, Trace({1.0, 2.0}));
  bad.add(2, Trace({1.0}));
  EXPECT_THROW(write_set(temp_path("bad.emts"), bad),
               std::runtime_error);
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = temp_path("magic.emts");
  std::ofstream(path) << "NOPE-this-is-not-a-trace-set";
  EXPECT_THROW(load_trace_set(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncation) {
  const std::string path = temp_path("trunc.emts");
  TraceSet set;
  set.add(42, Trace(std::vector<double>(64, 1.0)));
  write_set(path, set);
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(load_trace_set(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_set("/nonexistent/x.emts"), std::runtime_error);
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  const std::string path = temp_path("version.emts");
  TraceSet set;
  set.add(1, Trace({1.0, 2.0}));
  write_set(path, set);
  // Bump the version field (bytes 4..7) to a future value.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const std::uint32_t future = 99;
  f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  f.close();
  try {
    (void)load_trace_set(path);
    FAIL() << "expected version rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedHeader) {
  const std::string path = temp_path("short_header.emts");
  std::ofstream(path, std::ios::binary) << "EMTS";  // magic only
  EXPECT_THROW(load_trace_set(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsCorruptTraceCountWithoutAllocating) {
  const std::string path = temp_path("huge_count.emts");
  TraceSet set;
  set.add(7, Trace({1.0, 2.0, 3.0}));
  write_set(path, set);
  // Corrupt n_traces (bytes 8..15) to an absurd value: the loader must
  // reject it against the file size instead of trusting it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);
  const std::uint64_t absurd = ~0ull / 2;
  f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  f.close();
  EXPECT_THROW(load_trace_set(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTrailingBytes) {
  const std::string path = temp_path("trailing.emts");
  TraceSet set;
  set.add(7, Trace({1.0, 2.0, 3.0}));
  write_set(path, set);
  std::ofstream(path, std::ios::binary | std::ios::app) << "extra";
  EXPECT_THROW(load_trace_set(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Incremental writer: promised counts and lengths ----

TEST(TraceSetWriter, RejectsMixedLengths) {
  const std::string path = temp_path("writer_mixed.emts");
  TraceSetWriter writer(path, 2);
  writer.append(1, Trace({1.0, 2.0}));
  EXPECT_THROW(writer.append(2, Trace({1.0})), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSetWriter, CloseValidatesPromisedCount) {
  const std::string path = temp_path("writer_short.emts");
  TraceSetWriter writer(path, 3);
  writer.append(1, Trace({1.0}));
  EXPECT_THROW(writer.close(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSetWriter, RejectsMoreTracesThanPromised) {
  const std::string path = temp_path("writer_over.emts");
  TraceSetWriter writer(path, 1);
  writer.append(1, Trace({1.0}));
  EXPECT_THROW(writer.append(2, Trace({1.0})), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSetWriter, EmptySetWritesLoadableFile) {
  const std::string path = temp_path("writer_empty.emts");
  {
    TraceSetWriter writer(path, 0);
    writer.close();
  }
  EXPECT_EQ(load_trace_set(path).size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace emask::analysis
