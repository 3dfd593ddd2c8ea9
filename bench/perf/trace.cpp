#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "perf.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace emask::perf {
namespace {

// Open spans of the calling thread, innermost last (kCurrent parents).
thread_local std::vector<int> open_spans;

}  // namespace

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, state_);
  return buf;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(std::string_view name, std::uint32_t unit, int parent) {
  if (parent == kCurrent) {
    parent = open_spans.empty() ? kNone : open_spans.back();
  }
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, -1, parent, unit});
  const int id = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const std::int64_t stop = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

void Tracer::count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Totals, std::less<>> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent; a parent's self time is its duration minus
  // the union of its children's intervals (worker-side children overlap).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, Totals, std::less<>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;  // never closed: an exception unwound past it
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t b = std::max(begin, reach);
      const std::int64_t e = std::min(end, s.end_ns);
      if (e > b) covered += e - b;
      reach = std::max(reach, std::min(end, s.end_ns));
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    Totals& t = out[std::string(s.name)];
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(covered) * 1e-9;
  }
  return out;
}

void Tracer::write_json(const std::string& path,
                        const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string_view, std::size_t> name_index;
  std::vector<std::string_view> names;
  for (const Span& s : spans_) {
    if (name_index.emplace(s.name, names.size()).second) {
      names.push_back(s.name);
    }
  }
  std::ofstream out = util::open_for_write(path);
  out << "{\n  \"format\": \"emask-perf-trace-v1\",\n  \"workload\": \""
      << util::JsonWriter::escape(workload) << "\",\n  \"names\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i ? ", " : "") << '"'
        << util::JsonWriter::escape(std::string(names[i])) << '"';
  }
  out << "],\n  \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
         "\"parent\", \"unit\"],\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n    " : "\n    ") << '[' << name_index[s.name] << ", "
        << s.start_ns << ", " << s.end_ns << ", " << s.parent << ", " << s.unit
        << ']';
  }
  out << "\n  ],\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n    " : ",\n    ") << '"'
        << util::JsonWriter::escape(name)
        << "\": " << util::JsonWriter::format_double(value);
    first = false;
  }
  out << "\n  }\n}\n";
  util::close_or_throw(out, path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::uint32_t unit, int parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name, unit, parent);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

}  // namespace emask::perf
