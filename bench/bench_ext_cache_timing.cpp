// Extension N: cache-timing ablation — power masking does not close
// microarchitectural timing channels.
//
// The paper's device class runs cacheless from on-chip SRAM, and the whole
// masking construction silently relies on it: with an ordinary data cache,
// the S-box lookups' secret-derived addresses produce key-dependent
// hit/miss patterns, so the *cycle count* itself leaks — through perfect
// dual-rail power masking — exactly the cache-attack line of work
// contemporary with the paper.  This bench puts a small blocking D-cache
// in front of the fully masked device's SRAM and measures the reopened
// timing channel.
//
// A blocking miss only freezes the in-order machine for the refill; it
// changes no architectural state and no other timing.  So the cached cycle
// count is the cacheless one plus misses x penalty, and the misses follow
// from the run's data addresses alone: each cold run's loads and stores
// (CycleActivity::mem, through RunRequest::observer) are replayed, in
// order, into the cache's tag array.
#include <array>
#include <set>

#include "bench_common.hpp"
#include "compiler/masking.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {

constexpr std::uint32_t kCacheBytes = 1024;
constexpr std::uint32_t kLineBytes = 32;
constexpr std::uint32_t kLines = kCacheBytes / kLineBytes;
constexpr std::uint64_t kMissPenalty = 8;  // refill cycles per miss

/// Tags of a direct-mapped data cache.  Tags only: the SRAM still holds
/// the data, the cache decides timing.
class DirectMappedTags {
 public:
  /// Looks up the line holding `address`, filling it on a miss; true on a
  /// miss.
  bool miss(std::uint32_t address) {
    const std::uint32_t line = address / kLineBytes;
    std::uint64_t& tag = tags_[line % kLines];
    const std::uint64_t wanted = line / kLines + 1;  // 0 = invalid
    if (tag == wanted) return false;
    tag = wanted;
    return true;
  }

 private:
  std::array<std::uint64_t, kLines> tags_{};
};

struct Timing {
  std::uint64_t cacheless_cycles = 0;
  std::uint64_t cached_cycles = 0;
  std::uint64_t misses = 0;
};

/// One cold encryption, timed without and with the D-cache.
Timing time_encryption(const core::MaskingPipeline& device, std::uint64_t key,
                       std::uint64_t pt) {
  DirectMappedTags tags;
  Timing t;
  const core::EncryptionRun run = device.run(
      {.key = key,
       .plaintext = pt,
       .observer = [&](const energy::CycleActivity& activity, double) {
         if ((activity.mem.read || activity.mem.write) &&
             tags.miss(activity.mem.address)) {
           ++t.misses;
         }
       }});
  t.cacheless_cycles = run.sim.cycles;
  t.cached_cycles = run.sim.cycles + t.misses * kMissPenalty;
  return t;
}

}  // namespace

int main() {
  bench::print_banner("Extension N",
                      "Cache-timing ablation: a D-cache reopens a timing "
                      "channel through the masked device.");
  const auto masked = core::MaskingPipeline::des(compiler::Policy::kSelective);
  util::Rng rng(0xCAC4E);

  util::CsvWriter csv(bench::out_dir() + "/ext_cache_timing.csv");
  csv.write_header({"key_index", "cacheless_cycles", "cached_cycles"});

  std::printf("%8s %18s %18s %10s\n", "key #", "cacheless cycles",
              "cached cycles", "misses");
  std::set<std::uint64_t> cacheless_counts, cached_counts;
  const std::uint64_t pt = bench::kPlain;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = rng.next_u64();
    const Timing t = time_encryption(masked, key, pt);
    cacheless_counts.insert(t.cacheless_cycles);
    cached_counts.insert(t.cached_cycles);
    std::printf("%8d %18llu %18llu %10llu\n", i,
                static_cast<unsigned long long>(t.cacheless_cycles),
                static_cast<unsigned long long>(t.cached_cycles),
                static_cast<unsigned long long>(t.misses));
    csv.write_row({static_cast<double>(i),
                   static_cast<double>(t.cacheless_cycles),
                   static_cast<double>(t.cached_cycles)});
  }

  std::printf("\ndistinct cycle counts over 8 keys: cacheless %zu, "
              "cached %zu\n",
              cacheless_counts.size(), cached_counts.size());
  std::printf("the cacheless (paper-accurate) device is perfectly "
              "constant-time;\nthe cached device's timing varies with the "
              "key through the masked\nS-box lookups — a channel power "
              "masking cannot close.\n");
  return (cacheless_counts.size() == 1 && cached_counts.size() > 1) ? 0 : 1;
}
