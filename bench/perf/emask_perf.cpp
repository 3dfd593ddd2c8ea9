// emask-perf: wall-clock benchmark of the emask libraries (see README.md).
//
//   emask-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR] [--untraced-enc-per-s X]
//
// Options take `--name value` or `--name=value`.  The run prints a header,
// every metric by name with its unit, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1.  A traced run also writes
// trace.json and layers.json into --out.
//
// Exit status: 0 every check passed, 3 a check failed (the result is still
// printed), 1 usage error, 2 refused or crashed (no result).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "perf.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace {

using emask::perf::Options;
using emask::perf::WorkloadResult;
using emask::util::JsonWriter;

#ifdef NDEBUG
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

// The per-layer metrics of the traced run's result line: those every
// workload exercises, plus counts.  Must match BENCHMARK.json.
const char* const kResultLayers[] = {
    "des.generate_ms",       "assembler.assemble_ms",
    "compiler.mask_ms",      "compiler.secured_count",
    "core.run_setup_us",     "core.pipeline_ctor_us",
    "core.run_des_ms",       "core.fork_share",
    "sim.step_ns",           "energy.cycle_ns",
    "analysis.trace_push_ns", "analysis.solve_calls",
    "bitslice.fill_calls",   "sim.cycles_per_enc",
    "sim.cpi",               "sim.stall_cycles_per_enc",
    "sim.flushes_per_enc",   "energy.uj_per_enc",
};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us") || name.find("_us.") != std::string::npos) return "us";
  if (ends("_ns")) return "ns";
  if (ends("_s")) return "s";
  if (ends("_share") || ends(".overhead")) return "ratio";
  if (ends(".cpi")) return "cycles/instr";
  if (ends("cycles_per_enc")) return "cycles";
  if (ends("uj_per_enc")) return "uJ";
  return "count";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string num(double v) { return JsonWriter::format_double(v); }

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "emask-perf: %s\nusage: emask-perf --workload "
               "encrypt_cold|attack_round1|session_cbc|campaign_zoo [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] "
               "[--untraced-enc-per-s X]\n",
               error.c_str());
  std::exit(1);
}

struct Args {
  Options options;
  double untraced_enc_per_s = 0.0;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      usage("option --" + arg + " needs a value");
    }
  }
  const auto take = [&](const char* name, const std::string& fallback) {
    const auto it = values.find(name);
    if (it == values.end()) return fallback;
    std::string v = it->second;
    values.erase(it);
    return v;
  };
  const auto number = [](const std::string& text, const char* name) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size() || !(v >= 0.0)) {
      usage(std::string("--") + name + ": not a non-negative number: '" +
            text + "'");
    }
    return v;
  };
  Args a;
  a.options.workload = take("workload", "");
  if (std::find(std::begin(emask::perf::kWorkloads),
                std::end(emask::perf::kWorkloads),
                a.options.workload) == std::end(emask::perf::kWorkloads)) {
    usage("unknown or missing --workload '" + a.options.workload + "'");
  }
  const std::string seed = take("seed", "1");
  if (seed.empty() ||
      seed.find_first_not_of("0123456789") != std::string::npos ||
      seed.size() > 19) {
    usage("--seed: not a whole number: '" + seed + "'");
  }
  a.options.seed = std::stoull(seed);
  a.options.seconds = number(take("seconds", "25"), "seconds");
  const std::string trace = take("trace", "0");
  if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
  a.options.trace = trace == "1";
  a.options.out_dir =
      take("out", ".bench_build/emask-perf-out/" + a.options.workload);
  a.untraced_enc_per_s =
      number(take("untraced-enc-per-s", "0"), "untraced-enc-per-s");
  if (!values.empty()) usage("unknown option --" + values.begin()->first);
  return a;
}

/// The checked-in default-seed digest of `workload`, or "" when none.
std::string expected_digest(const std::string& workload, std::uint64_t seed) {
  const std::string path =
      std::string(EMASK_PERF_DIR) + "/expected_digests.json";
  const emask::util::JsonValue doc =
      emask::util::parse_json(emask::util::read_text_file(path));
  if (doc.at("seed").as_u64() != seed) return "";
  const emask::util::JsonValue* d = doc.at("digests").find(workload);
  return d == nullptr ? "" : d->as_string();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_layers(const std::string& path, const Options& o,
                  const std::map<std::string, double>& layers) {
  std::ofstream out = emask::util::open_for_write(path);
  JsonWriter j(out);
  j.begin_object();
  j.key("format");
  j.value("emask-perf-layers-v1");
  j.key("workload");
  j.value(o.workload);
  j.key("seed");
  j.value(o.seed);
  j.key("layers");
  j.begin_object();
  for (const auto& [name, value] : layers) {
    j.key(name);
    j.begin_object();
    j.key("value");
    j.value(value);
    j.key("unit");
    j.value(unit_of(name));
    j.end_object();
  }
  j.end_object();
  j.end_object();
  j.finish();
  emask::util::close_or_throw(out, path);
}

int run(const Args& args) {
  const Options& o = args.options;
  std::printf("emask-perf workload=%s seed=%llu seconds=%s trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              num(o.seconds).c_str(), o.trace ? 1 : 0);
  std::printf("revision=%s compiler=%s build=%s nproc=%ld\n",
              emask::campaign::git_describe().c_str(), EMASK_PERF_COMPILER,
              EMASK_PERF_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
  std::fflush(stdout);

  emask::perf::Tracer tracer;
  std::map<std::string, double> layers;
  WorkloadResult r = emask::perf::run_workload(
      o, o.trace ? &tracer : nullptr, o.trace ? &layers : nullptr);

  const std::string expected = expected_digest(o.workload, o.seed);
  std::printf("digest %s over %zu units (expected %s)\n", r.digest.c_str(),
              r.digest_units, expected.empty() ? "none" : expected.c_str());
  if (!expected.empty()) {
    r.check(r.digest == expected, "digest " + r.digest + " != expected " +
                                      expected);
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  std::vector<double> units;
  double class_medians = 0.0;
  for (const auto& [name, ms] : r.unit_ms) {
    units.insert(units.end(), ms.begin(), ms.end());
    class_medians += median(ms);
    std::printf("unit class %-40s n=%-4zu median %s ms\n", name.c_str(),
                ms.size(), num(median(ms)).c_str());
  }
  const double unit_ms_p50 =
      r.unit_ms.empty() ? 0.0
                        : class_medians / static_cast<double>(r.unit_ms.size());
  const double enc_per_s = median(r.round_rate);
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  metrics.push_back({"setup_s", {median(r.setup_s), "s"}});
  metrics.push_back({"unit_ms_p50", {unit_ms_p50, "ms"}});
  metrics.push_back({"enc_per_s", {enc_per_s, "1/s"}});
  metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});

  std::printf(
      "timed %s s, %llu DES passes (%s per s overall), %zu rounds, %zu units "
      "in %zu classes\n",
      num(r.wall_s).c_str(), static_cast<unsigned long long>(r.passes),
      num(static_cast<double>(r.passes) / r.wall_s).c_str(),
      r.round_rate.size(), units.size(), r.unit_ms.size());
  std::printf("unit_ms pooled: p90 %s  p99 %s  (n=%zu; not gated)\n",
              num(quantile(units, 0.90)).c_str(),
              num(quantile(units, 0.99)).c_str(), units.size());
  std::printf("ops: attempted %llu failed %llu fail_share %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              num(r.attempted ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0)
                  .c_str());
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-24s %s %s\n", name.c_str(),
                num(value.first).c_str(), value.second.c_str());
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> reported;
  if (o.trace) {
    if (args.untraced_enc_per_s > 0.0 && enc_per_s > 0.0) {
      layers["trace.overhead"] = args.untraced_enc_per_s / enc_per_s;
    }
    for (const auto& [name, value] : layers) {
      std::printf("layer %-32s %s %s\n", name.c_str(), num(value).c_str(),
                  unit_of(name).c_str());
    }
    tracer.write_json(o.out_dir + "/trace.json", o.workload);
    write_layers(o.out_dir + "/layers.json", o, layers);
    std::printf("wrote %s/trace.json and %s/layers.json\n", o.out_dir.c_str(),
                o.out_dir.c_str());
    for (const char* name : kResultLayers) {
      reported.push_back({name, {layers.at(name), unit_of(name)}});
    }
  } else {
    reported = metrics;
  }

  std::string line = "{\"correct\": " +
                     std::string(r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    line += (i ? ", \"" : "\"") + reported[i].first + "\": {\"value\": " +
            num(reported[i].second.first) + ", \"unit\": \"" +
            reported[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!kOptimised) {
    std::fprintf(stderr,
                 "emask-perf: refusing to run: built without NDEBUG (not an "
                 "optimised build)\n");
    return 2;
  }
  if (std::getenv("EMASK_HAMMING_BACKEND") != nullptr) {
    std::fprintf(stderr,
                 "emask-perf: refusing to run: EMASK_HAMMING_BACKEND is set, "
                 "which selects a non-default energy kernel\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "emask-perf: %s\n", e.what());
    return 2;
  }
}
