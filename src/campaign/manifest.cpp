#include "campaign/manifest.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"

namespace emask::campaign {
namespace {

using util::ArgParser;
using util::IniFile;
using util::JsonWriter;

std::string hex_u64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::vector<PolicyRollup> rollup_by_policy(
    const CampaignSpec& spec, const std::vector<ScenarioOutcome>& outcomes) {
  bool any_energy = false;
  for (const ScenarioOutcome& o : outcomes) {
    if (o.scenario.analysis == Analysis::kEnergy) any_energy = true;
  }
  std::vector<PolicyRollup> rollups;
  for (const hiding::Countermeasure& policy : spec.policies) {
    PolicyRollup r;
    r.policy = policy;
    double sum = 0.0;
    for (const ScenarioOutcome& o : outcomes) {
      if (o.scenario.policy != policy) continue;
      if (any_energy && o.scenario.analysis != Analysis::kEnergy) continue;
      sum += o.result.mean_uj();
      ++r.scenarios;
    }
    if (r.scenarios > 0) sum /= static_cast<double>(r.scenarios);
    r.mean_uj = sum;
    rollups.push_back(r);
  }
  return rollups;
}

const double* find_reference(const CampaignSpec& spec,
                             const hiding::Countermeasure& policy) {
  for (const auto& [name, uj] : spec.reference_uj) {
    if (name == policy.name()) return &uj;
  }
  return nullptr;
}

std::string_view analysis_artifact(Analysis a) {
  switch (a) {
    case Analysis::kEnergy: return "breakdown.csv";
    case Analysis::kDpa:
    case Analysis::kCpa:
    case Analysis::kSecondOrder: return "guesses.csv";
    case Analysis::kTvla: return "t_per_cycle.csv";
    case Analysis::kMlpa:
    case Analysis::kCollision: return "disclosure.csv";
  }
  return "?";
}

bool analysis_has_disclosure(Analysis a) {
  switch (a) {
    case Analysis::kDpa:
    case Analysis::kCpa:
    case Analysis::kMlpa:
    case Analysis::kCollision: return true;
    default: return false;
  }
}

std::string scenario_disclosure_path(const std::string& id) {
  return "scenarios/" + id + "/disclosure.csv";
}

void claim_output_dir(const std::string& out_dir, const CampaignSpec& spec) {
  const std::string spec_copy =
      (std::filesystem::path(out_dir) / "spec.ini").string();
  if (std::filesystem::exists(spec_copy)) {
    const std::string existing = fnv1a_hex(util::read_text_file(spec_copy));
    if (existing != spec.hash) {
      throw SpecError(out_dir +
                      " already holds a different campaign (spec hash " +
                      existing + " != " + spec.hash +
                      "); use a fresh --out directory");
    }
    return;
  }
  std::ofstream copy(spec_copy);
  copy << spec.text;
  copy.flush();
  if (!copy) throw std::runtime_error("cannot write " + spec_copy);
}

std::string scenario_artifact_path(const std::string& id, Analysis a) {
  return "scenarios/" + id + "/" + std::string(analysis_artifact(a));
}

std::string scenario_blocks_path(const std::string& id) {
  return "scenarios/" + id + "/blocks.csv";
}

std::string scenario_session_path(const std::string& id) {
  return "scenarios/" + id + "/session.csv";
}

void save_checkpoint(const std::string& path, const Scenario& scenario,
                     const ScenarioResult& result,
                     const std::string& spec_hash) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("cannot write checkpoint " + tmp);
    const auto d = [](double v) { return JsonWriter::format_double(v); };
    out << "[checkpoint]\n";
    out << "id = " << scenario.id << '\n';
    out << "spec_hash = " << spec_hash << '\n';
    out << "encryptions = " << result.encryptions << '\n';
    out << "total_cycles = " << result.total_cycles << '\n';
    out << "total_instructions = " << result.total_instructions << '\n';
    out << "total_energy_uj = " << d(result.total_energy_uj) << '\n';
    out << "secured_count = " << result.secured_count << '\n';
    out << "program_instructions = " << result.program_instructions << '\n';
    out << "metric = " << d(result.metric) << '\n';
    out << "best_guess = " << result.best_guess << '\n';
    out << "true_value = " << result.true_value << '\n';
    out << "success = " << (result.success ? 1 : 0) << '\n';
    out << "margin = " << d(result.margin) << '\n';
    out << "cycles_over_threshold = " << result.cycles_over_threshold << '\n';
    out << "wall_seconds = " << d(result.wall_seconds) << '\n';
    out << "threads_used = " << result.threads_used << '\n';
    out.flush();
    if (!out) throw std::runtime_error("write failure on " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

bool load_checkpoint(const std::string& path, const Scenario& scenario,
                     const std::string& spec_hash, ScenarioResult* out) {
  if (!std::filesystem::exists(path)) return false;
  const IniFile ini = IniFile::load_file(path);
  const IniFile::Section* cp = ini.find_section("checkpoint");
  if (cp == nullptr) {
    throw std::runtime_error(path + ": not a checkpoint file");
  }
  const auto get = [&](const char* key) -> const std::string& {
    const IniFile::Entry* e = cp->find(key);
    if (e == nullptr) {
      throw std::runtime_error(path + ": missing checkpoint key '" +
                               std::string(key) + "'");
    }
    return e->value;
  };
  if (get("id") != scenario.id || get("spec_hash") != spec_hash) {
    return false;  // stale: different spec or renumbered matrix
  }
  ScenarioResult r;
  r.encryptions = ArgParser::parse_u64(get("encryptions"), "encryptions");
  r.total_cycles = ArgParser::parse_u64(get("total_cycles"), "total_cycles");
  r.total_instructions =
      ArgParser::parse_u64(get("total_instructions"), "total_instructions");
  r.total_energy_uj =
      ArgParser::parse_double(get("total_energy_uj"), "total_energy_uj");
  r.secured_count =
      ArgParser::parse_u64(get("secured_count"), "secured_count");
  r.program_instructions = ArgParser::parse_u64(get("program_instructions"),
                                                "program_instructions");
  r.metric = ArgParser::parse_double(get("metric"), "metric");
  r.best_guess =
      static_cast<int>(ArgParser::parse_int(get("best_guess"), "best_guess"));
  r.true_value =
      static_cast<int>(ArgParser::parse_int(get("true_value"), "true_value"));
  r.success = get("success") == "1";
  r.margin = ArgParser::parse_double(get("margin"), "margin");
  r.cycles_over_threshold = ArgParser::parse_u64(get("cycles_over_threshold"),
                                                 "cycles_over_threshold");
  r.wall_seconds =
      ArgParser::parse_double(get("wall_seconds"), "wall_seconds");
  r.threads_used = ArgParser::parse_u64(get("threads_used"), "threads_used");
  *out = r;
  return true;
}

std::string git_describe() {
#if defined(_WIN32)
  return "unknown";
#else
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return (status == 0 && !out.empty()) ? out : "unknown";
#endif
}

void write_manifest(const std::string& path, const CampaignSpec& spec,
                    const std::vector<ScenarioOutcome>& outcomes,
                    const std::string& git_version, const ShardSpec* shard) {
  const bool sharded = shard != nullptr && shard->sharded();
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write manifest " + path);
  JsonWriter j(file);
  j.begin_object();
  j.key("format");
  j.value(sharded ? "emask-campaign-shard-manifest-v1"
                  : "emask-campaign-manifest-v1");
  j.key("campaign");
  j.value(spec.name);
  j.key("spec_hash");
  j.value(spec.hash);
  if (sharded) {
    j.key("shard_index");
    j.value(static_cast<std::uint64_t>(shard->index));
    j.key("shard_count");
    j.value(static_cast<std::uint64_t>(shard->count));
  }
  j.key("generator");
  j.value(git_version);
  j.key("seed");
  j.value(hex_u64(spec.seed));
  j.key("key");
  j.value(hex_u64(spec.key));
  // 3DES session keys appear only when the campaign has a tdes_cbc axis
  // value, so legacy manifests stay byte-identical.
  bool any_tdes = false;
  for (const Cipher c : spec.ciphers) {
    if (c == Cipher::kTdesCbc) any_tdes = true;
  }
  if (any_tdes) {
    j.key("key2");
    j.value(hex_u64(spec.key2));
    j.key("key3");
    j.value(hex_u64(spec.key3));
  }
  j.key("fixed_input");
  j.value(hex_u64(spec.fixed_input));
  j.key("window_begin");
  j.value(static_cast<std::uint64_t>(spec.window_begin));
  j.key("window_end");
  j.value(static_cast<std::uint64_t>(spec.window_end));
  j.key("timings");  // wall-clock lives there, outside byte-identity
  j.value(sharded ? "timings." + shard->label() + ".json" : "timings.json");
  j.key("scenario_count");
  j.value(static_cast<std::uint64_t>(outcomes.size()));

  j.key("scenarios");
  j.begin_array();
  for (const ScenarioOutcome& o : outcomes) {
    const Scenario& s = o.scenario;
    const ScenarioResult& r = o.result;
    j.begin_object();
    j.key("id");
    j.value(s.id);
    j.key("cipher");
    j.value(std::string(cipher_name(s.cipher)));
    j.key("policy");
    j.value(s.policy.name());
    j.key("analysis");
    j.value(std::string(analysis_name(s.analysis)));
    j.key("noise_sigma_pj");
    j.value(s.noise_sigma_pj);
    j.key("traces");
    j.value(static_cast<std::uint64_t>(s.traces));
    if (is_session_cipher(s.cipher)) {
      j.key("session_length");
      j.value(static_cast<std::uint64_t>(s.session_length));
    }
    j.key("coupling_ff");
    j.value(s.coupling_ff);
    j.key("seed");
    j.value(hex_u64(s.seed));
    j.key("result");
    j.begin_object();
    j.key("encryptions");
    j.value(r.encryptions);
    j.key("total_cycles");
    j.value(r.total_cycles);
    j.key("total_instructions");
    j.value(r.total_instructions);
    j.key("total_energy_uj");
    j.value(r.total_energy_uj);
    j.key("mean_uj");
    j.value(r.mean_uj());
    j.key("secured_count");
    j.value(r.secured_count);
    j.key("program_instructions");
    j.value(r.program_instructions);
    j.key("metric");
    j.value(r.metric);
    j.key("best_guess");
    j.value(r.best_guess);
    j.key("true_value");
    j.value(r.true_value);
    j.key("success");
    j.value(r.success);
    j.key("margin");
    j.value(r.margin);
    j.key("cycles_over_threshold");
    j.value(r.cycles_over_threshold);
    j.end_object();
    j.end_object();
  }
  j.end_array();

  std::uint64_t total_encryptions = 0;
  std::uint64_t total_cycles = 0;
  double total_energy_uj = 0.0;
  for (const ScenarioOutcome& o : outcomes) {
    total_encryptions += o.result.encryptions;
    total_cycles += o.result.total_cycles;
    total_energy_uj += o.result.total_energy_uj;
  }
  j.key("rollup");
  j.begin_object();
  j.key("total_encryptions");
  j.value(total_encryptions);
  j.key("total_cycles");
  j.value(total_cycles);
  j.key("total_energy_uj");
  j.value(total_energy_uj);
  const std::vector<PolicyRollup> rollups = rollup_by_policy(spec, outcomes);
  const double baseline = rollups.empty() ? 0.0 : rollups.front().mean_uj;
  const double* ref_baseline =
      rollups.empty() ? nullptr : find_reference(spec, rollups.front().policy);
  j.key("by_policy");
  j.begin_array();
  for (const PolicyRollup& r : rollups) {
    j.begin_object();
    j.key("policy");
    j.value(r.policy.name());
    j.key("scenarios");
    j.value(static_cast<std::uint64_t>(r.scenarios));
    j.key("mean_uj");
    j.value(r.mean_uj);
    // A zero baseline (no energy data for the first policy) makes the
    // ratio undefined — emit null (NaN serializes as null), never a
    // misleading 0.0.
    const double ratio =
        baseline > 0.0 ? r.mean_uj / baseline : std::nan("");
    j.key("ratio");
    j.value(ratio);
    if (const double* ref = find_reference(spec, r.policy)) {
      j.key("paper_uj");
      j.value(*ref);
      if (ref_baseline != nullptr && *ref_baseline > 0.0) {
        j.key("paper_ratio");
        j.value(*ref / *ref_baseline);
        // Paper-normalized energy: measured ratio on the paper's absolute
        // scale (our compiler emits denser code, so absolute uJ differ by
        // a constant factor while the policy ratios match).
        j.key("normalized_uj");
        j.value(ratio * *ref_baseline);
      }
    } else if (ref_baseline != nullptr && *ref_baseline > 0.0 &&
               std::isfinite(ratio)) {
      // No paper number for this policy (the paper predates the hiding
      // countermeasures), but its measured ratio still projects onto the
      // paper's absolute scale for side-by-side comparison.
      j.key("normalized_uj");
      j.value(ratio * *ref_baseline);
    }
    j.end_object();
  }
  j.end_array();
  j.end_object();

  j.end_object();
  j.finish();
  file.flush();
  if (!file) throw std::runtime_error("write failure on " + path);
}

ScenarioResult scenario_result_from_json(const util::JsonValue& result) {
  // Doubles that were emitted as null (non-finite) load back as NaN so a
  // re-serialization produces null again.
  const auto as_double_or_nan = [](const util::JsonValue& v) {
    return v.is_null() ? std::nan("") : v.as_double();
  };
  ScenarioResult r;
  r.encryptions = result.at("encryptions").as_u64();
  r.total_cycles = result.at("total_cycles").as_u64();
  r.total_instructions = result.at("total_instructions").as_u64();
  r.total_energy_uj = as_double_or_nan(result.at("total_energy_uj"));
  r.secured_count = result.at("secured_count").as_u64();
  r.program_instructions = result.at("program_instructions").as_u64();
  r.metric = as_double_or_nan(result.at("metric"));
  r.best_guess = static_cast<int>(result.at("best_guess").as_int());
  r.true_value = static_cast<int>(result.at("true_value").as_int());
  r.success = result.at("success").as_bool();
  r.margin = as_double_or_nan(result.at("margin"));
  r.cycles_over_threshold = result.at("cycles_over_threshold").as_u64();
  return r;
}

void write_summary_csv(const std::string& path,
                       const std::vector<ScenarioOutcome>& outcomes) {
  const auto fmt = [](double v) { return JsonWriter::format_double(v); };
  util::CsvWriter summary(path);
  summary.write_header({"id", "cipher", "policy", "analysis",
                        "noise_sigma_pj", "traces", "coupling_ff", "mean_uj",
                        "metric", "success", "margin"});
  for (const ScenarioOutcome& o : outcomes) {
    const Scenario& s = o.scenario;
    summary.write_row({s.id, std::string(cipher_name(s.cipher)),
                       s.policy.name(),
                       std::string(analysis_name(s.analysis)),
                       fmt(s.noise_sigma_pj), std::to_string(s.traces),
                       fmt(s.coupling_ff), fmt(o.result.mean_uj()),
                       fmt(o.result.metric), o.result.success ? "1" : "0",
                       fmt(o.result.margin)});
  }
  summary.flush();
}

void write_timings(const std::string& path,
                   const std::vector<ScenarioOutcome>& outcomes) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write timings " + path);
  JsonWriter j(file);
  j.begin_object();
  j.key("format");
  j.value("emask-campaign-timings-v1");
  double wall = 0.0;
  for (const ScenarioOutcome& o : outcomes) wall += o.result.wall_seconds;
  j.key("total_wall_seconds");
  j.value(wall);
  j.key("scenarios");
  j.begin_array();
  for (const ScenarioOutcome& o : outcomes) {
    j.begin_object();
    j.key("id");
    j.value(o.scenario.id);
    j.key("resumed");
    j.value(o.resumed);
    j.key("wall_seconds");
    j.value(o.result.wall_seconds);
    j.key("threads");
    j.value(o.result.threads_used);
    const double throughput =
        o.result.wall_seconds > 0.0
            ? static_cast<double>(o.result.encryptions) /
                  o.result.wall_seconds
            : 0.0;
    j.key("encryptions_per_sec");
    j.value(throughput);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.finish();
}

}  // namespace emask::campaign
