// emask-campaign: declare an experiment matrix once, run it reproducibly —
// on one machine or sharded across many.
//
//   emask-campaign run SPEC.ini --out=DIR [--jobs=N] [--resume]
//                  [--shard=i/N] [--dry-run] [--limit=K] [--quiet]
//                  [--report]
//   emask-campaign merge DIR... --out=DIR [--quiet]
//
// `run` expands the spec's axes into a scenario grid and executes it
// through the parallel BatchRunner with per-scenario checkpointing; a
// killed campaign rerun with --resume continues from the last completed
// scenario and produces a byte-identical manifest.  --shard=i/N executes
// only the scenarios of one deterministic partition (round-robin over the
// canonical matrix order) and writes manifest.shard-i-of-N.json instead.
// `merge` validates N such shard directories (same spec hash, disjoint and
// complete shard set) and emits a manifest.json byte-identical to a
// single-machine run of the same spec.  --dry-run prints the expanded
// matrix without simulating anything.  Example specs live in
// examples/campaigns/.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "report/html.hpp"
#include "tool_common.hpp"

using namespace emask;

namespace {

int run_command(int argc, char** argv) {
  std::string command;
  std::string spec_path;
  std::string out_dir;
  std::string shard_text;
  std::size_t jobs = 0;
  std::size_t limit = 0;
  bool resume = false;
  bool dry_run = false;
  bool quiet = false;
  bool report = false;

  util::ArgParser parser("emask-campaign", "run SPEC.ini [options]");
  parser.positional("command", &command, true, "subcommand: run");
  parser.positional("spec", &spec_path, true, "campaign spec file (INI)");
  parser.opt_string("out", &out_dir, "DIR",
                    "output directory (default: campaigns/<name>)");
  parser.opt_size("jobs", &jobs,
                  "worker threads per scenario batch (0 = all cores)");
  parser.opt_size("limit", &limit,
                  "stop after K executed scenarios (controlled interrupt)");
  parser.opt_string("shard", &shard_text, "i/N",
                    "run only partition i of N (for distributed sweeps)");
  parser.flag("resume", &resume, "reuse checkpoints from a previous run");
  parser.flag("dry-run", &dry_run, "print the scenario matrix and exit");
  parser.flag("quiet", &quiet, "suppress per-scenario progress output");
  parser.flag("report", &report,
              "render a self-contained report.html after a successful run");
  const int parsed = tools::parse_or_usage(parser, argc, argv);
  if (parsed != 0) return parsed > 0 ? 1 : 0;

  try {
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::load_file(spec_path);
    const auto scenarios = spec.expand();
    if (dry_run) {
      campaign::CampaignRunner::print_matrix(spec, scenarios, stdout);
      return 0;
    }
    campaign::RunnerOptions options;
    options.out_dir = out_dir.empty() ? "campaigns/" + spec.name : out_dir;
    options.jobs = jobs;
    options.resume = resume;
    options.limit = limit;
    options.quiet = quiet;
    if (!shard_text.empty()) {
      options.shard = campaign::ShardSpec::parse(shard_text);
    }
    campaign::CampaignRunner runner(spec, options);
    const campaign::CampaignReport result = runner.run();
    if (!quiet && result.complete) {
      const std::string manifest =
          options.shard.sharded()
              ? "manifest." + options.shard.label() + ".json"
              : "manifest.json";
      std::printf("\ncampaign %s: %zu scenarios (%zu executed, %zu "
                  "resumed) -> %s/%s\n",
                  spec.name.c_str(), result.total_scenarios, result.executed,
                  result.resumed, options.out_dir.c_str(), manifest.c_str());
    }
    if (report && result.complete) {
      // Same library path as the emask-report CLI: load the manifest the
      // run just wrote (per-shard for sharded runs) and render next to it.
      const std::string html_path =
          options.shard.sharded()
              ? options.out_dir + "/report." + options.shard.label() +
                    ".html"
              : options.out_dir + "/report.html";
      const std::size_t bytes =
          report::render_directory(options.out_dir, html_path);
      if (!quiet) {
        std::printf("report: %s (%zu bytes, self-contained)\n",
                    html_path.c_str(), bytes);
      }
    }
    return result.complete ? 0 : 3;
  } catch (const campaign::SpecError& e) {
    std::fprintf(stderr, "emask-campaign: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emask-campaign: %s\n", e.what());
    return 2;
  }
}

int merge_command(int argc, char** argv) {
  std::string command;
  std::string out_dir;
  bool quiet = false;
  campaign::MergeOptions options;

  util::ArgParser parser("emask-campaign", "merge DIR... --out=DIR");
  parser.positional("command", &command, true, "subcommand: merge");
  parser.positional_rest("dir", &options.shard_dirs,
                         "shard output directories (from run --shard=i/N)");
  parser.opt_string("out", &out_dir, "DIR", "merged output directory");
  parser.flag("quiet", &quiet, "suppress progress output");
  const int parsed = tools::parse_or_usage(parser, argc, argv);
  if (parsed != 0) return parsed > 0 ? 1 : 0;

  try {
    if (out_dir.empty()) {
      throw campaign::SpecError(
          "merge: --out=DIR is required (the merged directory)");
    }
    options.out_dir = out_dir;
    options.quiet = quiet;
    (void)campaign::merge_shards(options);
    return 0;
  } catch (const campaign::SpecError& e) {
    std::fprintf(stderr, "emask-campaign: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emask-campaign: %s\n", e.what());
    return 2;
  }
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: emask-campaign <command> [options]\n"
               "  run SPEC.ini [--out=DIR] [--jobs=N] [--resume]\n"
               "               [--shard=i/N] [--dry-run] [--limit=K] "
               "[--quiet] [--report]\n"
               "  merge DIR... --out=DIR [--quiet]\n"
               "run `emask-campaign <command> --help` for per-command "
               "options\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  if (command == "run") return run_command(argc, argv);
  if (command == "merge") return merge_command(argc, argv);
  std::fprintf(stderr, "emask-campaign: unknown command '%s' (expected "
               "run|merge)\n", command.c_str());
  print_usage(stderr);
  return 1;
}
