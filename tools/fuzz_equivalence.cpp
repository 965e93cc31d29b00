// Differential correctness fuzzer: serial oracle vs Optimus 2D vs Megatron 1D.
//
//   ./fuzz_equivalence --configs 100 --seed 1
//   ./fuzz_equivalence --config "q=2,mp=2,b=2,s=7,..."   # replay one repro
//
// Samples random model/mesh configurations (testing/fuzz_config.hpp) and runs
// each through one full training step — forward, LM loss, backward, SGD — on
// all three engines, comparing per-device blocks/slices with ULP-aware
// tolerances, round-tripping parameters through checkpoint_io, replaying the
// 2D run under a deterministic latency-fault plan (bitwise-identical results
// required), and finite-difference-checking the serial oracle's gradients on
// f64 configs.
//
// Output is deterministic for a given (seed, flags) pair — one summary line
// per config, no timing, no pointers — so two identical invocations must be
// byte-identical (scripts/check.sh diffs them). On failure the tool greedily
// shrinks the config toward the smallest one that still fails and prints a
// self-contained repro command. Exit code: 0 all pass, 1 failures, 2 usage
// (an unknown flag among them); --help prints the usage and exits 0.
//
// Flags:
//   --configs N           number of sampled configs (default 25)
//   --seed S              base sampling seed (default 1)
//   --config "k=v,..."    run exactly this config instead of sampling
//   --report PATH         also write the report lines to PATH
//   --gradcheck N         finite-difference coords per f64 config (default 4)
//   --no-megatron         skip the 1D engine
//   --no-fault-replay     skip the fault-plan replay stage
//   --no-shrink           report failures without shrinking
//   --verbose             echo every failure detail line

#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "testing/equivalence.hpp"
#include "testing/fuzz_config.hpp"
#include "testing/watchdog.hpp"
#include "util/cli.hpp"

namespace ots = optimus::testing;

namespace {

struct Args {
  int configs = 25;
  std::uint64_t seed = 1;
  std::string config;
  std::string report;
  int gradcheck = 4;
  bool megatron = true;
  bool fault_replay = true;
  bool shrink = true;
  bool verbose = false;
};

const char* const kUsage =
    "usage: fuzz_equivalence [--configs N] [--seed S] [--config STR] [--report PATH]\n"
    "                        [--gradcheck N] [--no-megatron] [--no-fault-replay]\n"
    "                        [--no-shrink] [--verbose]\n";

int usage() {
  std::cerr << kUsage;
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--configs") {
      const char* v = next();
      if (!v) return false;
      a.configs = std::stoi(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      a.seed = std::stoull(v);
    } else if (flag == "--config") {
      const char* v = next();
      if (!v) return false;
      a.config = v;
    } else if (flag == "--report") {
      const char* v = next();
      if (!v) return false;
      a.report = v;
    } else if (flag == "--gradcheck") {
      const char* v = next();
      if (!v) return false;
      a.gradcheck = std::stoi(v);
    } else if (flag == "--no-megatron") {
      a.megatron = false;
    } else if (flag == "--no-fault-replay") {
      a.fault_replay = false;
    } else if (flag == "--no-shrink") {
      a.shrink = false;
    } else if (flag == "--verbose") {
      a.verbose = true;
    } else if (flag == "--help") {
      throw optimus::util::CliHelp(kUsage);
    } else {
      std::cerr << "error: unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return a.configs >= 0;
}

ots::EquivalenceResult run_one(const ots::FuzzConfig& fc, const Args& a) {
  ots::EquivalenceOptions opts;
  opts.run_megatron = a.megatron;
  opts.fault_replay = a.fault_replay;
  opts.gradcheck_coords = a.gradcheck;
  // A hung collective must fail the fuzzer loudly, not wedge CI.
  ots::Watchdog wd("fuzz config " + fc.to_string(), std::chrono::seconds(180));
  return ots::run_equivalence(fc, opts);
}

/// Greedy shrink: repeatedly replace the failing config with its first
/// still-failing reduction until no reduction fails.
ots::FuzzConfig shrink(ots::FuzzConfig failing, const Args& a, std::ostream& out) {
  const int kMaxSteps = 40;
  for (int step = 0; step < kMaxSteps; ++step) {
    bool reduced = false;
    for (const ots::FuzzConfig& cand : failing.shrink_candidates()) {
      if (!run_one(cand, a).pass()) {
        out << "shrink: " << cand.to_string() << " still fails\n";
        failing = cand;
        reduced = true;
        break;
      }
    }
    if (!reduced) break;
  }
  return failing;
}

}  // namespace

static int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  std::ostringstream report;
  std::vector<ots::FuzzConfig> todo;
  if (!args.config.empty()) {
    try {
      todo.push_back(ots::FuzzConfig::parse(args.config));
    } catch (const std::exception& e) {
      std::cerr << "bad --config: " << e.what() << "\n";
      return 2;
    }
  } else {
    std::mt19937 gen(static_cast<std::mt19937::result_type>(args.seed));
    for (int n = 0; n < args.configs; ++n) todo.push_back(ots::FuzzConfig::sample(gen));
  }

  int failures = 0;
  for (std::size_t n = 0; n < todo.size(); ++n) {
    const ots::FuzzConfig& fc = todo[n];
    const ots::EquivalenceResult res = run_one(fc, args);
    report << "[" << n << "] " << ots::summarize(res) << "\n";
    if (res.pass()) continue;

    failures += 1;
    const std::size_t shown =
        args.verbose ? res.failures.size() : std::min<std::size_t>(res.failures.size(), 3);
    for (std::size_t k = 0; k < shown; ++k) report << "    " << res.failures[k] << "\n";

    ots::FuzzConfig repro = fc;
    if (args.shrink) repro = shrink(fc, args, report);
    report << "FAILURE REPRO: fuzz_equivalence --config \"" << repro.to_string() << "\"";
    if (!args.megatron) report << " --no-megatron";
    if (!args.fault_replay) report << " --no-fault-replay";
    report << "\n";
    if (args.shrink && repro.to_string() != fc.to_string()) {
      report << "  (shrunk from: " << fc.to_string() << ")\n";
    }
  }

  report << "fuzz_equivalence: " << todo.size() << " configs, " << failures << " failures, seed="
         << args.seed << "\n";

  std::cout << report.str();
  if (!args.report.empty()) {
    std::ofstream out(args.report);
    if (!out.good()) {
      std::cerr << "cannot write report to " << args.report << "\n";
      return 2;
    }
    out << report.str();
  }
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
