// Host-cost benchmark program: how much host CPU this program spends running a
// simulated Optimus (2D), Megatron (1D) or serial training step, and a 2D
// KV-cached decode step. README.md explains the workloads and metrics.
//
//   host_bench --workload train_2d --seed 1 --seconds 24 --trace 0
//
// Prints context lines ("# ..."), one "name value unit" line per metric and,
// as the last line, one JSON object with the keys correct, attempted, failed
// and metrics. --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 the per-layer metrics of a run that is half untraced, half traced.
// Exits non-zero without a result line on bad arguments or a failed run.

#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    optimus::util::Cli cli(argc, argv);
    hostbench::Options o;
    o.workload = cli.get_string("workload", "");
    o.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 1));
    o.seconds = cli.get_double("seconds", 10);
    const int trace = cli.get_int("trace", 0);
    cli.finish();
    if (trace != 0 && trace != 1) {
      std::fprintf(stderr, "--trace must be 0 or 1\n");
      return 2;
    }
    o.trace = trace == 1;

    const hostbench::Result r = hostbench::run_workload(o);
    for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
    for (const auto& m : r.metrics) {
      std::printf("%-34s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  json_escape(m.name).c_str(), m.value, json_escape(m.unit).c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "host_bench: %s\n", e.what());
    return 1;
  }
}
