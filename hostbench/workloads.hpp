#pragma once

// The host-cost benchmark's workloads: what each one runs, which metrics it
// reports, and the helpers the self-test shares with host_bench.

#include <cstdint>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "serving/request.hpp"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable context printed before the metrics
};

/// Runs one workload for opts.seconds of timed steps (after set-up) and
/// measures it. Throws util::CheckError on an unknown workload name.
Result run_workload(const Options& opts);

// -- shared with the self-test -----------------------------------------------

optimus::model::TransformerConfig train_config();
optimus::model::TransformerConfig serve_config();

/// Loss trace of `steps` Adam steps of a training workload (train_2d,
/// train_1d or train_serial) on the batches `seed` generates.
std::vector<double> train_losses(const std::string& workload, std::uint64_t seed, int steps);

/// Session `k` of a serving run: the seeded Poisson requests, arrivals
/// shifted to start at sim time t0.
std::vector<optimus::serving::Request> session_requests(std::uint64_t seed, std::size_t k,
                                                        std::size_t count, double t0);

/// Serves `requests` on the 2x2 Optimus decode engine through the
/// benchmark's own session loop; returns the completed requests.
std::vector<optimus::serving::Request> serve_optimus(
    const std::vector<optimus::serving::Request>& requests);

}  // namespace hostbench
