// Accuracy sweep for the kernel layer's vectorized tanh (kernel::tanh, which
// every GELU forward and backward runs).
//
//   f32: every input bit pattern u = j·stride, j = 0, 1, … below 2³² (all 2³²
//        inputs at --stride 1), against (float)std::tanh((double)x);
//   f64: --f64-samples inputs drawn log-uniformly over 2⁻⁴⁰ ≤ |x| < 2⁶ with
//        random sign and mantissa, against (double)tanhl((long double)x).
//
// NaN inputs must give NaN; every other result is measured in ULPs against
// the reference (the IEEE total-order distance, so +0 and −0 are 1 apart).
// Prints the maximum, the input that reached it and a histogram per dtype;
// exits 1 if any result is more than 2 ULP from its reference. Runs on 4
// threads.
//
//   build/tools/tanh_ulp_sweep                      # full f32 sweep + 10⁸ f64
//   build/tools/tanh_ulp_sweep --stride 4099 --f64-samples 1000000

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "kernel/elementwise.hpp"
#include "testing/ulp.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

namespace ok = optimus::kernel;
using optimus::testing::ulp_distance;

constexpr std::size_t kBatch = 4096;
constexpr int kThreads = 4;
constexpr std::uint64_t kMaxUlps = 2;

struct Tally {
  std::uint64_t inputs = 0;
  std::array<std::uint64_t, 4> hist{};  // results 0, 1, 2 and > 2 ULP off
  std::uint64_t worst = 0;
  double worst_x = 0;
  std::uint64_t over = 0;  // results past the budget (NaN mismatches included)

  template <typename T>
  void add(T x, T got, T want) {
    ++inputs;
    std::uint64_t ulps = 0;
    if (std::isnan(x)) {
      ulps = std::isnan(got) ? 0 : std::numeric_limits<std::uint64_t>::max();
    } else {
      ulps = ulp_distance(got, want);
    }
    ++hist[std::min<std::uint64_t>(ulps, 3)];
    if (ulps > kMaxUlps) ++over;
    if (inputs == 1 || ulps > worst) {
      worst = ulps;
      worst_x = static_cast<double>(x);
    }
  }

  void merge(const Tally& o) {
    if (o.inputs > 0 && (inputs == 0 || o.worst > worst)) {
      worst = o.worst;
      worst_x = o.worst_x;
    }
    inputs += o.inputs;
    for (std::size_t i = 0; i < hist.size(); ++i) hist[i] += o.hist[i];
    over += o.over;
  }

  void print(const char* what) const {
    std::printf("tanh_ulp_sweep: %s: %llu inputs, max %llu ULP at x=%.17g; ULP histogram "
                "0:%llu 1:%llu 2:%llu >2:%llu\n",
                what, static_cast<unsigned long long>(inputs),
                static_cast<unsigned long long>(worst), worst_x,
                static_cast<unsigned long long>(hist[0]),
                static_cast<unsigned long long>(hist[1]),
                static_cast<unsigned long long>(hist[2]),
                static_cast<unsigned long long>(hist[3]));
  }
};

// Runs body(t) on kThreads threads and merges their tallies.
template <typename Body>
Tally run_threads(Body body) {
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] { tallies[static_cast<std::size_t>(t)] = body(t); });
  }
  for (auto& th : pool) th.join();
  Tally all;
  for (const auto& t : tallies) all.merge(t);
  return all;
}

// Inputs u = j·stride for j in [j0, j1).
Tally sweep_f32(std::uint64_t j0, std::uint64_t j1, std::uint64_t stride) {
  Tally tally;
  std::vector<float> x(kBatch), y(kBatch);
  for (std::uint64_t j = j0; j < j1; j += kBatch) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, j1 - j));
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint32_t>((j + i) * stride);
      std::memcpy(&x[i], &u, sizeof(u));
    }
    ok::tanh(x.data(), y.data(), static_cast<ok::index_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = static_cast<float>(std::tanh(static_cast<double>(x[i])));
      tally.add(x[i], y[i], want);
    }
  }
  return tally;
}

Tally sample_f64(std::uint64_t samples, std::uint64_t seed) {
  Tally tally;
  optimus::util::Rng rng(seed);
  std::vector<double> x(kBatch), y(kBatch);
  for (std::uint64_t s = 0; s < samples; s += kBatch) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, samples - s));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rng.next_u64();
      const std::uint64_t exponent = 1023 - 40 + rng.uniform_index(46);
      const std::uint64_t u = (r & (std::uint64_t{1} << 63)) | (exponent << 52) |
                              (r & ((std::uint64_t{1} << 52) - 1));
      std::memcpy(&x[i], &u, sizeof(u));
    }
    ok::tanh(x.data(), y.data(), static_cast<ok::index_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = static_cast<double>(std::tanh(static_cast<long double>(x[i])));
      tally.add(x[i], y[i], want);
    }
  }
  return tally;
}

}  // namespace

static int run_main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const long long stride = cli.get_i64("stride", 1);
  const long long f64_samples = cli.get_i64("f64-samples", 100000000);
  cli.finish();
  OPT_CHECK(stride >= 1 && stride <= (1LL << 32), "--stride must be in [1, 2^32], got " << stride);
  OPT_CHECK(f64_samples >= 0, "--f64-samples must be >= 0, got " << f64_samples);

  const auto step = static_cast<std::uint64_t>(stride);
  const std::uint64_t count = ((std::uint64_t{1} << 32) + step - 1) / step;
  const Tally f32 = run_threads([&](int t) {
    const std::uint64_t per = (count + kThreads - 1) / kThreads;
    const std::uint64_t j0 = std::min(count, per * t);
    return sweep_f32(j0, std::min(count, j0 + per), step);
  });
  f32.print("f32 vs (float)tanh((double)x)");

  const auto samples = static_cast<std::uint64_t>(f64_samples);
  const Tally f64 = run_threads([&](int t) {
    const std::uint64_t per = (samples + kThreads - 1) / kThreads;
    const std::uint64_t s0 = std::min(samples, per * t);
    return sample_f64(std::min(samples, s0 + per) - s0, static_cast<std::uint64_t>(t) + 1);
  });
  f64.print("f64 vs (double)tanhl(x)");

  if (f32.over + f64.over > 0) {
    std::printf("FAIL: %llu results more than %llu ULP from the reference\n",
                static_cast<unsigned long long>(f32.over + f64.over),
                static_cast<unsigned long long>(kMaxUlps));
    return 1;
  }
  std::printf("PASS: every result within %llu ULP\n", static_cast<unsigned long long>(kMaxUlps));
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
