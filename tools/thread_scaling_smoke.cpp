// Thread-scaling smoke for the cooperative GEMM (scripts/check.sh step).
//
// Runs the acceptance shape — 1024³ f32 — at 1 and 4 threads and checks that
// threading does not make the kernel slower. The historical failure mode this
// guards is real: before the shared-pack schedule every worker re-packed the
// identical B panel, and the 4-thread wall time was ~1.19× the 1-thread time
// (0.84× "speedup").
//
// The bound is core-count aware. With ≥4 hardware threads the ISSUE bound
// applies directly: fail if wall(4t) > 0.9 × wall(1t). On smaller hosts
// (including the 1-core CI container) a real speedup is physically
// unavailable, so the check degrades to "threads must not regress": fail if
// wall(4t) > 1.15 × wall(1t) — still strict enough to catch the re-packing
// pathology, generous enough not to flake on scheduler noise.
//
// The 1-thread and 4-thread reps alternate, so a burst of load from other
// tenants on a shared host lands on both thread counts instead of on one
// block of reps; each side keeps its best rep.
//
// Exit code 0 on pass, 1 on regression. Prints both walls either way.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "kernel/gemm.hpp"
#include "kernel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/cli.hpp"

namespace {

namespace ok = optimus::kernel;
using index_t = ok::index_t;

std::vector<float> random_buffer(index_t n, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

// Wall time in ms of one n³ product on `threads` threads.
double wall_ms(int threads, const std::vector<float>& A, const std::vector<float>& B,
               std::vector<float>& C, index_t n) {
  ok::set_threads(threads);
  optimus::util::Stopwatch sw;
  ok::gemm(C.data(), A.data(), B.data(), n, n, n, n, n, n, ok::Trans::No, ok::Trans::No, 1.0f,
           0.0f);
  const double ms = sw.elapsed_s() * 1000.0;
  ok::set_threads(0);
  return ms;
}

}  // namespace

static int run_main() {
  const index_t n = 1024;
  const int reps = 5;
  auto A = random_buffer(n * n, 1);
  auto B = random_buffer(n * n, 2);
  std::vector<float> C(static_cast<std::size_t>(n * n), 0.0f);

  // Warm-up: fault in buffers and spawn the worker team once.
  wall_ms(4, A, B, C, n);

  // Best of reps per side: the minimum is the right statistic for a
  // regression gate — it estimates the undisturbed run, and noise only ever
  // inflates individual samples.
  double wall_1t = 1e300, wall_4t = 1e300;
  for (int r = 0; r < reps; ++r) {
    wall_1t = std::min(wall_1t, wall_ms(1, A, B, C, n));
    wall_4t = std::min(wall_4t, wall_ms(4, A, B, C, n));
  }
  const int cores = ok::hardware_threads();

  // cores >= 4: threads must genuinely help (4t <= 0.9 * 1t).
  // cores < 4: no parallel speedup exists to demand; threads must not hurt.
  const double limit = cores >= 4 ? 0.9 * wall_1t : 1.15 * wall_1t;
  const char* regime = cores >= 4 ? "speedup (<= 0.9x of 1t)" : "no-regression (<= 1.15x of 1t)";

  std::printf("thread-scaling smoke: 1024^3 f32, best of %d alternating reps\n", reps);
  std::printf("  hardware threads: %d  -> bound: %s\n", cores, regime);
  std::printf("  wall 1t: %.2f ms\n", wall_1t);
  std::printf("  wall 4t: %.2f ms  (speedup_vs_1t %.2fx, limit %.2f ms)\n", wall_4t,
              wall_1t / wall_4t, limit);

  if (wall_4t > limit) {
    std::printf("FAIL: 4-thread GEMM slower than the %s bound\n", regime);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
