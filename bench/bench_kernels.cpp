// GFLOP/s microbenchmark for the dense kernel layer (DESIGN.md §3).
//
// Compares GEMM paths on identical problems:
//   * naive        — the seed's blocked scalar loop (naive_gemm below, the
//                    only copy left in the tree), built with the portable
//                    project flags; this is the baseline every optimisation
//                    is measured against.
//   * packed       — kernel::gemm_packed, the cache-blocked panel-packing
//                    microkernel on one thread.
//   * threadN      — kernel::gemm with the thread budget forced to N. Since
//                    the cooperative rewrite all threaded rows run the
//                    shared-pack schedule (one packed A/B panel per stage,
//                    workers claim MC×NR tiles); threaded rows also carry
//                    `speedup_vs_1t` = wall(threads1) / wall(threadsN) so the
//                    scaling curve is readable without manual division.
//   * shared_pack  — explicit alias row for the cooperative path at the max
//                    thread count, so the schedule named in DESIGN.md §3 has
//                    a greppable record.
//   * per-rank shapes — threads1 f32 rows at the small products the
//                    hostbench workloads issue per simulated rank (SUMMA
//                    k-steps, decode projections, decode attention heads),
//                    named gemm_threads1_{nn,nt}_f32 by transpose form.
//   * fused/unfused bias_gelu — gemm_ex with the BiasGelu epilogue applied
//                    tile-hot vs the same GEMM followed by separate
//                    full-tensor bias and GELU passes (the pre-fusion MLP
//                    h→4h hot loop).
//   * elementwise  — kernel::gelu / kernel::gelu_backward on one thread at
//                    the MLP activation shapes the hostbench workloads run
//                    per rank, and kernel::adam_update over one rank's
//                    parameters; each against a scalar baseline built here
//                    with the portable flags (GELU through libm's tanh, the
//                    plain Adam loop). These rows carry `ns_per_elem`.
//
// Results go to stdout as a table and to BENCH_kernels.json
// ({name, shape, gflops, wall_ms, sim_ms}); sim_ms is 0 here because these
// are host-only kernels with no simulated cluster in the loop. Pool wait is
// exported as `pool_aggregate_submit_wait_ms` (summed across concurrent
// submitters — can exceed wall time) plus the per-region average
// `pool_avg_region_wait_ms`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernel/elementwise.hpp"
#include "kernel/gemm.hpp"
#include "kernel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/cli.hpp"

namespace {

namespace ok = optimus::kernel;
using optimus::bench::JsonWriter;
using index_t = ok::index_t;

template <typename T>
std::vector<T> random_buffer(index_t n, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  return v;
}

// The seed's GEMM, kept only as this table's baseline: C = A·B (row-major,
// no transposes) as a blocked i-k-j loop whose innermost loop streams rows of
// B, so the compiler can vectorise it without packing.
template <typename T>
void naive_gemm(T* C, const T* A, const T* B, index_t m, index_t n, index_t k) {
  constexpr index_t kBlockM = 32;
  constexpr index_t kBlockN = 64;
  constexpr index_t kBlockK = 64;
  std::fill(C, C + m * n, T{0});
  for (index_t i0 = 0; i0 < m; i0 += kBlockM) {
    const index_t i1 = std::min(i0 + kBlockM, m);
    for (index_t k0 = 0; k0 < k; k0 += kBlockK) {
      const index_t k1 = std::min(k0 + kBlockK, k);
      for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
        const index_t j1 = std::min(j0 + kBlockN, n);
        for (index_t i = i0; i < i1; ++i) {
          T* c_row = C + i * n;
          for (index_t kk = k0; kk < k1; ++kk) {
            const T a = A[i * k + kk];
            const T* b_row = B + kk * n;
            for (index_t j = j0; j < j1; ++j) c_row[j] += a * b_row[j];
          }
        }
      }
    }
  }
}

// Times `fn` adaptively: one warm-up/calibration rep, then enough reps to
// cover ~0.3 s of wall time (at most 10^6, so a sub-microsecond product is
// timed over many calls). A warm-up that alone exceeds the budget is the
// measurement. Returns ms per rep.
double time_ms(const std::function<void()>& fn) {
  constexpr double kBudgetS = 0.3;
  optimus::util::Stopwatch sw;
  fn();
  const double first_s = sw.elapsed_s();
  if (first_s >= kBudgetS) return first_s * 1000.0;
  const int reps = static_cast<int>(std::min(1e6, kBudgetS / (first_s + 1e-9))) + 1;
  optimus::util::Stopwatch sw2;
  for (int i = 0; i < reps; ++i) fn();
  return sw2.elapsed_s() * 1000.0 / reps;
}

template <typename T>
struct Problem {
  std::string tag;  // shape string "m x n x k"
  index_t m, n, k;
};

struct Recorder {
  JsonWriter& json;
  const std::string& tag;
  double flops = 0.0;

  // Pool counters are reset per measurement so each record's worker_share /
  // chunk counts describe that kernel variant alone. `speedup_vs_1t` < 0
  // means "not a threaded row".
  double operator()(const std::string& name, const std::function<void()>& body,
                    double speedup_vs_1t = -1.0) const {
    ok::reset_pool_stats();
    const double ms = time_ms(body);
    const ok::PoolStats ps = ok::pool_stats();
    const double gflops = flops / (ms * 1e-3) / 1e9;
    if (speedup_vs_1t >= 0.0)
      std::printf("%-26s %-18s %12.3f %12.2f %10.2fx\n", name.c_str(), tag.c_str(), ms,
                  gflops, speedup_vs_1t);
    else
      std::printf("%-26s %-18s %12.3f %12.2f\n", name.c_str(), tag.c_str(), ms, gflops);
    std::vector<std::pair<std::string, double>> extra = {
        {"pool_regions", static_cast<double>(ps.regions)},
        {"pool_chunks", static_cast<double>(ps.chunks)},
        {"pool_worker_share", ps.worker_share()},
        {"pool_aggregate_submit_wait_ms", static_cast<double>(ps.submit_wait_ns) / 1e6},
        {"pool_avg_region_wait_ms", ps.avg_region_wait_ns() / 1e6},
        {"pool_barrier_crossings", static_cast<double>(ps.barrier_crossings)}};
    if (speedup_vs_1t >= 0.0) extra.emplace_back("speedup_vs_1t", speedup_vs_1t);
    json.add(name, tag, gflops, ms, 0.0, extra);
    return ms;
  }
};

template <typename T>
void run_gemm_suite(const char* dtype, const std::vector<Problem<T>>& problems,
                    const std::vector<int>& thread_counts, JsonWriter& json) {
  std::printf("%-26s %-18s %12s %12s %11s\n", "name", "shape", "wall_ms", "GFLOP/s",
              "vs_1t");
  for (const auto& p : problems) {
    const index_t m = p.m, n = p.n, k = p.k;
    auto A = random_buffer<T>(m * k, 1);
    auto B = random_buffer<T>(k * n, 2);
    std::vector<T> C(static_cast<std::size_t>(m * n), T{0});
    const Recorder record{json, p.tag, 2.0 * static_cast<double>(m) * n * k};

    record(std::string("gemm_naive_") + dtype, [&] {
      naive_gemm(C.data(), A.data(), B.data(), m, n, k);
    });
    record(std::string("gemm_packed_") + dtype, [&] {
      ok::gemm_packed(C.data(), A.data(), B.data(), m, n, k, k, n, n,
                      ok::Trans::No, ok::Trans::No, T{1}, T{0});
    });
    double wall_1t = 0.0;
    for (int t : thread_counts) {
      ok::set_threads(t);
      const auto body = [&] {
        ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                 ok::Trans::No, T{1}, T{0});
      };
      const std::string name = std::string("gemm_threads") + std::to_string(t) + "_" + dtype;
      if (t <= 1) {
        wall_1t = record(name, body);
      } else {
        // Dry-run once to learn this variant's wall time, then record with the
        // speedup field so BENCH rows carry the ratio directly.
        const double probe = time_ms(body);
        record(name, body, wall_1t > 0.0 ? wall_1t / probe : 0.0);
      }
      ok::set_threads(0);  // back to env/hardware default
    }
  }
  std::printf("\n");
}

// The per-rank products hostbench's workloads call, one thread each, named
// by their transpose form (nn: C = A·B, nt: C = A·Bᵀ with B stored n×k):
//   - train_2d's SUMMA k-steps (128×128×128, 128×512×128);
//   - decode's SUMMA k-steps at 4 slot rows: the projections 4×64×64,
//     4×192×64, 4×256×64 and 4×64×256 NN, and the lm-head 4×128×64 NT;
//   - decode attention's per-head Q·Kᵀ (1×L×16, NT) and P·V (1×16×L, NN) at
//     L = 64, and prefill's 64×64×16 Q·Kᵀ.
// NN rows at 4×64×64, 1×64×16 and 64×64×16 give the NT rows a same-shape
// baseline. Every tile of the decode rows is an edge tile.
void run_rank_shape_suite(JsonWriter& json) {
  struct RankShape {
    const char* form;
    Problem<float> p;
  };
  const std::vector<RankShape> shapes = {
      {"nn", {"128x128x128", 128, 128, 128}}, {"nn", {"128x512x128", 128, 512, 128}},
      {"nn", {"4x64x64", 4, 64, 64}},         {"nn", {"4x192x64", 4, 192, 64}},
      {"nn", {"4x256x64", 4, 256, 64}},       {"nn", {"4x64x256", 4, 64, 256}},
      {"nn", {"1x64x16", 1, 64, 16}},         {"nn", {"1x16x64", 1, 16, 64}},
      {"nn", {"64x64x16", 64, 64, 16}},       {"nt", {"4x64x64", 4, 64, 64}},
      {"nt", {"4x128x64", 4, 128, 64}},       {"nt", {"1x64x16", 1, 64, 16}},
      {"nt", {"64x64x16", 64, 64, 16}},
  };
  std::printf("%-26s %-18s %12s %12s\n", "name", "shape", "wall_ms", "GFLOP/s");
  ok::set_threads(1);
  for (const auto& [form, p] : shapes) {
    const bool nt = std::string(form) == "nt";
    auto A = random_buffer<float>(p.m * p.k, 1);
    auto B = random_buffer<float>(p.k * p.n, 2);
    std::vector<float> C(static_cast<std::size_t>(p.m * p.n), 0.0f);
    const Recorder record{json, p.tag, 2.0 * static_cast<double>(p.m) * p.n * p.k};
    record(std::string("gemm_threads1_") + form + "_f32", [&] {
      ok::gemm(C.data(), A.data(), B.data(), p.m, p.n, p.k, p.k, nt ? p.k : p.n, p.n,
               ok::Trans::No, nt ? ok::Trans::Yes : ok::Trans::No, 1.0f, 0.0f);
    });
  }
  ok::set_threads(0);
  std::printf("\n");
}

// The cooperative shared-pack schedule under its DESIGN.md name, plus the
// fused-epilogue rows: gemm_ex(BiasGelu) applied while each C tile is
// register/L1-hot vs the pre-fusion sequence (GEMM, then a full-tensor bias
// pass, then a full-tensor GELU pass). Same arithmetic order per element, so
// outputs are bitwise identical; only locality differs.
template <typename T>
void run_fusion_suite(const char* dtype, index_t m, index_t n, index_t k,
                      int threads, JsonWriter& json) {
  const std::string tag = std::to_string(m) + "x" + std::to_string(n) + "x" +
                          std::to_string(k);
  auto A = random_buffer<T>(m * k, 1);
  auto B = random_buffer<T>(k * n, 2);
  auto bias = random_buffer<T>(n, 3);
  std::vector<T> C(static_cast<std::size_t>(m * n), T{0});
  std::vector<T> pre(static_cast<std::size_t>(m * n), T{0});
  const Recorder record{json, tag, 2.0 * static_cast<double>(m) * n * k};

  ok::set_threads(threads);
  record(std::string("gemm_shared_pack_") + dtype, [&] {
    ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
             ok::Trans::No, T{1}, T{0});
  });

  ok::EpilogueArgs<T> ep;
  ep.op = ok::Epilogue::BiasGelu;
  ep.bias = bias.data();
  ep.pre = pre.data();
  ep.ldp = n;
  record(std::string("gemm_fused_bias_gelu_") + dtype, [&] {
    ok::gemm_ex(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                ok::Trans::No, T{1}, T{0}, ep);
  });
  record(std::string("gemm_unfused_bias_gelu_") + dtype, [&] {
    ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
             ok::Trans::No, T{1}, T{0});
    for (index_t i = 0; i < m; ++i) {
      T* row = C.data() + i * n;
      for (index_t j = 0; j < n; ++j) row[j] += bias[j];
    }
    std::copy(C.begin(), C.end(), pre.begin());
    ok::gelu(C.data(), C.data(), m * n);
  });
  ok::set_threads(0);
  std::printf("\n");
}

// Scalar baselines: GELU with libm's tanh, forward and derivative.
template <typename T>
T gelu_libm(T x) {
  const T inner = T{0.7978845608028654} * (x + T{0.044715} * x * x * x);
  return T{0.5} * x * (T{1} + std::tanh(inner));
}

template <typename T>
T gelu_grad_libm(T x) {
  const T c = T{0.7978845608028654};
  const T t = std::tanh(c * (x + T{0.044715} * x * x * x));
  const T dinner = c * (T{1} + T{3} * T{0.044715} * x * x);
  return T{0.5} * (T{1} + t) + T{0.5} * x * (T{1} - t * t) * dinner;
}

// One ns/element row: `fn` processes `elems` elements per call.
void record_elementwise(JsonWriter& json, const std::string& name, const std::string& shape,
                        double elems, const std::function<void()>& fn) {
  const double ms = time_ms(fn);
  const double ns = ms * 1e6 / elems;
  std::printf("%-26s %-18s %12.4f %12.3f\n", name.c_str(), shape.c_str(), ms, ns);
  json.add(name, shape, 0.0, ms, 0.0, {{"ns_per_elem", ns}});
}

// GELU forward and backward at the per-rank MLP activation shapes of the
// hostbench workloads — [b·s/q, 4h/q] = 128x512 in train_2d (train_1d's
// [b·s, 4h/p] has the same count), the serial 256x1024, and the decode
// [slots/q, 4h/q] = 4x256 — plus the Adam update over 2^19 elements (about
// one train_2d rank's 1.7 M / 4 parameters). Inputs span both branches of the
// tanh. Baseline rows run on the train_2d shape only.
template <typename T>
void run_elementwise_suite(const char* dtype, JsonWriter& json) {
  const std::string d = dtype;
  std::printf("%-26s %-18s %12s %12s\n", "name", "shape", "wall_ms", "ns/elem");
  for (const auto& [shape, n] : std::vector<std::pair<std::string, index_t>>{
           {"4x256", 4 * 256}, {"128x512", 128 * 512}, {"256x1024", 256 * 1024}}) {
    auto x = random_buffer<T>(n, 5);
    for (auto& v : x) v *= T{4};
    const auto dy = random_buffer<T>(n, 6);
    std::vector<T> y(static_cast<std::size_t>(n));
    const auto elems = static_cast<double>(n);
    record_elementwise(json, "gelu_forward_" + d, shape, elems,
                       [&] { ok::gelu(x.data(), y.data(), n); });
    record_elementwise(json, "gelu_backward_" + d, shape, elems, [&] {
      ok::gelu_backward(x.data(), dy.data(), y.data(), n, /*accumulate=*/false);
    });
    if (shape != "128x512") continue;
    record_elementwise(json, "gelu_forward_libm_" + d, shape, elems, [&] {
      for (index_t i = 0; i < n; ++i) y[i] = gelu_libm(x[i]);
    });
    record_elementwise(json, "gelu_backward_libm_" + d, shape, elems, [&] {
      for (index_t i = 0; i < n; ++i) y[i] = gelu_grad_libm(x[i]) * dy[i];
    });
  }

  const index_t n = index_t{1} << 19;
  auto p = random_buffer<T>(n, 7);
  const auto g = random_buffer<T>(n, 8);
  std::vector<T> m(static_cast<std::size_t>(n), T{0}), v(m);
  const ok::AdamCoefficients<T> c{.beta1 = T(0.9), .one_minus_beta1 = T(1.0 - 0.9),
                                  .beta2 = T(0.999), .one_minus_beta2 = T(1.0 - 0.999),
                                  .bias1 = T(0.1), .bias2 = T(0.001), .eps = T(1e-8),
                                  .weight_decay = T(0), .lr = T(1e-7)};
  const std::string shape = std::to_string(n);
  record_elementwise(json, "adam_update_" + d, shape, static_cast<double>(n), [&] {
    ok::adam_update(p.data(), g.data(), m.data(), v.data(), n, c);
  });
  record_elementwise(json, "adam_scalar_loop_" + d, shape, static_cast<double>(n), [&] {
    for (index_t i = 0; i < n; ++i) {
      m[i] = c.beta1 * m[i] + c.one_minus_beta1 * g[i];
      v[i] = c.beta2 * v[i] + c.one_minus_beta2 * g[i] * g[i];
      const T mhat = m[i] / c.bias1;
      const T vhat = v[i] / c.bias2;
      p[i] -= c.lr * (mhat / (std::sqrt(vhat) + c.eps) + c.weight_decay * p[i]);
    }
  });
  std::printf("\n");
}

}  // namespace

static int run_main() {
  optimus::bench::print_header("Kernel GFLOP/s: naive vs packed vs cooperative shared-pack");
  std::printf("hardware threads: %d, default budget: %d\n\n", ok::hardware_threads(),
              ok::effective_threads());

  JsonWriter json;
  const std::vector<int> threads = {1, 2, 4};

  // f32: square problems (256³ warms caches, 1024³ is the acceptance shape),
  // a transformer forward slab (b·s=2048 rows against h=1024..4096 weights),
  // and a skinny vocab-projection shape.
  std::vector<Problem<float>> f32 = {
      {"256x256x256", 256, 256, 256},
      {"512x512x512", 512, 512, 512},
      {"1024x1024x1024", 1024, 1024, 1024},
      {"2048x1024x1024", 2048, 1024, 1024},
      {"2048x4096x1024", 2048, 4096, 1024},
      {"512x8192x512", 512, 8192, 512},
  };
  run_gemm_suite<float>("f32", f32, threads, json);
  run_rank_shape_suite(json);

  // f64 spot checks: half the SIMD width, same blocking.
  std::vector<Problem<double>> f64 = {
      {"512x512x512", 512, 512, 512},
      {"1024x1024x1024", 1024, 1024, 1024},
  };
  run_gemm_suite<double>("f64", f64, threads, json);

  // MLP h→4h epilogue-fusion comparison on the transformer slab shape.
  run_fusion_suite<float>("f32", 2048, 4096, 1024, 4, json);

  run_elementwise_suite<float>("f32", json);
  run_elementwise_suite<double>("f64", json);

  json.write("BENCH_kernels.json");
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
