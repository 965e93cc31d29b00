// E6 — SUMMA kernel benchmarks (google-benchmark).
//
// Two families:
//  * Gemm/...      — the local blocked GEMM in all transpose forms (host wall
//                    time; the compute substrate under everything else).
//  * Summa/...     — distributed SUMMA products on a q×q simulated mesh.
//                    Wall time on this single-core host measures simulation
//                    overhead, so the counters that matter — simulated
//                    communication seconds and β-weighted volume per device —
//                    are exported.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "mesh/mesh.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::Shape;
using ot::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  Tensor t(shape);
  for (ot::index_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return t;
}

void BM_GemmNN(benchmark::State& state) {
  const ot::index_t n = state.range(0);
  Tensor A = random_tensor(Shape{n, n}, 1);
  Tensor B = random_tensor(Shape{n, n}, 2);
  Tensor C(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(C, A, B);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const ot::index_t n = state.range(0);
  Tensor A = random_tensor(Shape{n, n}, 1);
  Tensor B = random_tensor(Shape{n, n}, 2);
  Tensor C(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(C, A, B, ops::Trans::No, ops::Trans::Yes);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const ot::index_t n = state.range(0);
  Tensor A = random_tensor(Shape{n, n}, 1);
  Tensor B = random_tensor(Shape{n, n}, 2);
  Tensor C(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(C, A, B, ops::Trans::Yes, ops::Trans::No);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256);

// Distributed SUMMA: global n×n product on a q×q mesh, under the blocking or
// the pipelined (overlapped) schedule. Counters report the per-device
// simulated times — sim_step_s is the critical path the overlap shortens.
template <int kForm, bool kPipelined>  // 0 = AB, 1 = ABt, 2 = AtB
void BM_Summa(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const ot::index_t n = state.range(1);
  const int p = q * q;
  Tensor A_global = random_tensor(Shape{n, n}, 3);
  Tensor B_global = random_tensor(Shape{n, n}, 4);

  optimus::summa::PipelineGuard guard(kPipelined);
  double sim_step = 0, sim_comm = 0, weighted = 0;
  std::uint64_t calls = 0;
  for (auto _ : state) {
    auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      Tensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
      Tensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
      Tensor C = Tensor::zeros(Shape{n / q, n / q});
      if constexpr (kForm == 0) {
        optimus::summa::summa_ab(mesh, A, B, C);
      } else if constexpr (kForm == 1) {
        optimus::summa::summa_abt(mesh, A, B, C);
      } else {
        optimus::summa::summa_atb(mesh, A, B, C);
      }
      benchmark::DoNotOptimize(C.data());
    });
    sim_step += report.max_sim_time();
    sim_comm += report.max_comm_time();
    weighted += report.ranks[0].stats.total_weighted();
    ++calls;
  }
  state.counters["sim_step_s"] = sim_step / calls;
  state.counters["sim_comm_s"] = sim_comm / calls;
  state.counters["weighted_scalars_per_dev"] = weighted / calls;
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
#define SUMMA_BENCH(form)                                                        \
  BENCHMARK(BM_Summa<form, false>)->Args({2, 96})->Args({4, 96});                \
  BENCHMARK(BM_Summa<form, true>)->Args({2, 96})->Args({4, 96})
BENCHMARK(BM_Summa<0, false>)->Args({1, 96})->Args({3, 96});
SUMMA_BENCH(0);
SUMMA_BENCH(1);
SUMMA_BENCH(2);
#undef SUMMA_BENCH

// Manual sweep mirroring BM_Summa<0> that lands in BENCH_summa.json so SUMMA
// perf is tracked across commits alongside BENCH_kernels.json. wall_ms is
// host time for the whole simulated cluster step; sim_ms is the simulated
// per-device critical path (max over ranks).
void write_summa_json() {
  optimus::bench::JsonWriter json;
  const ot::index_t n = 96;
  Tensor A_global = random_tensor(Shape{n, n}, 3);
  Tensor B_global = random_tensor(Shape{n, n}, 4);
  struct ModeResult {
    double wall_ms = 0, sim_ms = 0;
    oc::Cluster::Report report;
  };
  // kind 0 = SUMMA (2D when d == 1, 2.5D otherwise), 1 = Cannon baseline.
  const auto run_mode = [&](int q, int d, bool pipelined, int kind = 0) {
    const int p = q * q * d;
    optimus::summa::PipelineGuard guard(pipelined);
    ModeResult r;
    const int reps = 3;
    for (int i = 0; i < reps; ++i) {
      optimus::util::Stopwatch sw;
      auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world, d);
        Tensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
        Tensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
        Tensor C = Tensor::zeros(Shape{n / q, n / q});
        if (kind == 0) {
          optimus::summa::summa_ab(mesh, A, B, C);
        } else {
          optimus::summa::cannon_ab(mesh, A, B, C);
        }
        benchmark::DoNotOptimize(C.data());
      });
      r.wall_ms += sw.elapsed_s() * 1000.0;
      r.sim_ms += report.max_sim_time() * 1000.0;
      r.report = report;
    }
    r.wall_ms /= reps;
    r.sim_ms /= reps;
    return r;
  };
  const auto add_row = [&](const std::string& name, const ModeResult& r,
                           double overlap_efficiency) {
    const double gflops = 2.0 * n * n * n / (r.wall_ms * 1e-3) / 1e9;
    // Per-device collective traffic is identical across reps (the schedule is
    // deterministic), so the last report's rank-0 stats are representative.
    const auto& st = r.report.ranks[0].stats;
    json.add(name, std::to_string(n) + "x" + std::to_string(n) + "x" + std::to_string(n),
             gflops, r.wall_ms, r.sim_ms,
             {{"bcast_bytes_per_dev", static_cast<double>(st.broadcast.bytes)},
              {"reduce_bytes_per_dev", static_cast<double>(st.reduce.bytes)},
              {"weighted_scalars_per_dev", st.total_weighted()},
              {"comm_sim_ms", r.report.max_comm_time() * 1000.0},
              {"overlap_efficiency", overlap_efficiency}});
  };
  for (int q : {1, 2, 4}) {
    const ModeResult blocking = run_mode(q, 1, false);
    add_row("summa_ab_q" + std::to_string(q), blocking, 0.0);
    if (q > 1) {
      // Pipelined rows ride next to the blocking baselines they are compared
      // against; overlap_efficiency is the fraction of the blocking critical
      // path hidden by the async schedule.
      const ModeResult pipelined = run_mode(q, 1, true);
      const double eff = (blocking.sim_ms - pipelined.sim_ms) / blocking.sim_ms;
      add_row("summa_ab_q" + std::to_string(q) + "_pipelined", pipelined, eff);
    }
  }
  // 2.5D (Tesseract) crossover sweep vs both baselines. The q2d4 rows use the
  // same 16 devices as the q4 2D rows above and the Cannon row below, so the
  // sim_ms columns line up as an equal-p crossover table (EXPERIMENTS.md);
  // q2d2 tracks the small-depth point at p = 8.
  for (const auto& [q, d] : {std::pair<int, int>{2, 2}, {2, 4}}) {
    const std::string base = "summa25_ab_q" + std::to_string(q) + "d" + std::to_string(d);
    const ModeResult blocking = run_mode(q, d, false);
    add_row(base, blocking, 0.0);
    const ModeResult pipelined = run_mode(q, d, true);
    const double eff = (blocking.sim_ms - pipelined.sim_ms) / blocking.sim_ms;
    add_row(base + "_pipelined", pipelined, eff);
  }
  add_row("cannon_ab_q4", run_mode(4, 1, false, /*kind=*/1), 0.0);
  json.write("BENCH_summa.json");
}

}  // namespace

static int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_summa_json();
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
