// E10 — ablations of the paper's §6 / §3.2.3 extension methods, implemented
// in this repository beyond the headline system:
//
//   * fused attention (§6 "operation fusion"): the [b/q, n/q, s, s]
//     probabilities are never materialised — per-device peak memory drops,
//     backward recomputes them (extra bs²h/p multiplies);
//   * fused update (§3.2.3 method 2): parameters update immediately after
//     each layer's backward and the gradient buffer is shared — the
//     parameter-gradient footprint becomes one layer deep;
//   * Cannon's algorithm (§2.4) vs SUMMA: communication pattern comparison
//     (point-to-point shifts vs broadcasts) on the same product.

#include <cmath>
#include <iostream>
#include <mutex>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace ocore = optimus::core;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::util::Table;

struct StepStats {
  std::uint64_t peak = 0;
  std::uint64_t mults = 0;
};

StepStats run_step(const optimus::model::TransformerConfig& cfg,
                   const ocore::OptimusOptions& opts, const ort::LmBatch& batch) {
  auto report = oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusTransformer<float> engine(cfg, mesh, opts);
    engine.forward(batch.tokens);
    (void)engine.lm_loss(batch.labels);
    if (opts.fused_update) {
      engine.backward_lm_fused_update(0.01);
    } else {
      engine.zero_grads();
      engine.backward_lm();
    }
  });
  return {report.max_peak_bytes(), report.ranks[0].mults};
}

}  // namespace

static int run_main() {
  optimus::bench::print_header(
      "E10 — fusion ablations (Optimus q = 2, b = 8, s = 24, h = 32, N = 6)");
  const auto cfg = make_config(8, 24, 32, 4, 32, 6);
  ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 21);
  const auto batch = workload.next();

  Table t({"variant", "peak bytes/device", "vs baseline", "mults/device", "mult overhead"});
  ocore::OptimusOptions base;
  const StepStats s0 = run_step(cfg, base, batch);
  const auto row = [&](const char* name, const StepStats& s) {
    t.add_row({name, std::to_string(s.peak),
               Table::fmt(static_cast<double>(s.peak) / s0.peak, 3), std::to_string(s.mults),
               Table::fmt(static_cast<double>(s.mults) / s0.mults, 3)});
  };
  row("baseline (§3.2.3 arenas)", s0);
  {
    ocore::OptimusOptions o = base;
    o.fuse_attention = true;
    row("+ fused attention (§6)", run_step(cfg, o, batch));
  }
  {
    ocore::OptimusOptions o = base;
    o.fused_update = true;
    row("+ fused update (§3.2.3-2)", run_step(cfg, o, batch));
  }
  {
    ocore::OptimusOptions o = base;
    o.fuse_attention = true;
    o.fused_update = true;
    row("+ both", run_step(cfg, o, batch));
  }
  t.print(std::cout);
  std::cout << "\nFused attention trades ~bs^2h/p recompute multiplies for the b*n*s^2/p\n"
               "probability tensor; fused update shrinks parameter-gradient memory from\n"
               "N layers to 1. Both preserve numerics bit-for-bit (tests/extensions_test).\n";

  optimus::bench::print_header("E10 — Cannon vs SUMMA on the same C = A*B (per device)");
  Table c({"q", "algorithm", "bcast calls", "bcast elems", "p2p msgs", "p2p bytes",
           "sim comm (s)"});
  for (int q : {2, 4}) {
    const optimus::tensor::index_t n = 24 * q;
    optimus::util::Rng rng(5);
    optimus::tensor::Tensor A(optimus::tensor::Shape{n, n});
    optimus::tensor::Tensor B(optimus::tensor::Shape{n, n});
    for (optimus::tensor::index_t i = 0; i < A.numel(); ++i) {
      A[i] = static_cast<float>(rng.uniform(-1, 1));
      B[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    for (const bool cannon : {false, true}) {
      auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        auto a = optimus::tensor::matrix_block(A, q, mesh.row(), mesh.col());
        auto b = optimus::tensor::matrix_block(B, q, mesh.row(), mesh.col());
        optimus::tensor::Tensor out =
            optimus::tensor::Tensor::zeros(optimus::tensor::Shape{n / q, n / q});
        if (cannon) {
          optimus::summa::cannon_ab(mesh, a, b, out);
        } else {
          optimus::summa::summa_ab(mesh, a, b, out);
        }
      });
      const auto& st = report.ranks[0].stats;
      c.add_row({std::to_string(q), cannon ? "Cannon" : "SUMMA",
                 std::to_string(st.broadcast.calls), std::to_string(st.broadcast.elems),
                 std::to_string(st.p2p_messages), std::to_string(st.p2p_bytes),
                 Table::fmt(report.max_comm_time(), 6)});
    }
  }
  c.print(std::cout);
  std::cout << "\nCannon moves 2(q-1) block shifts per operand with no log factor but\n"
               "requires the torus alignment and equal block shapes; SUMMA's broadcasts\n"
               "generalise to the rectangular and transposed products training needs —\n"
               "the paper's reason for building Optimus on SUMMA.\n";
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
