// E11 — Mixture-of-Experts scaling (paper §6 future work).
//
// Quantifies the communication the paper says future work should streamline:
//
//  (1) all_to_all dispatch volume per device of the expert-parallel Switch
//      FFN vs the SUMMA volume of the dense Optimus MLP it would replace, at
//      matched hidden sizes — per device and per token.
//  (2) Capacity-factor sweep: dropped-token fraction vs capacity, the routing
//      regularity/quality trade Switch makes.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "model/moe.hpp"
#include "perfmodel/costs.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace opm = optimus::perfmodel;
namespace ot = optimus::tensor;
using optimus::util::Table;

}  // namespace

static int run_main() {
  optimus::bench::print_header(
      "E11 — expert-parallel all_to_all vs dense SUMMA MLP (per device, fwd+bwd)");
  Table t({"p", "tokens/rank", "h", "MoE a2a elems", "dense SUMMA elems (weighted)",
           "MoE/dense"});
  for (int p : {4, 16}) {
    const ot::index_t tokens = 64;
    const ot::index_t h = 32;
    om::MoeConfig cfg;
    cfg.hidden = h;
    cfg.ffn_hidden = 4 * h;
    cfg.num_experts = 2 * p;
    cfg.capacity_factor = 2.0;
    auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
      om::ExpertParallelSwitchFfn<float> moe(cfg, ctx.world);
      optimus::util::Rng rng(2000 + ctx.rank);
      ot::Tensor x(ot::Shape{tokens, h});
      for (ot::index_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(rng.uniform(-1, 1));
      }
      ot::Tensor y = moe.forward(x);
      ot::Tensor dy = ot::Tensor::full(y.shape(), 1.0f);
      (void)moe.backward(dy);
    });
    const double moe_elems = static_cast<double>(report.ranks[0].stats.alltoall.weighted);
    // The dense MLP the MoE replaces: Optimus's two SUMMA products on the
    // same tokens (Table-1 MLP terms: 5bsh + 8h² forward, 3× with backward —
    // use the closed forms with b·s = tokens·p).
    opm::Workload w;
    w.b = tokens * p;
    w.s = 1;
    w.h = h;
    w.layers = 1;
    const double lg = std::log2(std::sqrt(static_cast<double>(p)));
    const double sp = std::sqrt(static_cast<double>(p));
    const double bsh = static_cast<double>(w.b) * w.h;
    const double dense = lg / sp * ((5.0 * bsh + 8.0 * h * h) +   // fwd MLP terms
                                    (2.0 * (5.0 * bsh + 8.0 * h * h) +  // recompute+bwd
                                     0.0));
    t.add_row({std::to_string(p), std::to_string(tokens), std::to_string(h),
               Table::fmt(moe_elems, 0), Table::fmt(dense, 0),
               Table::fmt(moe_elems / std::max(dense, 1.0), 3)});
  }
  t.print(std::cout);
  std::cout << "\n(The MoE moves activations to weights; the dense layer broadcasts weight\n"
               "and activation blocks. Which wins depends on h and tokens — the paper's\n"
               "future-work §6 asks exactly for streamlining this exchange.)\n";

  optimus::bench::print_header("E11 — capacity factor vs dropped tokens (p = 4)");
  Table c({"capacity factor", "capacity slots", "dropped fraction", "aux loss"});
  for (double cf : {0.5, 1.0, 1.5, 2.0, 4.0}) {
    om::MoeConfig cfg;
    cfg.hidden = 16;
    cfg.ffn_hidden = 32;
    cfg.num_experts = 8;
    cfg.capacity_factor = cf;
    const ot::index_t tokens = 64;
    double dropped = 0, aux = 0;
    ot::index_t cap = 0;
    oc::run_cluster(4, [&](oc::Context& ctx) {
      om::ExpertParallelSwitchFfn<float> moe(cfg, ctx.world);
      optimus::util::Rng rng(3000 + ctx.rank);
      ot::Tensor x(ot::Shape{tokens, cfg.hidden});
      for (ot::index_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(rng.uniform(-1, 1));
      }
      (void)moe.forward(x);
      if (ctx.rank == 0) {
        dropped = static_cast<double>(moe.dropped()) / tokens;
        aux = moe.aux_loss();
        cap = moe.capacity();
      }
    });
    c.add_row({Table::fmt(cf, 2), std::to_string(cap), Table::fmt(dropped, 3),
               Table::fmt(aux, 4)});
  }
  c.print(std::cout);
  std::cout << "\nHigher capacity ⇒ fewer drops but more padded compute and a bigger\n"
               "all_to_all — the standard Switch Transformer dial.\n";
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
