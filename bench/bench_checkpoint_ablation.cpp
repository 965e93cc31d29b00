// E9 — §3.1.1 ablation: activation checkpointing and the p > N/3 bottleneck.
//
// (1) Real engine: peak bytes and executed multiplications with checkpointing
//     on vs off, across layer counts. Checkpointing trades ~4/3 forward
//     recompute for activation memory that no longer grows with N.
// (2) The paper's §3.1.1 observation, via the memory model: with per-device
//     parameters held constant (h ∝ √p), the per-layer working set of
//     Megatron (≥ 3bsh, replicated) overtakes the distributed checkpoint
//     buffer once p > N/3 — while Optimus's working set shrinks ∝ 1/p.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/memory.hpp"
#include "perfmodel/scaling.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace ocore = optimus::core;
namespace opm = optimus::perfmodel;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::util::Table;

}  // namespace

static int run_main() {
  optimus::bench::print_header(
      "E9 — checkpointing ablation (Optimus, q = 2, one training step)");
  Table t({"layers", "checkpoint", "peak bytes/device", "mults/device", "recompute factor"});
  for (int layers : {2, 4, 8}) {
    std::uint64_t mults_off = 0;
    for (bool checkpoint : {false, true}) {
      const auto cfg = make_config(8, 16, 32, 4, 32, layers);
      ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 13);
      const auto batch = workload.next();
      auto report = oc::run_cluster(4, [&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        ocore::OptimusOptions opts;
        opts.checkpoint = checkpoint;
        opts.buffers = checkpoint ? ocore::BufferMode::kPooled : ocore::BufferMode::kHeap;
        ocore::OptimusTransformer<float> engine(cfg, mesh, opts);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      });
      const std::uint64_t mults = report.ranks[0].mults;
      if (!checkpoint) mults_off = mults;
      t.add_row({std::to_string(layers), checkpoint ? "on" : "off",
                 std::to_string(report.max_peak_bytes()), std::to_string(mults),
                 checkpoint ? Table::fmt(static_cast<double>(mults) / mults_off, 3) : "1.000"});
    }
  }
  t.print(std::cout);

  optimus::bench::print_header(
      "E9 / §3.1.1 — working set vs checkpoint buffer (model, N = 24, params/device fixed)");
  Table b({"GPUs", "Megatron ckpt buf (GB)", "Megatron working (GB)", "working dominates?",
           "Optimus working (GB)"});
  for (int p : {4, 8, 16, 32, 64}) {
    // h ∝ √p keeps parameters per device constant; b from the paper's table
    // shape (scaled between rows where needed).
    opm::Workload w;
    w.h = static_cast<long long>(1024 * std::sqrt(static_cast<double>(p)));
    w.b = 60;
    w.s = 512;
    w.layers = 24;
    const double gb = 1024.0 * 1024 * 1024;
    // §3.1.1's two Megatron terms: distributed checkpoints N·bsh/p vs the
    // replicated per-layer working set ≥ 3bsh.
    const double ckpt = static_cast<double>(w.layers) * w.b * w.s * w.h * 4 / p / gb;
    const double working = 3.0 * static_cast<double>(w.b) * w.s * w.h * 4 / gb;
    const double optimus_working =
        3.0 * static_cast<double>(w.b) * w.s * w.h * 4 / p / gb;
    b.add_row({std::to_string(p), Table::fmt(ckpt, 3), Table::fmt(working, 3),
               working > ckpt ? (p > w.layers / 3 ? "yes (p > N/3)" : "yes") : "no",
               Table::fmt(optimus_working, 3)});
  }
  b.print(std::cout);
  std::cout << "\nWith N = 24, the crossover lands at p = N/3 = 8, exactly the paper's\n"
               "§3.1.1 argument for why activations must be distributed, not replicated.\n";
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
