// E4 — Figure 9: memory limits (max batch size per device count).
//
// Binary-searches the largest global batch each scheme can run under a fixed
// per-device memory budget (16 GB, the Quadro RTX 5000) at the paper's
// weak-scaling dimensions, using the memory model that
// tests/perfmodel_test.cpp pins to the real allocator's measured peaks.
// The paper's Figure-9 signature: Optimus's limit GROWS with p (activations
// fully distributed) while Megatron's SHRINKS (activations replicated while
// h grows), with an 8× gap at 64 GPUs (b = 480 vs 60 total).
//
// A second table validates the model against the real engines' measured peak
// bytes at mini scale, and a third reproduces the b(max-ok)/b(first-fail)
// bracketing the paper's figure labels use.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/memory.hpp"
#include "perfmodel/scaling.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace opm = optimus::perfmodel;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::util::Table;

void paper_scale(std::uint64_t budget) {
  optimus::bench::print_header("E4 / Figure 9 — max global batch under a 16 GB/device budget");
  Table t({"GPUs", "h", "Megatron b_max", "Optimus b_max", "Optimus/Megatron"});
  for (int p : {4, 16, 36, 64}) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    opm::Workload wm = opm::weak_scaling_workload(p, opm::Scheme::kMegatron);
    opm::Workload wo = opm::weak_scaling_workload(p, opm::Scheme::kOptimus);
    const auto bm = opm::max_batch(opm::Scheme::kMegatron, wm, p, budget);
    const auto bo = opm::max_batch(opm::Scheme::kOptimus, wo, p, budget, q);
    t.add_row({std::to_string(p), std::to_string(wm.h), std::to_string(bm),
               std::to_string(bo),
               Table::fmt(static_cast<double>(bo) / std::max<long long>(bm, 1), 2)});
  }
  t.print(std::cout);
  std::cout << "\nPaper: Megatron's limit falls with p while Optimus's rises, reaching\n"
               "b = 480 (whole activations 7.5 GB) and an 8x gap at 64 GPUs.\n";
}

void bracket_table(std::uint64_t budget) {
  optimus::bench::print_header(
      "E4 / Figure 9 — runnable(failing) batch brackets, Optimus granularity q");
  Table t({"GPUs", "Megatron ok(fail)", "Optimus ok(fail)"});
  for (int p : {4, 16, 36, 64}) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    opm::Workload wm = opm::weak_scaling_workload(p, opm::Scheme::kMegatron);
    opm::Workload wo = opm::weak_scaling_workload(p, opm::Scheme::kOptimus);
    const auto bm = opm::max_batch(opm::Scheme::kMegatron, wm, p, budget);
    const auto bo = opm::max_batch(opm::Scheme::kOptimus, wo, p, budget, q);
    t.add_row({std::to_string(p),
               std::to_string(bm) + "(" + std::to_string(bm + 1) + ")",
               std::to_string(bo) + "(" + std::to_string(bo + q) + ")"});
  }
  t.print(std::cout);
}

void mini_validation() {
  optimus::bench::print_header(
      "E4 — memory model vs real allocator peaks (mini scale, one train step)");
  Table t({"scheme", "p", "b", "h", "modelled bytes", "measured peak", "ratio"});
  for (const auto& [p, b, h] : std::vector<std::array<int, 3>>{{4, 8, 32}, {4, 16, 48}}) {
    const int q = 2;
    const auto cfg = make_config(b, 16, h, 4, 32, 2);
    ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 5);
    const auto batch = workload.next();
    // Optimus.
    {
      auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> engine(cfg, mesh);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      });
      const auto mem = opm::optimus_memory(optimus::bench::to_workload(cfg), q * q);
      t.add_row({"Optimus", std::to_string(p), std::to_string(b), std::to_string(h),
                 std::to_string(mem.total()), std::to_string(report.max_peak_bytes()),
                 Table::fmt(static_cast<double>(mem.total()) / report.max_peak_bytes(), 3)});
    }
    // Megatron.
    {
      auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
        optimus::megatron::MegatronTransformer<float> engine(cfg, ctx.world);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      });
      const auto mem = opm::megatron_memory(optimus::bench::to_workload(cfg), p);
      t.add_row({"Megatron", std::to_string(p), std::to_string(b), std::to_string(h),
                 std::to_string(mem.total()), std::to_string(report.max_peak_bytes()),
                 Table::fmt(static_cast<double>(mem.total()) / report.max_peak_bytes(), 3)});
    }
  }
  t.print(std::cout);
}

}  // namespace

static int run_main() {
  const std::uint64_t budget = 16ull << 30;
  paper_scale(budget);
  bracket_table(budget);
  mini_validation();
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
