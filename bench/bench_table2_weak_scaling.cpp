// E2 — Table 2 and Figure 7 (left): weak scaling, Megatron vs Optimus.
//
// Two evidence layers:
//
//  1. Model-projected at paper scale (h = 2048…8192, b per Table 2,
//     s = 512, N = 24, p ∈ {4, 16, 36, 64}): the machine constants are fitted
//     ONLY to the paper's Megatron rows (perfmodel::calibrate_from_paper), so
//     every Optimus number and every ratio is an out-of-sample prediction.
//     Printed side by side with the paper's measured values.
//
//  2. Real execution at mini scale: the actual threaded engines run with
//     h = 16·q, b = 2·q (weak scaling: per-device work constant) on the
//     simulated cluster with the same calibrated machine; per-step simulated
//     times and weak-scaling efficiencies are reported. This grounds the
//     model: the engines really move those bytes and multiply those scalars.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/scaling.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace opm = optimus::perfmodel;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::util::Table;

void model_projection(const opm::Machine& machine) {
  optimus::bench::print_header(
      "E2 / Table 2 — weak scaling at paper scale (model-projected vs paper-measured)");
  Table t({"scheme", "GPUs", "b", "h", "fwd/seq model", "fwd/seq paper", "bwd/seq model",
           "bwd/seq paper", "thr model", "thr paper", "inf model", "inf paper"});
  for (const auto scheme : {opm::Scheme::kMegatron, opm::Scheme::kOptimus}) {
    const auto& rows = scheme == opm::Scheme::kMegatron ? opm::paper_weak_megatron()
                                                        : opm::paper_weak_optimus();
    for (const auto& row : rows) {
      const opm::Workload w = opm::weak_scaling_workload(row.gpus, scheme);
      const opm::StepTime st = scheme == opm::Scheme::kMegatron
                                   ? opm::megatron_step_time(w, row.gpus, machine)
                                   : opm::optimus_step_time(w, row.gpus, machine);
      const double b = static_cast<double>(w.b);
      t.add_row({scheme == opm::Scheme::kMegatron ? "Megatron" : "Optimus",
                 std::to_string(row.gpus), std::to_string(w.b), std::to_string(w.h),
                 Table::fmt(st.fwd_s / b), Table::fmt(row.fwd_per_seq_s),
                 Table::fmt(st.bwd_s / b), Table::fmt(row.bwd_per_seq_s),
                 Table::fmt(b / st.total()), Table::fmt(row.throughput),
                 Table::fmt(b / st.fwd_s), Table::fmt(row.inference)});
    }
  }
  t.print(std::cout);

  // Headline ratios at 64 GPUs (paper: 1.48× training, 1.79× inference).
  const opm::Workload wm = opm::weak_scaling_workload(64, opm::Scheme::kMegatron);
  const opm::Workload wo = opm::weak_scaling_workload(64, opm::Scheme::kOptimus);
  const opm::StepTime tm = opm::megatron_step_time(wm, 64, machine);
  const opm::StepTime to = opm::optimus_step_time(wo, 64, machine);
  std::cout << "\n64-GPU Optimus/Megatron ratios: training "
            << Table::fmt((wo.b / to.total()) / (wm.b / tm.total()), 3) << " (paper 1.482), "
            << "inference " << Table::fmt((wo.b / to.fwd_s) / (wm.b / tm.fwd_s), 3)
            << " (paper 1.791)\n";
}

void fig7_left(const opm::Machine& machine) {
  optimus::bench::print_header("E2 / Figure 7 (left) — weak scaling efficiency (model)");
  Table t({"GPUs", "Megatron E", "Optimus E"});
  for (int p : {4, 16, 36, 64}) {
    const opm::Workload wm = opm::weak_scaling_workload(p, opm::Scheme::kMegatron);
    const opm::Workload wo = opm::weak_scaling_workload(p, opm::Scheme::kOptimus);
    t.add_row({std::to_string(p),
               Table::fmt(opm::efficiency(opm::Scheme::kMegatron, wm, p, machine)),
               Table::fmt(opm::efficiency(opm::Scheme::kOptimus, wo, p, machine))});
  }
  t.print(std::cout);
}

// 1 − compute / sim_time of the slowest rank: the share of its step spent
// moving data, waiting on peers or idle. The utilization buckets partition
// sim_time, so this lies in [0, 1]; max_comm_time() does not bound it, since
// it sums nominal collective durations that pipelining partly hides.
double non_compute_fraction(const oc::Cluster::Report& report) {
  const auto slowest = std::max_element(
      report.ranks.begin(), report.ranks.end(),
      [](const auto& a, const auto& b) { return a.sim_time < b.sim_time; });
  const double f = 1.0 - slowest->util.compute / std::max(slowest->sim_time, 1e-300);
  OPT_CHECK(f >= 0.0 && f <= 1.0, "non-compute fraction " << f << " outside [0, 1]");
  return f;
}

void real_mini_runs(const opm::Machine& machine) {
  optimus::bench::print_header(
      "E2 — real threaded runs at mini scale (h = 16q, b = 2q, s = 16, N = 2)");
  Table t({"scheme", "GPUs", "h", "b", "sim step time (s)", "nominal comm (s)",
           "non-compute fraction"});
  for (int p : {1, 4, 16, 36, 64}) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    const int qe = std::max(q, 1);
    const auto cfg = make_config(2 * qe, 16, 16 * qe, qe, 8 * qe, 2);
    ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 5);
    const auto batch = workload.next();

    // Optimus run.
    {
      oc::Topology topo(p, machine.gpus_per_node, oc::Arrangement::kBunched, qe);
      oc::Cluster cluster(p, topo, machine.to_comm_params());
      auto report = cluster.run([&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> engine(cfg, mesh);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      });
      const double tp = report.max_sim_time();
      t.add_row({"Optimus", std::to_string(p), std::to_string(cfg.hidden),
                 std::to_string(cfg.batch), Table::fmt(tp, 6),
                 Table::fmt(report.max_comm_time(), 6),
                 Table::fmt(non_compute_fraction(report), 4)});
    }
    // Megatron run (needs heads % p == 0 → heads = p at mini scale).
    if (p <= 16) {
      auto mcfg = make_config(2 * qe, 16, 16 * std::max(p / 4, 1) * 4, p, 8 * p, 2);
      mcfg.heads = p;
      mcfg.hidden = 16 * p;  // keep head_dim fixed at 16
      oc::Topology topo(p, machine.gpus_per_node, oc::Arrangement::kNaive, 0);
      oc::Cluster cluster(p, topo, machine.to_comm_params());
      ort::RandomLmWorkload mworkload(mcfg.batch, mcfg.seq_len, mcfg.vocab, 5);
      const auto mbatch = mworkload.next();
      auto report = cluster.run([&](oc::Context& ctx) {
        optimus::megatron::MegatronTransformer<float> engine(mcfg, ctx.world);
        engine.forward(mbatch.tokens);
        (void)engine.lm_loss(mbatch.labels);
        engine.backward_lm();
      });
      const double tp = report.max_sim_time();
      t.add_row({"Megatron", std::to_string(p), std::to_string(mcfg.hidden),
                 std::to_string(mcfg.batch), Table::fmt(tp, 6),
                 Table::fmt(report.max_comm_time(), 6),
                 Table::fmt(non_compute_fraction(report), 4)});
    }
  }
  t.print(std::cout);
  std::cout << "\n(At mini scale communication dominates — the isoefficiency point: a tiny\n"
               "problem cannot keep large p efficient. The paper-scale projection above is\n"
               "the Table-2 reproduction.)\n";
  std::cout << "\n(Megatron mini rows stop at p = 16: its per-device activation replication\n"
               "and one OS thread per simulated device make larger p needlessly slow on a\n"
               "host with few cores; the model projection above covers the full range.)\n";
}

}  // namespace

static int run_main() {
  const opm::Machine machine = opm::calibrate_from_paper();
  std::cout << "calibrated machine: flop_rate=" << machine.flop_rate
            << " mult/s, beta_intra=" << machine.beta_intra
            << " s/scalar, beta_inter=" << machine.beta_inter
            << " s/scalar, bwd_overhead=" << machine.bwd_overhead << "\n";
  model_projection(machine);
  fig7_left(machine);
  real_mini_runs(machine);
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
