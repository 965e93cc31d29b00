// E7 — Figure 8: GPU arrangement (naive vs bunched node packing).
//
// Runs the same Optimus training step on two topologies of the identical
// q×q mesh: naive row-major packing (a mesh row per node; columns touch every
// node, one member each, so all q column collectives fight for each node's
// uplink) and the paper's bunched packing (square mesh tiles per node).
// The simulated communication time and the modelled effective β per direction
// quantify Fig. 8's claim.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/scaling.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace opm = optimus::perfmodel;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::util::Table;

}  // namespace

static int run_main() {
  const opm::Machine machine = opm::calibrate_from_paper();

  optimus::bench::print_header("E7 / Figure 8 — modelled effective beta per mesh direction");
  Table bt({"GPUs", "arrangement", "row-group beta_eff", "col-group beta_eff"});
  for (int p : {16, 64}) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    for (auto arr : {oc::Arrangement::kNaive, oc::Arrangement::kBunched}) {
      oc::Topology topo(p, machine.gpus_per_node, arr, q);
      oc::CostModel cost(topo, machine.to_comm_params());
      std::vector<int> row(q), col(q);
      for (int i = 0; i < q; ++i) {
        row[i] = i;
        col[i] = i * q;
      }
      bt.add_row({std::to_string(p), arr == oc::Arrangement::kNaive ? "naive" : "bunched",
                  Table::fmt(cost.beta_eff(row) * 4, 12),  // per fp32 scalar
                  Table::fmt(cost.beta_eff(col) * 4, 12)});
    }
  }
  bt.print(std::cout);

  optimus::bench::print_header(
      "E7 — real Optimus step, simulated comm time under each arrangement");
  Table t({"GPUs", "arrangement", "sim comm time (s)", "sim step time (s)", "naive/bunched"});
  for (int p : {16, 36}) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    const auto cfg = make_config(4 * q, 32, 64 * q, q, 8 * q, 2);
    ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 5);
    const auto batch = workload.next();
    double comm_naive = 0;
    for (auto arr : {oc::Arrangement::kNaive, oc::Arrangement::kBunched}) {
      oc::Topology topo(p, machine.gpus_per_node, arr, q);
      oc::Cluster cluster(p, topo, machine.to_comm_params());
      auto report = cluster.run([&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> engine(cfg, mesh);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      });
      const double comm = report.max_comm_time();
      if (arr == oc::Arrangement::kNaive) comm_naive = comm;
      t.add_row({std::to_string(p), arr == oc::Arrangement::kNaive ? "naive" : "bunched",
                 Table::fmt(comm, 6), Table::fmt(report.max_sim_time(), 6),
                 arr == oc::Arrangement::kNaive ? "-" : Table::fmt(comm_naive / comm, 3)});
    }
  }
  t.print(std::cout);
  std::cout << "\nBunched tiles keep square sub-blocks of the mesh on one node, cutting the\n"
               "uplink contention of column collectives (Fig. 8b vs 8a).\n";
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
