// E1 — Table 1: communication and computation cost formulas.
//
// Runs one forward + backward (with activation checkpointing) of a single
// transformer layer through BOTH real engines at several (b, s, h, p),
// counts the actual β-weighted scalars each device moved (CommStats) and the
// actual scalar multiplications each device executed, and compares them to
// the paper's closed forms. Megatron's counts must match exactly; Optimus's
// SUMMA terms match exactly once the small "non-SUMMA" terms the paper calls
// negligible (bias/γβ-slice broadcasts, their gradient reductions, layernorm
// statistics) are listed — the bench prints them separately so the
// "negligible" claim itself is quantified.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/costs.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace opm = optimus::perfmodel;
namespace ort = optimus::runtime;
using optimus::bench::make_config;
using optimus::bench::to_workload;
using optimus::util::Table;

struct Case {
  int p;
  optimus::tensor::index_t b, s, h;
};

// Stem-only pass: forward + backward from a synthetic output gradient, so the
// measured counts contain exactly the Table-1 terms (no embedding / lm-head).
// We use the full engines but subtract the separately-measured embedding and
// head terms instead — simpler and it also validates those pieces.
void run_megatron(const Case& c, Table& table) {
  const auto cfg = make_config(c.b, c.s, c.h, /*n=*/c.p, /*v=*/4 * c.p, /*layers=*/1);
  ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 7);
  const auto batch = workload.next();

  auto report = oc::run_cluster(c.p, [&](oc::Context& ctx) {
    optimus::megatron::MegatronTransformer<float> engine(cfg, ctx.world);
    engine.forward(batch.tokens);
    (void)engine.lm_loss(batch.labels);
    engine.backward_lm();
  });
  const auto& st = report.ranks[0].stats;
  const opm::Workload w = to_workload(cfg);
  const double predicted =
      cfg.layers * (opm::megatron_fwd_comm(w, c.p) + opm::megatron_bwd_comm(w, c.p));
  // Extra-to-Table-1 terms: embedding assembly + lm-head dX + CE statistics.
  const double ar = c.p > 1 ? 2.0 * (c.p - 1) / c.p : 0.0;
  const double extras =
      ar * (2.0 * static_cast<double>(cfg.batch * cfg.seq_len * cfg.hidden) +
            3.0 * static_cast<double>(cfg.batch * cfg.seq_len));
  const double measured_stem = st.allreduce.weighted - extras;
  table.add_row({"Megatron", std::to_string(c.p), std::to_string(c.b), std::to_string(c.s),
                 std::to_string(c.h), Table::fmt(predicted, 0), Table::fmt(measured_stem, 0),
                 Table::fmt(measured_stem / std::max(predicted, 1.0), 4),
                 Table::fmt(extras, 0)});
}

void run_optimus(const Case& c, Table& table) {
  const int q = static_cast<int>(std::lround(std::sqrt(c.p)));
  const auto cfg = make_config(c.b, c.s, c.h, /*n=*/std::max(q, 2) == q ? q : 2 * q,
                               /*v=*/4 * q, /*layers=*/1);
  ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 7);
  const auto batch = workload.next();

  auto report = oc::run_cluster(c.p, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> engine(cfg, mesh);
    engine.forward(batch.tokens);
    (void)engine.lm_loss(batch.labels);
    engine.backward_lm();
  });
  const auto& st = report.ranks[0].stats;
  const opm::Workload w = to_workload(cfg);
  const double predicted =
      cfg.layers * (opm::optimus_fwd_comm(w, c.p) + opm::optimus_bwd_comm(w, c.p));

  // Exact accounting of the non-Table-1 broadcast/reduce terms (hosted-slice
  // traffic, lm-head SUMMA calls, embedding) — see tests/perfmodel_test.cpp
  // for the line-by-line derivation.
  const double lg = std::log2(static_cast<double>(q));
  const double hq = static_cast<double>(cfg.hidden) / q;
  const double fq = 4.0 * hq, tq = 3.0 * hq;
  const double vq = static_cast<double>(cfg.vocab) / q;
  const double rows = static_cast<double>(cfg.batch) / q * cfg.seq_len;
  const double s = cfg.seq_len;
  const double N = cfg.layers;
  const double lm = lg * q * (vq * hq + rows * vq) + 2.0 * lg * q * (rows * vq + vq * hq);
  const double hosted = N * 3.0 * lg * (4 * hq + tq + 2 * hq + fq);
  const double final_ln = 2.0 * lg * (2 * hq);
  const double embed = 2.0 * lg * (q * vq * hq + s * hq);
  const double extras = q > 1 ? lm + hosted + final_ln + embed : 0.0;
  const double measured_stem = st.broadcast.weighted + st.reduce.weighted - extras;

  table.add_row({"Optimus", std::to_string(c.p), std::to_string(c.b), std::to_string(c.s),
                 std::to_string(c.h), Table::fmt(predicted, 0), Table::fmt(measured_stem, 0),
                 Table::fmt(measured_stem / std::max(predicted, 1.0), 4),
                 Table::fmt(extras + st.allreduce.weighted, 0)});
}

void run_compute(const Case& c, Table& table, bool optimus) {
  const int q = static_cast<int>(std::lround(std::sqrt(c.p)));
  const auto cfg = optimus ? make_config(c.b, c.s, c.h, q, 4 * q, 1)
                           : make_config(c.b, c.s, c.h, c.p, 4 * c.p, 1);
  ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 7);
  const auto batch = workload.next();
  auto body_mega = [&](oc::Context& ctx) {
    optimus::megatron::MegatronTransformer<float> engine(cfg, ctx.world);
    ctx.device.take_mults();
    const std::uint64_t before = ctx.device.mults_total();
    engine.forward(batch.tokens);
    const std::uint64_t fwd = ctx.device.mults_total() - before;
    (void)engine.lm_loss(batch.labels);
    engine.backward_lm();
    (void)fwd;
  };
  auto body_opti = [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> engine(cfg, mesh);
    engine.forward(batch.tokens);
    (void)engine.lm_loss(batch.labels);
    engine.backward_lm();
  };
  auto report =
      optimus ? oc::run_cluster(c.p, body_opti) : oc::run_cluster(c.p, body_mega);
  const opm::Workload w = to_workload(cfg);
  const double predicted_stem =
      cfg.layers * (opm::fwd_compute(w, c.p) + opm::bwd_compute(w, c.p));
  // Extra multiplications outside Table 1: lm-head logits fwd + two backward
  // products (each b·s·v·h/p) and the classifier-free rest is negligible.
  const double extras = 3.0 * static_cast<double>(cfg.batch) * cfg.seq_len * cfg.vocab *
                        cfg.hidden / c.p;
  const double measured = static_cast<double>(report.ranks[0].mults) - extras;
  table.add_row({optimus ? "Optimus" : "Megatron", std::to_string(c.p), std::to_string(c.b),
                 std::to_string(c.s), std::to_string(c.h), Table::fmt(predicted_stem, 0),
                 Table::fmt(measured, 0), Table::fmt(measured / predicted_stem, 4),
                 Table::fmt(extras, 0)});
}

}  // namespace

static int run_main() {
  optimus::bench::print_header(
      "E1 / Table 1 — per-layer communication in beta-weighted scalars (stem fwd+bwd)");
  Table comm_table({"scheme", "p", "b", "s", "h", "Table-1 predicted", "measured (stem)",
                    "ratio", "non-Table-1 terms"});
  run_megatron({4, 8, 16, 32}, comm_table);
  run_megatron({4, 4, 32, 64}, comm_table);
  run_megatron({8, 8, 16, 64}, comm_table);
  run_optimus({4, 8, 16, 32}, comm_table);
  run_optimus({4, 4, 32, 64}, comm_table);
  run_optimus({9, 9, 16, 36}, comm_table);
  run_optimus({16, 8, 16, 64}, comm_table);
  comm_table.print(std::cout);

  optimus::bench::print_header(
      "E1 / Table 1 — per-device computation in scalar multiplications (stem fwd+bwd)");
  Table comp_table({"scheme", "p", "b", "s", "h", "Table-1 predicted", "measured (stem)",
                    "ratio", "lm-head mults"});
  run_compute({4, 8, 16, 32}, comp_table, /*optimus=*/false);
  run_compute({4, 8, 16, 32}, comp_table, /*optimus=*/true);
  run_compute({16, 8, 32, 64}, comp_table, /*optimus=*/true);
  comp_table.print(std::cout);

  std::cout << "\nBoth schemes execute identical stem compute (Table 1, rows 3-4); the\n"
               "communication rows validate 4(p-1)/p*bsh vs log2(p)/(2*sqrt(p))*(7bsh+12h^2)\n"
               "and their backward counterparts.\n"
               "Note: for non-power-of-two q the measured/predicted ratio equals\n"
               "ceil(log2 q)/log2 q (binomial trees take integer rounds; the paper's\n"
               "formula uses the real-valued log) — e.g. 2/log2(3) = 1.26 at q = 3.\n";
  return 0;
}

int main() { return optimus::util::guarded_main(run_main); }
