// Scaling explorer: interactive front-end to the analytic performance and
// memory model — "what would Optimus vs Megatron do for MY model?"
//
//   ./scaling_explorer --hidden 8192 --batch 64 --seq 1024 --layers 32
//       [--heads 64] [--vocab 51200] [--budget-gb 16]
//                      [--max-p 256] [--arrangement bunched] [--tree]
//       [--validate] [--trace-out trace.json] [--metrics-out metrics.json]
//
// Prints, for each square device count up to --max-p: predicted step time,
// throughput, parallel efficiency and per-device memory for both schemes,
// the memory-limited max batch, and the communication-volume breakdown.
// Machine constants come from the paper-calibrated fit (overridable).
//
// --validate additionally runs one real LM step of each engine on a small
// p = 4 simulated cluster and checks the measured per-device collective
// traffic against the analytic Table-1 forms (the closed forms above are
// then not just a model — they are an oracle the simulation satisfies), plus
// one KV-cached decode step of each engine against the closed-form
// decode-step cost (perfmodel::predict_*_decode_step_time).
// --trace-out / --metrics-out capture that validation run's span timeline
// and metrics (they imply --validate; the analytic sweep itself runs no
// simulation worth tracing).

#include <cmath>
#include <iostream>

#include "comm/cluster.hpp"
#include "comm/obs_report.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/memory.hpp"
#include "perfmodel/scaling.hpp"
#include "perfmodel/validation.hpp"
#include "runtime/data.hpp"
#include "serving/engines.hpp"
#include "summa/summa.hpp"
#include "tensor/tensor.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace opm = optimus::perfmodel;
using optimus::util::Table;

namespace {

/// Runs one real fwd+loss+bwd LM step of each engine at p = 4 and prints the
/// measured collective traffic next to the Table-1 closed forms. Returns
/// false (failure) if either scheme deviates. The Optimus run's cluster
/// report is left in `*optimus_report` for the metrics export.
bool run_validation(optimus::comm::Cluster::Report* optimus_report) {
  namespace oc = optimus::comm;
  namespace ort = optimus::runtime;
  optimus::model::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 8;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 2;
  cfg.seed = 5;
  opm::Workload w;
  w.b = cfg.batch;
  w.s = cfg.seq_len;
  w.h = cfg.hidden;
  w.n = cfg.heads;
  w.v = cfg.vocab;
  w.layers = cfg.layers;
  const int p = 4;
  ort::RandomLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 3);
  const auto batch = workload.next();

  std::cout << "\nmeasured vs analytic per-device collective traffic, one LM step at p=4\n";
  Table t({"scheme", "collective", "measured", "predicted", "rel err", "ok?"});
  bool all_ok = true;
  for (const auto scheme : {opm::Scheme::kMegatron, opm::Scheme::kOptimus}) {
    auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
      if (scheme == opm::Scheme::kMegatron) {
        optimus::megatron::MegatronTransformer<float> engine(cfg, ctx.world);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      } else {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> engine(cfg, mesh);
        engine.forward(batch.tokens);
        (void)engine.lm_loss(batch.labels);
        engine.backward_lm();
      }
    });
    const auto v = opm::validate_lm_step_comm(scheme, w, p, report.ranks[0].stats);
    for (const auto& row : v.rows) {
      t.add_row({scheme == opm::Scheme::kMegatron ? "Megatron" : "Optimus", row.name,
                 Table::fmt(row.measured, 1), Table::fmt(row.predicted, 1),
                 Table::fmt(row.rel_err(), 12), v.ok() ? "yes" : "NO"});
    }
    all_ok = all_ok && v.ok();
    if (scheme == opm::Scheme::kOptimus) *optimus_report = report;
  }
  t.print(std::cout);

  // SUMMA overlap: one summa_ab under each schedule, simulator clock vs the
  // overlap-aware closed form (perfmodel::predict_summa_ab_times). Also
  // checks the pipelined schedule actually hides communication (≥25% faster
  // than blocking at this size, the Table-1 regime the benches track).
  namespace os = optimus::summa;
  namespace ot = optimus::tensor;
  const int q = 2;
  const ot::index_t nb = 48;  // 96×96 global matrices, 48×48 blocks
  const auto run_mode = [&](bool pipelined) {
    os::PipelineGuard guard(pipelined);
    const auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      ot::TensorT<float> A = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      ot::TensorT<float> B = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      ot::TensorT<float> C = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      os::summa_ab(mesh, A, B, C);
    });
    return report.max_sim_time();
  };
  const double meas_blocking = run_mode(false);
  const double meas_pipelined = run_mode(true);
  const oc::Topology topo(p, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
  const oc::CostModel cost(topo, oc::MachineParams{});
  const auto pred =
      opm::predict_summa_ab_times(cost, q, q * nb, q * nb, q * nb, sizeof(float));
  std::cout << "\nmeasured vs predicted summa_ab sim time, 96x96x96 f32 at q=2\n";
  Table st({"schedule", "measured s", "predicted s", "rel err", "ok?"});
  bool overlap_ok = true;
  const auto add = [&](const char* name, double meas, double predicted) {
    const double rel = std::abs(meas - predicted) / (predicted > 0 ? predicted : 1.0);
    const bool ok = rel <= 1e-9;
    overlap_ok = overlap_ok && ok;
    st.add_row({name, Table::fmt(meas, 12), Table::fmt(predicted, 12),
                Table::fmt(rel, 12), ok ? "yes" : "NO"});
  };
  add("blocking", meas_blocking, pred.blocking_s);
  add("pipelined", meas_pipelined, pred.pipelined_s);
  st.print(std::cout);
  const double saved = (meas_blocking - meas_pipelined) / meas_blocking;
  std::cout << "overlap hides " << Table::fmt(100.0 * saved, 1)
            << "% of the blocking step time\n";
  if (saved < 0.25) {
    std::cout << "FAIL: expected >=25% overlap win at q=2\n";
    overlap_ok = false;
  }

  // 2.5D (Tesseract) step: the same product on a 2×2×2 mesh, simulator clock
  // vs the depth-extended closed form (Table-1 terms /d plus the depth
  // reduction), again under both schedules.
  const int depth = 2;
  const auto run_mode_25d = [&](bool pipelined) {
    os::PipelineGuard guard(pipelined);
    const auto report = oc::run_cluster(q * q * depth, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world, depth);
      ot::TensorT<float> A = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      ot::TensorT<float> B = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      ot::TensorT<float> C = ot::TensorT<float>::zeros(ot::Shape{nb, nb});
      os::summa_ab(mesh, A, B, C);
    });
    return report.max_sim_time();
  };
  const oc::Topology topo25(q * q * depth, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
  const oc::CostModel cost25(topo25, oc::MachineParams{});
  const auto pred25 =
      opm::predict_summa_ab_times(cost25, q, q * nb, q * nb, q * nb, sizeof(float), depth);
  std::cout << "\nmeasured vs predicted 2.5D summa_ab sim time, 96x96x96 f32 at q=2 d=2\n";
  Table s25({"schedule", "measured s", "predicted s", "rel err", "ok?"});
  bool depth_ok = true;
  const auto add25 = [&](const char* name, double meas, double predicted) {
    const double rel = std::abs(meas - predicted) / (predicted > 0 ? predicted : 1.0);
    const bool ok = rel <= 1e-9;
    depth_ok = depth_ok && ok;
    s25.add_row({name, Table::fmt(meas, 12), Table::fmt(predicted, 12),
                 Table::fmt(rel, 12), ok ? "yes" : "NO"});
  };
  add25("blocking", run_mode_25d(false), pred25.blocking_s);
  add25("pipelined", run_mode_25d(true), pred25.pipelined_s);
  s25.print(std::cout);
  if (!depth_ok) std::cout << "FAIL: 2.5D closed form does not match the simulator\n";

  // KV-cached decode step: one incremental serving step of each distributed
  // engine, simulator clock vs the closed-form decode-step predictor (the
  // exact sum of the step's collectives and GEMM charges). A warmup step
  // first pays the one-time decode parameter fetch and fills every cache
  // slot to length 1 — the lens the predictor is handed.
  std::cout << "\nmeasured vs predicted KV-cached decode-step sim time at p=4\n";
  Table dt({"engine", "measured s", "predicted s", "rel err", "ok?"});
  bool decode_ok = true;
  const std::vector<optimus::tensor::index_t> lens(static_cast<std::size_t>(cfg.batch), 1);
  const std::vector<std::int32_t> step_tokens(static_cast<std::size_t>(cfg.batch), 1);
  const std::vector<std::uint8_t> step_active(static_cast<std::size_t>(cfg.batch), 1);
  const auto add_decode = [&](const char* name, double meas, double predicted) {
    const double rel = std::abs(meas - predicted) / (predicted > 0 ? predicted : 1.0);
    const bool ok = rel <= 1e-9;
    decode_ok = decode_ok && ok;
    dt.add_row({name, Table::fmt(meas, 12), Table::fmt(predicted, 12), Table::fmt(rel, 12),
                ok ? "yes" : "NO"});
  };
  {
    double meas = 0, predicted = 0;
    os::PipelineGuard guard(false);  // the closed form models blocking SUMMA
    oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> engine(cfg, mesh);
      optimus::serving::OptimusDecodeEngine<float> dec(engine, cfg.batch);
      dec.step(step_tokens, step_active);  // warmup
      const double t0 = ctx.clock.now();
      dec.step(step_tokens, step_active);
      if (ctx.rank == 0) {
        meas = ctx.clock.now() - t0;
        predicted = opm::predict_optimus_decode_step_time(ctx.cost, w, q, lens, sizeof(float));
      }
    });
    add_decode("Optimus q=2", meas, predicted);
  }
  {
    double meas = 0, predicted = 0;
    oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::megatron::MegatronTransformer<float> engine(cfg, ctx.world);
      optimus::serving::MegatronDecodeEngine<float> dec(engine, ctx.world, cfg.batch);
      dec.step(step_tokens, step_active);  // warmup
      const double t0 = ctx.clock.now();
      dec.step(step_tokens, step_active);
      if (ctx.rank == 0) {
        meas = ctx.clock.now() - t0;
        predicted = opm::predict_megatron_decode_step_time(ctx.cost, w, p, lens, sizeof(float));
      }
    });
    add_decode("Megatron p=4", meas, predicted);
  }
  dt.print(std::cout);
  if (!decode_ok) std::cout << "FAIL: decode-step closed form does not match the simulator\n";
  return all_ok && overlap_ok && depth_ok && decode_ok;
}

}  // namespace

static int run_main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  opm::Workload w;
  w.h = cli.get_i64("hidden", 8192);
  w.b = cli.get_i64("batch", 64);
  w.s = cli.get_i64("seq", 1024);
  w.n = cli.get_i64("heads", 64);
  w.v = cli.get_i64("vocab", 51200);
  w.layers = cli.get_i64("layers", 32);
  const double budget_gb = cli.get_double("budget-gb", 16.0);
  const int max_p = cli.get_int("max-p", 256);
  const auto arrangement = optimus::comm::parse_arrangement(
      cli.get_string("arrangement", "bunched"));
  opm::Machine machine = opm::calibrate_from_paper();
  if (cli.get_bool("tree", false)) machine.pipelined_collectives = false;
  machine.flop_rate = cli.get_double("flop-rate", machine.flop_rate);
  machine.beta_inter = cli.get_double("beta-inter", machine.beta_inter);
  const std::string trace_out = cli.get_string("trace-out", "");
  const std::string metrics_out = cli.get_string("metrics-out", "");
  const bool validate =
      cli.get_bool("validate", false) || !trace_out.empty() || !metrics_out.empty();
  cli.finish();
  if (!trace_out.empty() || !metrics_out.empty()) optimus::obs::set_enabled(true);
  // The metrics JSON carries the registry section (step latency histograms,
  // serving/training counters) alongside the per-rank report.
  if (!metrics_out.empty()) optimus::obs::set_metrics_enabled(true);

  std::cout << "model: h=" << w.h << " b=" << w.b << " s=" << w.s << " N=" << w.layers
            << " v=" << w.v << "  (" << Table::fmt(opm::total_compute(w) / 1e12, 1)
            << " Tmult per step)\n"
            << "machine: " << Table::fmt(machine.flop_rate / 1e12, 1) << " Tmult/s, "
            << Table::fmt(1.0 / machine.beta_inter / 1e9, 2)
            << " Gscalar/s inter-node, 4 GPUs/node, "
            << (machine.pipelined_collectives ? "pipelined" : "eq-4 tree")
            << " collectives\n\n";

  Table t({"p", "scheme", "step (s)", "seq/s", "efficiency", "mem/device (GB)", "fits?",
           "max batch"});
  const std::uint64_t budget = static_cast<std::uint64_t>(budget_gb * (1ull << 30));
  for (int p = 4; p <= max_p; p *= 4) {
    const int q = static_cast<int>(std::lround(std::sqrt(p)));
    for (const auto scheme : {opm::Scheme::kMegatron, opm::Scheme::kOptimus}) {
      const bool is_meg = scheme == opm::Scheme::kMegatron;
      const opm::StepTime st = is_meg ? opm::megatron_step_time(w, p, machine)
                                      : opm::optimus_step_time(w, p, machine, arrangement);
      const auto mem = is_meg ? opm::megatron_memory(w, p) : opm::optimus_memory(w, p);
      const auto bmax = opm::max_batch(scheme, w, p, budget, is_meg ? 1 : q);
      t.add_row({std::to_string(p), is_meg ? "Megatron" : "Optimus",
                 Table::fmt(st.total(), 3), Table::fmt(w.b / st.total(), 2),
                 Table::fmt(opm::efficiency(scheme, w, p, machine), 3),
                 Table::fmt(static_cast<double>(mem.total()) / (1ull << 30), 2),
                 mem.total() <= budget ? "yes" : "NO", std::to_string(bmax)});
    }
  }
  t.print(std::cout);

  std::cout << "\nper-layer communication volume (beta-weighted scalars, fwd+bwd):\n";
  Table c({"p", "Megatron", "Optimus", "Optimus/Megatron"});
  for (int p = 4; p <= max_p; p *= 4) {
    const double m = opm::megatron_fwd_comm(w, p) + opm::megatron_bwd_comm(w, p);
    const double o = opm::optimus_fwd_comm(w, p) + opm::optimus_bwd_comm(w, p);
    c.add_row({std::to_string(p), Table::fmt(m, 0), Table::fmt(o, 0),
               Table::fmt(o / std::max(m, 1.0), 3)});
  }
  c.print(std::cout);
  std::cout << "\nNotes: Megatron's volume is flat in p while Optimus's falls like\n"
            << "log(p)/sqrt(p); whichever fits memory at your target scale wins.\n";

  if (validate) {
    optimus::comm::Cluster::Report optimus_report;
    const bool ok = run_validation(&optimus_report);
    if (!trace_out.empty()) optimus::obs::write_chrome_trace(trace_out);
    if (!metrics_out.empty()) optimus::comm::write_metrics(metrics_out, optimus_report);
    if (!ok) return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
