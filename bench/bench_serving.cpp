// E-serving — KV-cached continuous-batching inference, Optimus vs Megatron.
//
// (1) Offered-load sweep: a seeded Poisson open-loop trace is replayed through
//     both distributed engines at several arrival rates; the simulated clock
//     yields p50/p99 request latency, generated tokens/s and queue depth per
//     load point. Both engines serve the identical trace (the scheduler is
//     deterministic and engine-agnostic), so the rows are directly comparable.
// (2) Cached vs recompute: generating K tokens through the KV-cached decode
//     path vs the pre-cache practice of re-running the full context window
//     every token (what examples/text_generation.cpp did before this change).
//     Run at a low-latency machine point (α = 0.1 µs) where payload and
//     compute dominate — the regime real serving clusters operate in; the
//     bench asserts the cached path is ≥ 3× faster at the longest output.
// (3) Decode-step cost model: one measured decode step per engine is asserted
//     against perfmodel::predict_*_decode_step_time to ~round-off, under the
//     blocking SUMMA schedule (the closed forms model the unpipelined path).

#include <cmath>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "comm/obs_report.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/validation.hpp"
#include "serving/serving.hpp"
#include "serving/traffic.hpp"
#include "summa/summa.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"

namespace {

namespace oc = optimus::comm;
namespace os = optimus::serving;
namespace opm = optimus::perfmodel;
using optimus::bench::make_config;
using optimus::bench::to_workload;
using optimus::tensor::index_t;
using optimus::util::Table;

constexpr int kMeshQ = 2;      // Optimus 2×2 mesh
constexpr int kMegatronP = 4;  // same device count, 1D

struct SweepPoint {
  double rate = 0;
  os::ServingMetrics metrics;
  std::uint64_t cache_bytes = 0;
};

os::TrafficConfig make_traffic(const optimus::model::TransformerConfig& cfg, double rate) {
  os::TrafficConfig tc;
  tc.rate = rate;
  tc.count = 40;
  tc.prompt_min = 2;
  tc.prompt_max = 6;
  tc.output_min = 4;
  tc.output_max = 16;
  tc.vocab = cfg.vocab;
  tc.capacity = cfg.seq_len;
  tc.seed = 2024;
  return tc;
}

/// Per-rank simulated-timeline breakdown → flat JSON extras on a bench row.
void add_util_extras(optimus::bench::JsonWriter::Metrics& ex,
                     const oc::Cluster::Report& rep) {
  for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
    const auto& rr = rep.ranks[r];
    const double tot = rr.sim_time > 0 ? rr.sim_time : 1.0;
    const std::string p = "rank" + std::to_string(r) + "_";
    ex.emplace_back(p + "compute_frac", rr.util.compute / tot);
    ex.emplace_back(p + "align_wait_frac", rr.util.align_wait / tot);
    ex.emplace_back(p + "transfer_frac", rr.util.transfer / tot);
    ex.emplace_back(p + "idle_frac", rr.util.idle / tot);
  }
}

/// Registry-histogram quantiles for the load point just served (the registry
/// is reset before each point). The histogram view is log-bucketed (≤ 4.4 %
/// rel error), complementing the exact sorted-vector p50/p99 alongside.
void add_latency_hist_extras(optimus::bench::JsonWriter::Metrics& ex) {
  const auto& h =
      optimus::obs::MetricsRegistry::instance().histogram("serving.request_latency_s");
  ex.emplace_back("hist_p50_latency_ms", h.quantile(0.50) * 1e3);
  ex.emplace_back("hist_p99_latency_ms", h.quantile(0.99) * 1e3);
  ex.emplace_back("hist_p999_latency_ms", h.quantile(0.999) * 1e3);
}

/// --smoke: one traced+metered Optimus load point for CI. Writes the Chrome
/// trace (request lanes included) and a byte-reproducible metrics JSON (pool
/// and span sections excluded — they carry wall-clock numbers).
int run_smoke(const std::string& trace_out, const std::string& metrics_out) {
  const auto cfg = make_config(/*b=*/8, /*s=*/48, /*h=*/32, /*n=*/4, /*v=*/64, /*layers=*/2);
  auto tc = make_traffic(cfg, /*rate=*/200.0);
  tc.count = 12;
  const auto reqs = os::poisson_open_loop(tc);
  if (!trace_out.empty()) {
    optimus::obs::set_enabled(true);
    optimus::obs::reset();
  }
  optimus::obs::set_metrics_enabled(true);
  optimus::obs::metrics_reset();
  std::mutex mu;
  os::ServingMetrics sm;
  const auto report = oc::run_cluster(kMeshQ * kMeshQ, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> m(cfg, mesh);
    os::OptimusDecodeEngine<float> eng(m, cfg.batch);
    auto oc2 = os::run_serving<float>(
        eng, reqs, [&] { return ctx.clock.now(); },
        [&](double when) { ctx.clock.set(when); });
    OPT_CHECK(!oc2.aborted, "smoke run aborted");
    OPT_CHECK(oc2.completed.size() == reqs.size(), "smoke run dropped requests");
    std::lock_guard<std::mutex> lock(mu);
    if (ctx.rank == 0) sm = oc2.metrics;
  });
  std::cout << "smoke: completed " << sm.completed << " requests, " << sm.decode_steps
            << " decode steps, p50 " << sm.p50_latency * 1e3 << " ms\n";
  if (!trace_out.empty()) {
    optimus::obs::write_chrome_trace(trace_out);
    std::cout << "wrote " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    oc::MetricsReportOptions opts;
    opts.include_spans = false;  // span summary carries wall totals
    opts.include_pool = false;   // pool counters are wall-based
    oc::write_metrics(metrics_out, report, opts);
    std::cout << "wrote " << metrics_out << "\n";
  }
  return 0;
}

}  // namespace

static int run_main(int argc, char** argv) {
  std::string trace_out, metrics_out;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (a == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::cerr << "usage: bench_serving [--smoke [--trace-out F] [--metrics-out F]]\n";
      return 2;
    }
  }
  if (smoke) return run_smoke(trace_out, metrics_out);

  optimus::bench::print_header("E-serving — continuous batching, 4 devices (q=2 vs p=4)");
  const auto cfg = make_config(/*b=*/8, /*s=*/48, /*h=*/32, /*n=*/4, /*v=*/64, /*layers=*/2);
  // The registry feeds the per-load histogram columns; reset per point.
  optimus::obs::set_metrics_enabled(true);
  optimus::bench::JsonWriter json;
  std::mutex mu;

  // ---- (1) offered-load sweep --------------------------------------------
  const std::vector<double> rates = {50.0, 200.0, 800.0};
  Table t({"engine", "offered req/s", "completed", "tok/s", "p50 lat (ms)", "p99 lat (ms)",
           "mean queue", "max queue"});
  for (const char* engine : {"optimus", "megatron"}) {
    const bool is2d = std::string(engine) == "optimus";
    for (const double rate : rates) {
      const auto reqs = os::poisson_open_loop(make_traffic(cfg, rate));
      optimus::obs::metrics_reset();  // one registry window per load point
      SweepPoint pt;
      pt.rate = rate;
      oc::Cluster::Report report;
      const auto body = [&](oc::Context& ctx, os::DecodeEngine<float>& eng) {
        auto oc2 = os::run_serving<float>(
            eng, reqs, [&] { return ctx.clock.now(); },
            [&](double when) { ctx.clock.set(when); });
        OPT_CHECK(!oc2.aborted, "fault-free run aborted");
        OPT_CHECK(oc2.completed.size() == reqs.size(), "requests dropped");
        std::lock_guard<std::mutex> lock(mu);
        if (ctx.rank == 0) {
          pt.metrics = oc2.metrics;
          pt.cache_bytes = oc2.cache_bytes;
        }
      };
      if (is2d) {
        report = oc::run_cluster(kMeshQ * kMeshQ, [&](oc::Context& ctx) {
          optimus::mesh::Mesh2D mesh(ctx.world);
          optimus::core::OptimusTransformer<float> m(cfg, mesh);
          os::OptimusDecodeEngine<float> eng(m, cfg.batch);
          body(ctx, eng);
        });
      } else {
        report = oc::run_cluster(kMegatronP, [&](oc::Context& ctx) {
          optimus::megatron::MegatronTransformer<float> m(cfg, ctx.world);
          os::MegatronDecodeEngine<float> eng(m, ctx.world, cfg.batch);
          body(ctx, eng);
        });
      }
      const auto& m = pt.metrics;
      t.add_row({engine, Table::fmt(rate, 0), std::to_string(m.completed),
                 Table::fmt(m.tokens_per_s, 1), Table::fmt(m.p50_latency * 1e3, 3),
                 Table::fmt(m.p99_latency * 1e3, 3), Table::fmt(m.mean_queue_depth, 2),
                 std::to_string(m.max_queue_depth)});
      optimus::bench::JsonWriter::Metrics extras =
               {{"offered_rate", pt.rate},
                {"tokens_per_s", m.tokens_per_s},
                {"p50_latency_ms", m.p50_latency * 1e3},
                {"p99_latency_ms", m.p99_latency * 1e3},
                {"p50_first_token_ms", m.p50_first_token * 1e3},
                {"p99_first_token_ms", m.p99_first_token * 1e3},
                {"mean_queue_depth", m.mean_queue_depth},
                {"max_queue_depth", static_cast<double>(m.max_queue_depth)},
                {"completed", static_cast<double>(m.completed)},
                {"decode_steps", static_cast<double>(m.decode_steps)},
                {"cache_bytes_per_rank", static_cast<double>(pt.cache_bytes)}};
      add_latency_hist_extras(extras);
      extras.emplace_back("p999_latency_ms", m.p999_latency * 1e3);
      add_util_extras(extras, report);
      json.add(std::string("serving_") + engine, "b8 s48 h32 v64 L2", 0, 0,
               m.span * 1e3, extras);
    }
  }
  t.print(std::cout);

  // ---- (2) cached decode vs full-window recompute ------------------------
  optimus::bench::print_header("KV cache vs full-window recompute (Optimus q=2, α = 0.1 µs)");
  const index_t kNew = 32;  // longest output in the sweep's range, doubled
  double cached_s = 0, recompute_s = 0;
  {
    oc::Topology topo(kMeshQ * kMeshQ, 4, oc::Arrangement::kBunched, kMeshQ);
    oc::MachineParams mp;
    mp.alpha = 1e-7;
    oc::Cluster cluster(kMeshQ * kMeshQ, topo, mp);
    cluster.run([&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> m(cfg, mesh);
      os::OptimusDecodeEngine<float> eng(m, cfg.batch);
      std::vector<std::int32_t> toks(static_cast<std::size_t>(cfg.batch), 3);
      std::vector<std::uint8_t> act(static_cast<std::size_t>(cfg.batch), 1);
      eng.step(toks, act);  // prefill one prompt token + decode-param warmup
      const double t0 = ctx.clock.now();
      for (index_t i = 0; i < kNew; ++i) eng.step(toks, act);
      const double t1 = ctx.clock.now();
      // Recompute baseline: every new token re-runs the full context window
      // (prefill forward + logits), exactly what generation without a cache
      // does. One forward is measured and scaled — each window is identical.
      optimus::tensor::ITensor window(optimus::tensor::Shape{cfg.batch, cfg.seq_len});
      for (index_t i = 0; i < window.numel(); ++i) window[i] = 3;
      m.forward(window);
      (void)m.lm_logits_block();
      ctx.world.barrier();
      const double t2 = ctx.clock.now();
      m.forward(window);
      (void)m.lm_logits_block();
      ctx.world.barrier();
      const double t3 = ctx.clock.now();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) {
        cached_s = t1 - t0;
        recompute_s = static_cast<double>(kNew) * (t3 - t2);
      }
    });
  }
  const double cached_tps = static_cast<double>(cfg.batch * kNew) / cached_s;
  const double recompute_tps = static_cast<double>(cfg.batch * kNew) / recompute_s;
  const double speedup = cached_tps / recompute_tps;
  std::cout << "cached:    " << Table::fmt(cached_tps, 1) << " tok/s ("
            << Table::fmt(cached_s * 1e3, 3) << " ms for " << cfg.batch * kNew << " tokens)\n"
            << "recompute: " << Table::fmt(recompute_tps, 1) << " tok/s ("
            << Table::fmt(recompute_s * 1e3, 3) << " ms)\n"
            << "speedup:   " << Table::fmt(speedup, 2) << "x\n";
  OPT_CHECK(speedup >= 3.0, "KV-cached decode only " << speedup << "x over recompute");
  json.add("decode_cached_vs_recompute", "b8 s48 h32 v64 L2 K32", 0, 0, cached_s * 1e3,
           {{"cached_tokens_per_s", cached_tps},
            {"recompute_tokens_per_s", recompute_tps},
            {"speedup", speedup}});

  // ---- (3) decode-step cost model ----------------------------------------
  optimus::bench::print_header("Decode-step cost: measured sim time vs closed form");
  const auto w = to_workload(cfg);
  for (const char* engine : {"optimus", "megatron"}) {
    const bool is2d = std::string(engine) == "optimus";
    double measured = 0, predicted = 0;
    const auto probe = [&](oc::Context& ctx, os::DecodeEngine<float>& eng, double pred) {
      std::vector<std::int32_t> toks(static_cast<std::size_t>(cfg.batch), 1);
      std::vector<std::uint8_t> act(static_cast<std::size_t>(cfg.batch), 1);
      eng.step(toks, act);  // warmup: one-time decode-param broadcasts
      const double t0 = ctx.clock.now();
      eng.step(toks, act);
      const double t1 = ctx.clock.now();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) {
        measured = t1 - t0;
        predicted = pred;
      }
    };
    const std::vector<index_t> lens(static_cast<std::size_t>(cfg.batch), 1);
    if (is2d) {
      optimus::summa::PipelineGuard guard(false);
      oc::run_cluster(kMeshQ * kMeshQ, [&](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> m(cfg, mesh);
        os::OptimusDecodeEngine<float> eng(m, cfg.batch);
        probe(ctx, eng,
              opm::predict_optimus_decode_step_time(ctx.cost, w, kMeshQ, lens, sizeof(float)));
      });
    } else {
      oc::run_cluster(kMegatronP, [&](oc::Context& ctx) {
        optimus::megatron::MegatronTransformer<float> m(cfg, ctx.world);
        os::MegatronDecodeEngine<float> eng(m, ctx.world, cfg.batch);
        probe(ctx, eng, opm::predict_megatron_decode_step_time(ctx.cost, w, kMegatronP, lens,
                                                               sizeof(float)));
      });
    }
    const double rel = std::abs(measured - predicted) / predicted;
    std::cout << engine << ": measured " << measured << " s, predicted " << predicted
              << " s, rel err " << rel << "\n";
    OPT_CHECK(rel < 1e-9, engine << " decode-step model off by " << rel);
    json.add(std::string("decode_step_model_") + engine, "b8 s48 h32 v64 L2", 0, 0,
             measured * 1e3, {{"predicted_ms", predicted * 1e3}, {"rel_err", rel}});
  }

  json.write("BENCH_serving.json");
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
