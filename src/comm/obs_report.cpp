#include "comm/obs_report.hpp"

#include <fstream>

#include "kernel/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optimus::comm {

namespace {

obs::Json op_json(const CommStats::Op& op) {
  obs::Json j = obs::Json::object();
  j.set("calls", op.calls);
  j.set("elems", op.elems);
  j.set("bytes", op.bytes);
  j.set("weighted", op.weighted);
  j.set("time_s", op.time);
  return j;
}

obs::Json comm_json(const CommStats& s) {
  obs::Json j = obs::Json::object();
  j.set("broadcast", op_json(s.broadcast));
  j.set("reduce", op_json(s.reduce));
  j.set("allreduce", op_json(s.allreduce));
  j.set("allgather", op_json(s.allgather));
  j.set("reducescatter", op_json(s.reducescatter));
  j.set("alltoall", op_json(s.alltoall));
  j.set("barrier", op_json(s.barrier));
  obs::Json p2p = obs::Json::object();
  p2p.set("messages", s.p2p_messages);
  p2p.set("bytes", s.p2p_bytes);
  p2p.set("time_s", s.p2p_time);
  j.set("p2p", p2p);
  j.set("total_bytes", s.total_bytes());
  j.set("total_weighted", s.total_weighted());
  j.set("total_time_s", s.total_time());
  return j;
}

obs::Json util_json(const Cluster::RankReport& rr) {
  const UtilBreakdown& u = rr.util;
  obs::Json j = obs::Json::object();
  j.set("compute_s", u.compute);
  j.set("align_wait_s", u.align_wait);
  j.set("transfer_s", u.transfer);
  j.set("idle_s", u.idle);
  const double total = rr.sim_time;
  const auto frac = [&](double v) { return total > 0 ? v / total : 0.0; };
  j.set("compute_frac", frac(u.compute));
  j.set("align_wait_frac", frac(u.align_wait));
  j.set("transfer_frac", frac(u.transfer));
  j.set("idle_frac", frac(u.idle));
  j.set("accounted_s", u.accounted());
  return j;
}

}  // namespace

obs::Json metrics_json(const Cluster::Report& report, const MetricsReportOptions& options) {
  obs::Json doc = obs::Json::object();
  doc.set("world_size", static_cast<std::uint64_t>(report.ranks.size()));

  obs::Json ranks = obs::Json::array();
  CommStats::Op sum[7];
  const char* kind_names[7] = {"broadcast", "reduce",        "allreduce", "allgather",
                               "reducescatter", "alltoall", "barrier"};
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const Cluster::RankReport& rr = report.ranks[r];
    obs::Json j = obs::Json::object();
    j.set("rank", static_cast<std::uint64_t>(r));
    j.set("sim_time_s", rr.sim_time);
    j.set("comm_time_s", rr.comm_time);
    j.set("mults", rr.mults);
    j.set("peak_bytes", rr.peak_bytes);
    j.set("live_bytes", rr.live_bytes);
    j.set("alloc_count", rr.alloc_count);
    j.set("comm", comm_json(rr.stats));
    j.set("utilization", util_json(rr));
    ranks.push_back(std::move(j));
    const CommStats::Op* ops[7] = {&rr.stats.broadcast,     &rr.stats.reduce,
                                   &rr.stats.allreduce,     &rr.stats.allgather,
                                   &rr.stats.reducescatter, &rr.stats.alltoall,
                                   &rr.stats.barrier};
    for (int k = 0; k < 7; ++k) {
      sum[k].calls += ops[k]->calls;
      sum[k].elems += ops[k]->elems;
      sum[k].bytes += ops[k]->bytes;
      sum[k].weighted += ops[k]->weighted;
      sum[k].time += ops[k]->time;
    }
  }
  doc.set("ranks", std::move(ranks));

  obs::Json totals = obs::Json::object();
  obs::Json by_kind = obs::Json::object();
  for (int k = 0; k < 7; ++k) {
    obs::Json j = op_json(sum[k]);
    by_kind.set(kind_names[k], std::move(j));
  }
  totals.set("comm_by_kind", std::move(by_kind));
  totals.set("max_sim_time_s", report.max_sim_time());
  totals.set("max_comm_time_s", report.max_comm_time());
  totals.set("max_peak_bytes", report.max_peak_bytes());
  totals.set("total_mults", report.total_mults());
  totals.set("total_weighted_comm", report.total_weighted_comm());
  doc.set("totals", std::move(totals));

  if (options.include_pool) {
    const kernel::PoolStats pool = kernel::pool_stats();
    obs::Json pj = obs::Json::object();
    pj.set("regions", pool.regions);
    pj.set("inline_regions", pool.inline_regions);
    pj.set("chunks", pool.chunks);
    pj.set("worker_chunks", pool.worker_chunks);
    pj.set("worker_share", pool.worker_share());
    // Submit waits are summed across concurrent device submitters, so the
    // aggregate can legitimately exceed the run's wall time (p devices blocked
    // on the shared pool at once each contribute their own wait). The name says
    // so; avg_region_wait_ms is the per-region mean, comparable to wall time.
    pj.set("aggregate_submit_wait_ms", static_cast<double>(pool.submit_wait_ns) / 1e6);
    pj.set("avg_region_wait_ms", pool.avg_region_wait_ns() / 1e6);
    pj.set("barrier_crossings", pool.barrier_crossings);
    pj.set("parks", pool.parks);
    pj.set("workers_spawned", pool.workers_spawned);
    doc.set("pool", std::move(pj));
  }

  if (options.include_spans && obs::enabled()) doc.set("spans", obs::span_summary_json());
  if (options.include_registry && obs::metrics_enabled()) {
    doc.set("metrics", obs::metrics_snapshot_json());
  }
  return doc;
}

void write_metrics(const std::string& path, const Cluster::Report& report,
                   const MetricsReportOptions& options) {
  std::ofstream out(path);
  OPT_CHECK(out.good(), "cannot open metrics output " << path);
  out << metrics_json(report, options).dump(2) << "\n";
}

}  // namespace optimus::comm
