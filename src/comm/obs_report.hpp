#pragma once

// Metrics export: turns a Cluster::Report (plus the process-wide kernel pool
// counters and the tracer's span summary) into one JSON document.
//
// Layout:
//
//   {
//     "world_size": p,
//     "ranks": [ { "rank": r, "sim_time_s": …, "mults": …, "peak_bytes": …,
//                  "alloc_count": …, "comm": { "broadcast": {calls, elems,
//                  bytes, weighted, time_s}, …, "p2p": {…} },
//                  "utilization": { compute_s, align_wait_s, transfer_s,
//                  idle_s, *_frac, accounted_s } }, … ],
//     "totals": { "bytes_by_kind": {…}, "max_sim_time_s": …, … },
//     "pool": { regions, inline_regions, chunks, worker_chunks, worker_share,
//               aggregate_submit_wait_ms, avg_region_wait_ms,
//               barrier_crossings, parks, workers_spawned },
//
// aggregate_submit_wait_ms sums the submitter's wait over every region. The
// simulated devices run as fibers on one runner thread, so only that thread
// submits regions and the sum stays within wall time; avg_region_wait_ms
// (aggregate / regions) is the per-call figure. The per-rank "utilization"
// fractions partition one rank's simulated timeline (compute + align_wait +
// transfer + idle ≈ sim_time_s), so each fraction is ≤ 1.
//     "spans": { "cat/name": {count, sim_total_s, sim_max_s, wall_total_ms} },
//     "metrics": { "name": {type, value | count/min/max/p50/p99/p999/buckets} }
//   }
//
// The "spans" section is present only when tracing was enabled for the run;
// "metrics" (the process metrics registry) only when metrics collection was.
// This lives in comm (not obs) because it reads Cluster::Report; obs stays
// dependency-free below util.

#include <string>

#include "comm/cluster.hpp"
#include "obs/json.hpp"

namespace optimus::comm {

/// Section toggles for metrics_json(). The pool section is wall-clock-derived
/// (submit waits, parks) and therefore not byte-reproducible across runs —
/// exclude it when the output will be diffed for determinism.
struct MetricsReportOptions {
  bool include_spans = true;     // tracer span summary (needs tracing enabled)
  bool include_pool = true;      // kernel thread-pool counters (wall-based)
  bool include_registry = true;  // process metrics registry (needs metrics on)
};

/// Builds the metrics document for `report`.
obs::Json metrics_json(const Cluster::Report& report, const MetricsReportOptions& options = {});

/// Serialises metrics_json() to `path` (pretty-printed).
void write_metrics(const std::string& path, const Cluster::Report& report,
                   const MetricsReportOptions& options = {});

}  // namespace optimus::comm
