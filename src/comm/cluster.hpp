#pragma once

// Launches a simulated cluster: one fiber per device, all run by the calling
// thread (comm::Executor), each with its own DeviceContext (memory/flop
// accounting), SimClock and CommStats, connected by a shared Fabric.
//
//   comm::Cluster cluster(p, topology, machine_params);
//   comm::Cluster::Report report = cluster.run([&](comm::Context& ctx) {
//     ... ctx.world.all_reduce(...) ...
//   });
//
// The body runs on every rank. Ranks interleave only in the fabric, in an
// order fixed by the rank numbers, the program and the fault plan's schedule
// seed, so a run replays identically. An exception on any rank is fail-stop:
// the rank aborts the shared fabric, so peers parked in (or later entering) a
// collective or receive unwind with FabricAborted instead of hanging. After
// every rank has finished, run() rethrows the root error — the first rank's
// exception that is not a FabricAborted unwind. When every unfinished rank is
// parked (a rank returned or skipped a collective its peers entered), run()
// aborts the fabric and throws a CheckError naming the op, communicator and
// seq each parked rank waits in.

#include <functional>
#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fabric.hpp"

namespace optimus::comm {

/// Everything a device body needs, handed to the user callback.
struct Context {
  Communicator world;
  SimClock& clock;
  tensor::DeviceContext& device;
  const CostModel& cost;
  int rank;
  int size;
};

class Cluster {
 public:
  struct RankReport {
    double sim_time = 0;        // simulated seconds at body exit
    // Nominal simulated seconds of this rank's collectives: the sum of their
    // CommStats durations, including time hidden behind compute by overlap.
    double comm_time = 0;
    std::uint64_t mults = 0;    // scalar multiplications executed
    std::uint64_t peak_bytes = 0;
    std::uint64_t live_bytes = 0;  // should be ~0 after clean teardown
    std::uint64_t alloc_count = 0;
    CommStats stats;
    UtilBreakdown util;  // where sim_time went: compute/align_wait/transfer/idle
  };

  struct Report {
    std::vector<RankReport> ranks;

    double max_sim_time() const;
    double max_comm_time() const;
    std::uint64_t max_peak_bytes() const;
    std::uint64_t total_mults() const;
    /// Sum over ranks of the Table-1 weighted communication units.
    double total_weighted_comm() const;
  };

  Cluster(int world_size, const Topology& topology, const MachineParams& params);

  int world_size() const { return world_size_; }
  const CostModel& cost_model() const { return cost_; }

  /// Arms a fault plan for subsequent run()s: its seed picks the
  /// interleaving (executor.hpp), its poison mode corrupts payloads.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }

  /// Runs `body` on every rank and gathers per-rank reports. If any rank
  /// throws, the *root* error is rethrown: FabricAborted unwinds from peers of
  /// a faulted rank are reported only when no rank holds the original fault.
  /// A deadlock throws CheckError.
  Report run(const std::function<void(Context&)>& body);

 private:
  int world_size_;
  Topology topology_;
  CostModel cost_;
  FaultPlan fault_plan_;
};

/// One-shot convenience: build a cluster with a default single-node-ish
/// topology and run the body. Used heavily by tests.
Cluster::Report run_cluster(int world_size, const std::function<void(Context&)>& body);

/// Same, with deterministic fault injection armed.
Cluster::Report run_cluster(int world_size, const FaultPlan& plan,
                            const std::function<void(Context&)>& body);

}  // namespace optimus::comm
