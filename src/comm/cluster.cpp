#include "comm/cluster.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <string>

#include "comm/executor.hpp"
#include "kernel/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace optimus::comm {

namespace {

std::string exception_message(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace

double Cluster::Report::max_sim_time() const {
  double t = 0;
  for (const auto& r : ranks) t = std::max(t, r.sim_time);
  return t;
}

double Cluster::Report::max_comm_time() const {
  double t = 0;
  for (const auto& r : ranks) t = std::max(t, r.comm_time);
  return t;
}

std::uint64_t Cluster::Report::max_peak_bytes() const {
  std::uint64_t b = 0;
  for (const auto& r : ranks) b = std::max(b, r.peak_bytes);
  return b;
}

std::uint64_t Cluster::Report::total_mults() const {
  std::uint64_t m = 0;
  for (const auto& r : ranks) m += r.mults;
  return m;
}

double Cluster::Report::total_weighted_comm() const {
  double w = 0;
  for (const auto& r : ranks) w += r.stats.total_weighted();
  return w;
}

Cluster::Cluster(int world_size, const Topology& topology, const MachineParams& params)
    : world_size_(world_size), topology_(topology), cost_(topology_, params) {
  OPT_CHECK(topology.world_size() == world_size,
            "topology world " << topology.world_size() << " != cluster world " << world_size);
}

Cluster::Report Cluster::run(const std::function<void(Context&)>& body) {
  // Register the simulated devices against the shared kernel thread budget:
  // while they run, each device's intra-op kernels get at most
  // OPTIMUS_KERNEL_THREADS / world_size workers.
  kernel::ActiveDevicesGuard devices_guard(world_size_);
  Fabric fabric(world_size_);
  fabric.set_fault_plan(fault_plan_);
  const std::uint64_t world_comm_id = fabric.world_comm_id();
  std::vector<int> world_group(world_size_);
  for (int i = 0; i < world_size_; ++i) world_group[i] = i;

  // Per-rank state lives on the heap so reports outlive the fibers.
  struct RankState {
    tensor::DeviceContext device;
    SimClock clock;
    CommStats stats;
    std::exception_ptr error;
    bool returned = false;
  };
  std::vector<std::unique_ptr<RankState>> states;
  states.reserve(world_size_);
  for (int i = 0; i < world_size_; ++i) states.push_back(std::make_unique<RankState>());

  const auto rank_body = [&](int rank) {
    RankState& st = *states[rank];
    tensor::ScopedDevice scoped(st.device);
    // Register this fiber as simulated device `rank` with the tracer. The
    // sim-time callback extends the lazily-drained clock by the compute that
    // has accumulated since the last collective, so span timestamps advance
    // continuously instead of jumping at drain points.
    obs::ScopedTrack track(rank, [&st, this] {
      return st.clock.now() + cost_.compute_time(st.device.pending_mults());
    });
    try {
      Context ctx{
          Communicator(fabric, world_comm_id, world_group, rank, st.clock, cost_, st.stats),
          st.clock,
          st.device,
          cost_,
          rank,
          world_size_,
      };
      ctx.world.set_label("world");
      obs::Span span("cluster", "rank_body");
      body(ctx);
      // Account compute done after the last collective.
      st.clock.drain_compute(cost_);
      st.returned = true;
    } catch (...) {
      // Leave the post-mortem artifact while this fiber still carries the
      // rank's track (flight dumps are keyed by obs::current_rank()).
      obs::flight_write_postmortem();
      st.error = std::current_exception();
      // Fail-stop: wake every peer parked in a collective or receive so it
      // unwinds with FabricAborted instead of waiting for this rank forever.
      // The first reason wins, so after a fault (which aborts at its throw
      // site) or on a peer's FabricAborted unwind this is a no-op.
      fabric.abort("rank " + std::to_string(rank) + " failed: " + exception_message(st.error));
    }
  };
  // Every unfinished rank is parked and nothing can wake one: a rank returned
  // or skipped a collective its peers entered. Abort, naming what each waits
  // for, so they unwind.
  std::string deadlock;
  const auto on_deadlock = [&] {
    std::ostringstream os;
    os << "deadlock: every unfinished rank is parked;" << fabric.describe_parked();
    for (int rank = 0; rank < world_size_; ++rank) {
      if (states[rank]->returned) os << "\n  rank " << rank << " returned";
    }
    deadlock = os.str();
    fabric.abort(deadlock);
  };
  Executor(world_size_, fault_plan_.seed).run(rank_body, on_deadlock);
  if (!deadlock.empty()) throw util::CheckError(deadlock);

  // Prefer the root cause: when one rank hits a fault and aborts the fabric,
  // its peers unwind with FabricAborted — rethrowing those would mask the
  // actual diagnostic.
  std::exception_ptr first_error, first_root_error;
  for (const auto& st : states) {
    if (!st->error) continue;
    if (!first_error) first_error = st->error;
    if (!first_root_error) {
      try {
        std::rethrow_exception(st->error);
      } catch (const FabricAborted&) {
        // secondary unwind; keep scanning for the original fault
      } catch (...) {
        first_root_error = st->error;
      }
    }
  }
  if (first_root_error) std::rethrow_exception(first_root_error);
  if (first_error) std::rethrow_exception(first_error);

  Report report;
  report.ranks.resize(world_size_);
  for (int rank = 0; rank < world_size_; ++rank) {
    RankState& st = *states[rank];
    RankReport& r = report.ranks[rank];
    r.sim_time = st.clock.now();
    r.comm_time = st.stats.total_time();
    r.mults = st.device.mults_total();
    r.peak_bytes = st.device.bytes_peak();
    r.live_bytes = st.device.bytes_live();
    r.alloc_count = st.device.alloc_count();
    r.stats = st.stats;
    r.util = st.clock.util();
  }
  return report;
}

Cluster::Report run_cluster(int world_size, const std::function<void(Context&)>& body) {
  Topology topo(world_size, /*gpus_per_node=*/4, Arrangement::kBunched,
                /*mesh_q=*/0);
  Cluster cluster(world_size, topo, MachineParams{});
  return cluster.run(body);
}

Cluster::Report run_cluster(int world_size, const FaultPlan& plan,
                            const std::function<void(Context&)>& body) {
  Topology topo(world_size, /*gpus_per_node=*/4, Arrangement::kBunched,
                /*mesh_q=*/0);
  Cluster cluster(world_size, topo, MachineParams{});
  cluster.set_fault_plan(plan);
  return cluster.run(body);
}

}  // namespace optimus::comm
