#pragma once

// Per-device simulated clock.
//
// The reproduction runs on a single host, so wall-clock time says nothing
// about the 64-GPU behaviour the paper measures. Instead each simulated
// device advances a virtual clock:
//
//   * local compute   — the tensor layer counts scalar multiplications; the
//     clock converts them to seconds via the machine's flop rate. Draining
//     happens lazily at communication boundaries, which is exactly when
//     ordering matters.
//   * collectives     — participants align to the maximum clock in the group
//     (a blocking collective cannot finish before its slowest member) and
//     advance by the CostModel's closed-form time for that collective.
//
// This is the same α-β machine model the paper uses for its analysis; see
// DESIGN.md §2 for the substitution argument.

#include "comm/topology.hpp"
#include "tensor/device_context.hpp"

namespace optimus::comm {

/// Where a rank's simulated time went, bucketed at the clock-mutation sites:
/// compute (drained mults), align_wait (blocking until the slowest collective
/// participant / a message sender catches up), transfer (modelled wire time),
/// idle (external forward jumps, e.g. a serving driver skipping to the next
/// arrival). The buckets partition elapsed time: every clock mutation lands
/// in exactly one, so accounted() == now() up to FP addition error.
struct UtilBreakdown {
  double compute = 0;
  double align_wait = 0;
  double transfer = 0;
  double idle = 0;

  double accounted() const { return compute + align_wait + transfer + idle; }
};

class SimClock {
 public:
  double now() const { return now_; }

  void advance(double seconds) {
    OPT_DCHECK(seconds >= 0, "negative time step " << seconds);
    now_ += seconds;
    util_.idle += seconds;
  }

  /// Jumps forward to `t` (idle time: nothing modelled happened in between).
  /// Jumping backwards is allowed for test harness rewinds and is not
  /// accounted.
  void set(double t) {
    if (t > now_) util_.idle += t - now_;
    now_ = t;
  }

  /// Aligns to another participant's clock — the wait a blocking collective
  /// or receive spends until its slowest peer arrives. Exact assignment
  /// (`now_ = t`, never `now_ += (t - now_)`) so alignment is bitwise
  /// identical to the pre-accounting set() and measured==predicted
  /// assertions keep holding to 0 rel err.
  void align_to(double t) {
    if (t > now_) {
      util_.align_wait += t - now_;
      now_ = t;
    }
  }

  /// Advances over modelled wire time (collective transfer phase, p2p send).
  void advance_transfer(double seconds) {
    OPT_DCHECK(seconds >= 0, "negative transfer time " << seconds);
    now_ += seconds;
    util_.transfer += seconds;
  }

  /// Converts the multiply count accumulated on this thread since the last
  /// drain into simulated seconds.
  void drain_compute(const CostModel& cost) {
    const std::uint64_t mults = tensor::DeviceContext::current().take_mults();
    if (mults > 0) {
      const double dt = cost.compute_time(mults);
      now_ += dt;
      util_.compute += dt;
    }
  }

  const UtilBreakdown& util() const { return util_; }

  void reset() {
    now_ = 0;
    util_ = UtilBreakdown{};
  }

 private:
  double now_ = 0;
  UtilBreakdown util_;
};

/// Per-rank communication statistics, in both raw and paper units.
///
/// `weighted` accumulates the Table-1 cost unit: elements × the collective's
/// β-multiplier (log₂g for tree ops, 2(g−1)/g for all-reduce, (g−1)/g for
/// all-gather / reduce-scatter). With β=1/scalar this equals modelled time,
/// which is how bench_table1_costs validates the paper's formulas.
struct CommStats {
  struct Op {
    std::uint64_t calls = 0;
    std::uint64_t elems = 0;
    std::uint64_t bytes = 0;  // elems × element size (payload volume)
    double weighted = 0;
    double time = 0;

    void record(std::uint64_t n, std::uint64_t b, double w, double t) {
      calls += 1;
      elems += n;
      bytes += b;
      weighted += w;
      time += t;
    }
  };

  Op broadcast;
  Op reduce;
  Op allreduce;
  Op allgather;
  Op reducescatter;
  Op alltoall;  // always zero: no collective records it; hostbench still reads it
  Op barrier;
  // User-level point-to-point traffic only (collective-internal transfers are
  // accounted under their collective's Op).
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  double p2p_time = 0;

  double total_weighted() const {
    return broadcast.weighted + reduce.weighted + allreduce.weighted + allgather.weighted +
           reducescatter.weighted + alltoall.weighted + barrier.weighted;
  }
  double total_time() const {
    return broadcast.time + reduce.time + allreduce.time + allgather.time +
           reducescatter.time + alltoall.time + barrier.time + p2p_time;
  }
  std::uint64_t total_elems() const {
    return broadcast.elems + reduce.elems + allreduce.elems + allgather.elems +
           reducescatter.elems + alltoall.elems;
  }
  std::uint64_t total_bytes() const {
    return broadcast.bytes + reduce.bytes + allreduce.bytes + allgather.bytes +
           reducescatter.bytes + alltoall.bytes + p2p_bytes;
  }

  void reset() { *this = CommStats{}; }
};

}  // namespace optimus::comm
