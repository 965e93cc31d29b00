#pragma once

// Intra-op thread pool and the process-wide kernel thread budget.
//
// The simulated cluster runs its devices as fibers on one runner thread
// (comm::Executor); the kernel layer adds *intra-op* workers underneath the
// device that is running. The budget is shared per device:
//
//   * `OPTIMUS_KERNEL_THREADS` (env) or set_threads(n) fixes the *global*
//     intra-op worker budget for the whole process;
//   * unset, the budget defaults to std::thread::hardware_concurrency();
//   * each kernel invocation may use at most
//       effective_threads() = max(1, budget / max(1, active_devices()))
//     workers, where active_devices() counts simulated devices currently
//     running (comm::Cluster registers them via ActiveDevicesGuard). Giving
//     the one runner the whole budget instead made small-GEMM workloads
//     slower per CPU second: workers spin between the many small regions.
//
// Execution model: the primitive is a *persistent parallel region*.
// parallel_region(n, fn) wakes n-1 resident workers and runs fn(Region&) on
// all n threads; inside the region, threads coordinate through Region::barrier
// (a reusable arrival barrier) and through caller-owned atomic claim counters.
// Workers spin briefly and then park between regions, so back-to-back GEMMs
// inside a SUMMA k-loop do not pay thread wake/sleep latency on every call.
// parallel_for is a thin wrapper that runs a claim loop inside one region.
//
// Determinism: the pool never changes *what* is computed, only *where*.
// Kernels partition work so every output element is produced by exactly one
// task with a serial inner loop, and reductions use partitions that are a
// function of the problem size only — results are bitwise identical for any
// thread count (DESIGN.md §5).
//
// Nesting: a thread that is already inside a region (worker or submitter) and
// calls parallel_* again runs the nested region inline on the calling thread
// (no recursive fan-out, no deadlock). The same serial degradation applies
// when another thread currently owns the pool's region slot — concurrent
// submitting threads never block each other on the intra-op pool.

#include <cstdint>
#include <functional>

namespace optimus::kernel {

using index_t = std::int64_t;

/// Cached std::thread::hardware_concurrency() (floor 1).
int hardware_threads();

/// Overrides the global intra-op worker budget. 0 restores the default
/// (env OPTIMUS_KERNEL_THREADS if set, else hardware_concurrency).
void set_threads(int n);

/// The global budget currently in force (after env/override resolution).
int configured_threads();

/// Number of simulated devices currently registered (see ActiveDevicesGuard).
int active_devices();

/// Per-invocation parallelism: max(1, configured_threads() / active devices).
int effective_threads();

/// Cumulative process-wide pool statistics (relaxed counters; cheap enough to
/// keep always-on). `regions` counts parallel regions that actually fanned
/// out (parallel_region, and parallel_for when it goes wide);
/// `inline_regions` the calls that ran serially (one thread, nested region,
/// contended pool, or single chunk). `worker_chunks` is the subset of
/// `chunks` claimed by pool workers rather than the submitting thread — the
/// "stolen" share. `barrier_crossings` counts per-thread arrivals at
/// Region::barrier and `parks` counts spin-timeout transitions to a
/// futex/condvar sleep (both measure how well spin-then-park is working).
///
/// `submit_wait_ns` is wall time submitters spent blocked at the end of a
/// region waiting for workers to finish their last chunks, summed over every
/// region. The simulated devices run as fibers on one runner thread, so that
/// thread is the only submitter and the sum stays within the wall time of the
/// enclosing run. Consumers report it as `aggregate_submit_wait_ms`,
/// alongside the per-region average (`avg_region_wait_ms` = aggregate /
/// regions), which is the per-call figure.
struct PoolStats {
  std::uint64_t regions = 0;
  std::uint64_t inline_regions = 0;
  std::uint64_t chunks = 0;
  std::uint64_t worker_chunks = 0;
  std::uint64_t submit_wait_ns = 0;
  std::uint64_t workers_spawned = 0;
  std::uint64_t barrier_crossings = 0;
  std::uint64_t parks = 0;

  /// Fraction of chunk work offloaded to workers (0 when nothing ran).
  double worker_share() const {
    return chunks == 0 ? 0.0
                       : static_cast<double>(worker_chunks) / static_cast<double>(chunks);
  }

  /// Mean end-of-region wait per fanned-out region, in ns (0 when none ran).
  double avg_region_wait_ns() const {
    return regions == 0 ? 0.0
                        : static_cast<double>(submit_wait_ns) / static_cast<double>(regions);
  }
};

/// Snapshot / reset of the global pool counters.
PoolStats pool_stats();
void reset_pool_stats();

/// RAII registration of `n` simulated devices against the shared budget.
/// comm::Cluster::run holds one for its whole world.
class ActiveDevicesGuard {
 public:
  explicit ActiveDevicesGuard(int n);
  ~ActiveDevicesGuard();
  ActiveDevicesGuard(const ActiveDevicesGuard&) = delete;
  ActiveDevicesGuard& operator=(const ActiveDevicesGuard&) = delete;

 private:
  int n_;
};

class ThreadPool;
struct RegionAccess;  // internal: lets the pool's Impl mint Region handles

/// Handle passed to a parallel_region body: identifies the calling thread
/// within the region and exposes the region's reusable arrival barrier.
///
/// barrier() may be crossed any number of times; every participating thread
/// must reach every barrier the body executes (the usual SPMD contract), so
/// a body that uses barrier() must not throw past one. With nthreads() == 1
/// (inline / degraded regions) barrier() is a no-op, which keeps SPMD bodies
/// correct without special-casing the serial path.
class Region {
 public:
  int tid() const { return tid_; }
  int nthreads() const { return nthreads_; }
  void barrier();

  /// A trivial single-thread region (tid 0 of 1, barrier is a no-op). Lets
  /// SPMD bodies be executed serially outside the pool, e.g. by the packed
  /// GEMM reference path.
  static Region serial() { return Region(0, 1, nullptr); }

 private:
  friend class ThreadPool;
  friend struct RegionAccess;
  Region(int tid, int nthreads, void* team) : tid_(tid), nthreads_(nthreads), team_(team) {}
  int tid_;
  int nthreads_;
  void* team_;  // ThreadPool::Impl of the owning pool; null for serial regions
};

class ThreadPool {
 public:
  /// The process-wide pool. Workers are spawned lazily, up to the budget.
  static ThreadPool& global();

  /// True on a pool worker thread (used to run nested regions inline).
  static bool on_worker_thread();

  /// True on a thread that is running a parallel region's body: a worker, or
  /// the submitter of a region that fanned out.
  static bool in_region();

  /// Runs fn(Region&) on min(nthreads, budget) threads: the caller is tid 0,
  /// resident workers take tids 1..n-1. Returns the number of threads that
  /// actually ran the body. Degrades to a serial inline call (return 1) when
  /// nthreads <= 1, the caller is already inside a region, or another thread
  /// currently owns the region slot — so fn must be written SPMD-style
  /// against r.nthreads(), never against the requested count.
  ///
  /// fn may throw only outside barrier-synchronised sections (a throw skips
  /// later barriers and would deadlock the team); parallel_for bodies are
  /// exception-safe because the wrapper catches per chunk.
  int parallel_region(int nthreads, const std::function<void(Region&)>& fn);

  /// Splits [0, n) into ceil(n / grain) fixed-size chunks and runs
  /// body(begin, end) for each, using up to effective_threads() threads
  /// (the caller participates; chunks are claimed dynamically). Runs inline
  /// when parallelism is 1, the work is a single chunk, or we are already on
  /// a worker thread. Exceptions from body are rethrown (first one wins)
  /// after every chunk has executed.
  void parallel_for(index_t n, index_t grain,
                    const std::function<void(index_t, index_t)>& body);

  ~ThreadPool();

 private:
  friend class Region;
  ThreadPool() = default;
  void ensure_workers(int count);

  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace optimus::kernel
