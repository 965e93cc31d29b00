#include "kernel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace optimus::kernel {

namespace {

constexpr int kMaxWorkers = 256;

std::atomic<int> g_override{0};        // 0 = no programmatic override
std::atomic<int> g_active_devices{0};  // simulated devices currently running
thread_local bool tl_on_worker = false;
thread_local bool tl_in_region = false;  // tid 0 of an active region

// Global pool counters (see PoolStats). Relaxed: these are observability
// counters, not synchronisation.
struct StatCells {
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> inline_regions{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> worker_chunks{0};
  std::atomic<std::uint64_t> submit_wait_ns{0};
  std::atomic<std::uint64_t> workers_spawned{0};
  std::atomic<std::uint64_t> barrier_crossings{0};
  std::atomic<std::uint64_t> parks{0};
};
StatCells g_stats;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

int env_threads() {
  static const int value = [] {
    const char* s = std::getenv("OPTIMUS_KERNEL_THREADS");
    if (s == nullptr || *s == '\0') return 0;
    const long v = std::strtol(s, nullptr, 10);
    if (v <= 0) return 0;
    return static_cast<int>(std::min<long>(v, kMaxWorkers));
  }();
  return value;
}

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Spin budget before parking. On a single-core host spinning can never help —
// the thread we are waiting for needs our core to make progress — so we park
// immediately; with real parallelism a short spin absorbs the sub-microsecond
// gaps between back-to-back regions/barriers without a futex round-trip.
int spin_iters() {
  static const int value = hardware_threads() > 1 ? (1 << 14) : 0;
  return value;
}

}  // namespace

int hardware_threads() {
  static const int value =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return value;
}

void set_threads(int n) {
  g_override.store(std::clamp(n, 0, kMaxWorkers), std::memory_order_relaxed);
}

int configured_threads() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o > 0) return o;
  const int e = env_threads();
  return e > 0 ? e : hardware_threads();
}

int active_devices() { return g_active_devices.load(std::memory_order_relaxed); }

PoolStats pool_stats() {
  PoolStats s;
  s.regions = g_stats.regions.load(std::memory_order_relaxed);
  s.inline_regions = g_stats.inline_regions.load(std::memory_order_relaxed);
  s.chunks = g_stats.chunks.load(std::memory_order_relaxed);
  s.worker_chunks = g_stats.worker_chunks.load(std::memory_order_relaxed);
  s.submit_wait_ns = g_stats.submit_wait_ns.load(std::memory_order_relaxed);
  s.workers_spawned = g_stats.workers_spawned.load(std::memory_order_relaxed);
  s.barrier_crossings = g_stats.barrier_crossings.load(std::memory_order_relaxed);
  s.parks = g_stats.parks.load(std::memory_order_relaxed);
  return s;
}

void reset_pool_stats() {
  g_stats.regions.store(0, std::memory_order_relaxed);
  g_stats.inline_regions.store(0, std::memory_order_relaxed);
  g_stats.chunks.store(0, std::memory_order_relaxed);
  g_stats.worker_chunks.store(0, std::memory_order_relaxed);
  g_stats.submit_wait_ns.store(0, std::memory_order_relaxed);
  g_stats.workers_spawned.store(0, std::memory_order_relaxed);
  g_stats.barrier_crossings.store(0, std::memory_order_relaxed);
  g_stats.parks.store(0, std::memory_order_relaxed);
}

int effective_threads() {
  return std::max(1, configured_threads() / std::max(1, active_devices()));
}

ActiveDevicesGuard::ActiveDevicesGuard(int n) : n_(std::max(0, n)) {
  g_active_devices.fetch_add(n_, std::memory_order_relaxed);
}

ActiveDevicesGuard::~ActiveDevicesGuard() {
  g_active_devices.fetch_sub(n_, std::memory_order_relaxed);
}

struct RegionAccess {
  static Region make(int tid, int nthreads, void* team) { return Region(tid, nthreads, team); }
};

// ---------------------------------------------------------------------------
// ThreadPool — persistent parallel regions
// ---------------------------------------------------------------------------
//
// One region runs at a time (region_mutex). Launch protocol:
//
//   owner: write {fn, bar_expected, counters} -> store region_word =
//          pack(nthreads, gen+1) (seq_cst) -> lock+unlock park_m -> notify
//   worker i: wait region_word != seen (spin, then park on park_cv) ->
//             participate iff i+1 < unpack_nthreads(word) ->
//             run fn(Region{i+1}) -> done_count.fetch_add(release) ->
//             lock+unlock done_m -> notify
//   owner: run fn(Region{0}) -> wait done_count == nthreads-1 (spin/park on
//          done_cv) -> read error -> unlock region_mutex
//
// nthreads rides *inside* the generation word (top 16 bits) rather than in a
// plain field: the owner only waits for participants, so a straggling
// NON-participant (i+1 >= nthreads) may still be inspecting the region slot
// when the next region is being set up, and a separate nthreads field would
// race — worst case it misreads the new team size, runs a region it doesn't
// belong to, and double-acks done_count. One atomic word makes the
// (generation, team size) pair indivisible; the other region fields (fn,
// bar_expected, done/bar counters) are touched only by participants, whose
// reads the owner *does* synchronize with via the done_count handshake.
//
// The region_word store publishes the region fields (happens-before via the
// acquire load in the worker); done_count release/acquire publishes worker
// writes back to the owner. Parked threads get the same guarantees through
// the mutexes. The empty lock/unlock before each notify closes the classic
// missed-wakeup window: a thread blocks only while holding the mutex having
// observed a stale generation, and the notifier takes that mutex *after*
// writing the new generation, so either the sleeper re-checks and sees it or
// the notify reaches it in the wait queue.

// (generation, nthreads) packing for the region word. 48 bits of generation
// wrap after 2^48 regions; nthreads is capped at kMaxWorkers+1 << 2^16.
constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 48) - 1;
inline std::uint64_t pack_region_word(int nthreads, std::uint64_t gen) {
  return (static_cast<std::uint64_t>(nthreads) << 48) | (gen & kGenMask);
}
inline int unpack_nthreads(std::uint64_t word) { return static_cast<int>(word >> 48); }

struct ThreadPool::Impl {
  // Region slot (one active region at a time). region_word packs
  // (nthreads << 48) | generation — see the launch-protocol comment above.
  std::mutex region_mutex;
  std::atomic<std::uint64_t> region_word{0};
  const std::function<void(Region&)>* fn = nullptr;  // valid while a region runs

  // Worker wake/park.
  std::mutex park_m;
  std::condition_variable park_cv;
  std::atomic<bool> stop{false};

  // Region completion (workers -> owner).
  std::atomic<int> done_count{0};
  std::mutex done_m;
  std::condition_variable done_cv;

  // Reusable arrival barrier for the active region.
  int bar_expected = 0;
  std::atomic<index_t> bar_count{0};
  std::atomic<std::uint64_t> bar_gen{0};
  std::mutex bar_m;
  std::condition_variable bar_cv;

  // First exception thrown by any region thread.
  std::mutex err_m;
  std::exception_ptr error;

  std::vector<std::thread> workers;  // guarded by region_mutex

  void record_error() {
    std::lock_guard<std::mutex> lock(err_m);
    if (!error) error = std::current_exception();
  }

  void barrier_wait() {
    const int expected = bar_expected;
    if (expected <= 1) return;
    g_stats.barrier_crossings.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t gen = bar_gen.load(std::memory_order_acquire);
    if (bar_count.fetch_add(1, std::memory_order_acq_rel) + 1 == expected) {
      // Last arrival: reset the count for the next crossing, then release the
      // generation. The reset is published by the release store below.
      bar_count.store(0, std::memory_order_relaxed);
      bar_gen.store(gen + 1, std::memory_order_release);
      { std::lock_guard<std::mutex> lock(bar_m); }
      bar_cv.notify_all();
      return;
    }
    for (int i = 0; i < spin_iters(); ++i) {
      if (bar_gen.load(std::memory_order_acquire) != gen) return;
      cpu_pause();
    }
    g_stats.parks.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(bar_m);
    bar_cv.wait(lock, [&] { return bar_gen.load(std::memory_order_acquire) != gen; });
  }

  void worker_loop(int widx, std::uint64_t seen) {
    tl_on_worker = true;
    for (;;) {
      std::uint64_t g = region_word.load(std::memory_order_acquire);
      for (int i = 0; i < spin_iters() && g == seen; ++i) {
        cpu_pause();
        g = region_word.load(std::memory_order_acquire);
      }
      if (g == seen) {
        g_stats.parks.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(park_m);
        park_cv.wait(lock, [&] {
          return region_word.load(std::memory_order_acquire) != seen ||
                 stop.load(std::memory_order_acquire);
        });
        g = region_word.load(std::memory_order_acquire);
      }
      if (stop.load(std::memory_order_acquire)) return;
      if (g == seen) continue;
      seen = g;
      const int nthreads = unpack_nthreads(g);
      if (widx + 1 < nthreads) {
        Region r = RegionAccess::make(widx + 1, nthreads, this);
        try {
          (*fn)(r);
        } catch (...) {
          record_error();
        }
        done_count.fetch_add(1, std::memory_order_release);
        { std::lock_guard<std::mutex> lock(done_m); }
        done_cv.notify_all();
      }
    }
  }
};

void Region::barrier() {
  if (nthreads_ <= 1 || team_ == nullptr) return;
  static_cast<ThreadPool::Impl*>(team_)->barrier_wait();
}

ThreadPool& ThreadPool::global() {
  // Leaked on purpose: joining workers during static destruction is a classic
  // shutdown hazard, and the pool must outlive every user.
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool();
    p->impl_ = new Impl();
    return p;
  }();
  return *pool;
}

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

bool ThreadPool::in_region() { return tl_on_worker || tl_in_region; }

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  impl_->stop.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(impl_->park_m); }
  impl_->park_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

// Requires impl_->region_mutex held (only the region owner spawns, so the
// worker vector and the generation it snapshots are stable).
void ThreadPool::ensure_workers(int count) {
  Impl& im = *impl_;
  count = std::min(count, kMaxWorkers);
  const std::uint64_t seen = im.region_word.load(std::memory_order_relaxed);
  while (static_cast<int>(im.workers.size()) < count) {
    const int widx = static_cast<int>(im.workers.size());
    im.workers.emplace_back([this, widx, seen] { impl_->worker_loop(widx, seen); });
    g_stats.workers_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

int ThreadPool::parallel_region(int nthreads, const std::function<void(Region&)>& fn) {
  nthreads = std::min(nthreads, kMaxWorkers + 1);
  const bool degrade = nthreads <= 1 || tl_on_worker || tl_in_region;
  if (degrade || !impl_->region_mutex.try_lock()) {
    // Serial degradation: nested call, or another thread owns the
    // region slot right now. SPMD bodies see nthreads()==1 and a no-op
    // barrier, so they reduce to their serial schedule.
    g_stats.inline_regions.fetch_add(1, std::memory_order_relaxed);
    Region r = Region::serial();
    fn(r);
    return 1;
  }

  Impl& im = *impl_;
  ensure_workers(nthreads - 1);
  {
    std::lock_guard<std::mutex> lock(im.err_m);
    im.error = nullptr;
  }
  im.fn = &fn;
  im.bar_expected = nthreads;
  im.bar_count.store(0, std::memory_order_relaxed);
  im.done_count.store(0, std::memory_order_relaxed);
  const std::uint64_t cur = im.region_word.load(std::memory_order_relaxed);
  im.region_word.store(pack_region_word(nthreads, (cur & kGenMask) + 1),
                       std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(im.park_m); }
  im.park_cv.notify_all();
  g_stats.regions.fetch_add(1, std::memory_order_relaxed);

  tl_in_region = true;
  {
    Region r(0, nthreads, &im);
    try {
      fn(r);
    } catch (...) {
      im.record_error();
    }
  }
  tl_in_region = false;

  const int expect = nthreads - 1;
  const std::uint64_t t0 = steady_ns();
  if (im.done_count.load(std::memory_order_acquire) != expect) {
    for (int i = 0; i < spin_iters(); ++i) {
      if (im.done_count.load(std::memory_order_acquire) == expect) break;
      cpu_pause();
    }
    if (im.done_count.load(std::memory_order_acquire) != expect) {
      g_stats.parks.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(im.done_m);
      im.done_cv.wait(lock, [&] {
        return im.done_count.load(std::memory_order_acquire) == expect;
      });
    }
  }
  g_stats.submit_wait_ns.fetch_add(steady_ns() - t0, std::memory_order_relaxed);

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(im.err_m);
    err = im.error;
    im.error = nullptr;
  }
  im.fn = nullptr;
  im.region_mutex.unlock();
  if (err) std::rethrow_exception(err);
  return nthreads;
}

void ThreadPool::parallel_for(index_t n, index_t grain,
                              const std::function<void(index_t, index_t)>& body) {
  if (n <= 0) return;
  grain = std::max<index_t>(1, grain);
  const index_t chunks = (n + grain - 1) / grain;
  const int threads =
      static_cast<int>(std::min<index_t>(effective_threads(), chunks));
  if (threads <= 1 || tl_on_worker || tl_in_region) {
    g_stats.inline_regions.fetch_add(1, std::memory_order_relaxed);
    body(0, n);
    return;
  }
  // Claim loop: every chunk runs exactly once; the first body exception is
  // rethrown after the region ends.
  std::atomic<index_t> next{0};
  std::mutex err_m;
  std::exception_ptr error;
  parallel_region(threads, [&](Region& r) {
    for (;;) {
      const index_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      g_stats.chunks.fetch_add(1, std::memory_order_relaxed);
      if (r.tid() != 0) g_stats.worker_chunks.fetch_add(1, std::memory_order_relaxed);
      const index_t begin = c * grain;
      const index_t end = std::min(n, begin + grain);
      try {
        body(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_m);
        if (!error) error = std::current_exception();
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace optimus::kernel
