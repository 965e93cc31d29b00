#pragma once

// Per-simulated-device accounting.
//
// Every simulated device (one fiber in comm::Cluster) installs a
// DeviceContext for its lifetime via ScopedDevice. All tensor allocations and
// matmul flops while that device runs are charged to it; the cluster's
// executor exchanges the installed context whenever it switches devices:
//
//   * bytes_live / bytes_peak — drives the Figure-9 memory-limit experiments
//     and validates the analytic memory model.
//   * mults — scalar multiply-accumulate count, in the paper's Table-1 units;
//     the comm layer drains this at collective boundaries to advance the
//     device's simulated clock.
//
// The counters live in a shared block: a tensor's deleter keeps the block
// alive, so tensors that escape the device's lifetime (e.g. results copied
// out of a Cluster::run body) still balance their accounting safely after the
// context itself is gone. Counter fields are relaxed atomics because that
// late free may run on another thread.
//
// Threads without an installed context (plain host code, tests building
// oracles) fall back to a process-wide default context so accounting never
// crashes; its numbers are simply not used for experiments.

#include <atomic>
#include <cstdint>
#include <memory>

namespace optimus::tensor {

class DeviceContext {
 public:
  /// The shared accounting block tensors pin via their deleters.
  struct Counters {
    std::atomic<std::uint64_t> bytes_live{0};
    std::atomic<std::uint64_t> bytes_peak{0};
    std::atomic<std::uint64_t> alloc_count{0};
    std::atomic<std::uint64_t> mults{0};
    std::uint64_t mults_taken = 0;  // owner-thread only (take_mults)

    void on_alloc(std::uint64_t bytes) {
      alloc_count.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t live =
          bytes_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      std::uint64_t peak = bytes_peak.load(std::memory_order_relaxed);
      while (live > peak &&
             !bytes_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
      }
    }
    void on_free(std::uint64_t bytes) {
      bytes_live.fetch_sub(bytes, std::memory_order_relaxed);
    }
    void on_mults(std::uint64_t n) { mults.fetch_add(n, std::memory_order_relaxed); }
  };

  DeviceContext() : counters_(std::make_shared<Counters>()) {}
  DeviceContext(const DeviceContext&) = delete;
  DeviceContext& operator=(const DeviceContext&) = delete;

  void on_alloc(std::uint64_t bytes) { counters_->on_alloc(bytes); }
  void on_free(std::uint64_t bytes) { counters_->on_free(bytes); }
  void on_mults(std::uint64_t mults) { counters_->on_mults(mults); }

  std::uint64_t bytes_live() const {
    return counters_->bytes_live.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_peak() const {
    return counters_->bytes_peak.load(std::memory_order_relaxed);
  }
  std::uint64_t alloc_count() const {
    return counters_->alloc_count.load(std::memory_order_relaxed);
  }
  std::uint64_t mults_total() const {
    return counters_->mults.load(std::memory_order_relaxed);
  }

  /// Returns the multiply count accumulated since the last take and zeroes it.
  /// Owner-thread only (used by the comm layer to advance the simulated clock).
  std::uint64_t take_mults() {
    const std::uint64_t m = counters_->mults.load(std::memory_order_relaxed);
    const std::uint64_t delta = m - counters_->mults_taken;
    counters_->mults_taken = m;
    return delta;
  }

  /// Multiplies counted since the last take_mults(), without consuming them.
  /// Owner-thread only; the tracer uses this to extend simulated timestamps
  /// continuously across the lazy compute drain at collective boundaries.
  std::uint64_t pending_mults() const {
    return counters_->mults.load(std::memory_order_relaxed) - counters_->mults_taken;
  }

  /// Resets the peak to the current live level (used between bench phases).
  void reset_peak() {
    counters_->bytes_peak.store(bytes_live(), std::memory_order_relaxed);
  }
  void reset_alloc_count() { counters_->alloc_count.store(0, std::memory_order_relaxed); }

  /// Shared handle for deleters that may outlive this context.
  std::shared_ptr<Counters> counters() const { return counters_; }

  /// The context charged on the calling thread (never null).
  static DeviceContext& current();

  /// The calling thread's installed context (null if none). ScopedDevice
  /// sets it; comm::Executor exchanges it whenever it switches the simulated
  /// device running on the thread.
  static DeviceContext*& current_slot();

 private:
  std::shared_ptr<Counters> counters_;
};

/// RAII installer: charges this thread's tensor activity to `ctx` while alive.
class ScopedDevice {
 public:
  explicit ScopedDevice(DeviceContext& ctx) : previous_(DeviceContext::current_slot()) {
    DeviceContext::current_slot() = &ctx;
  }
  ~ScopedDevice() { DeviceContext::current_slot() = previous_; }
  ScopedDevice(const ScopedDevice&) = delete;
  ScopedDevice& operator=(const ScopedDevice&) = delete;

 private:
  DeviceContext* previous_;
};

}  // namespace optimus::tensor
