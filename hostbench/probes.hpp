#pragma once

// Measurement primitives of the host-cost benchmark: CPU and wall clocks, the
// shared stop decision that keeps lock-stepped ranks on the same step count,
// order statistics, and per-module self time from recorded spans.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hostbench {

inline double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of every thread of this process (rank, pool and main threads).
inline double process_cpu_s() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU seconds of the calling thread.
inline double thread_cpu_s() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }
inline double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Accumulated lead-thread CPU and wall time of one kind of public call.
struct CallStat {
  double cpu_s = 0;
  double wall_s = 0;
};

/// Runs fn() inside a span (recorded only while tracing is on) and, when
/// `stat` is given, charges its thread CPU and wall time to it.
template <typename F>
void timed_call(CallStat* stat, const char* module, const char* name, F&& fn) {
  if (stat == nullptr) {
    fn();
    return;
  }
  optimus::obs::Span span(module, name);
  const double c0 = thread_cpu_s();
  const double w0 = wall_s();
  fn();
  stat->cpu_s += thread_cpu_s() - c0;
  stat->wall_s += wall_s() - w0;
}

/// Decides, once per step index, whether that step runs. The first rank to
/// ask decides from the wall clock; every other rank replays the decision, so
/// all ranks of a lock-stepped cluster run the same number of steps. Steps run
/// for `seconds` from the first decision, and past that until `min_steps`
/// have run, but never past twice `seconds`.
class StepGate {
 public:
  StepGate(double seconds, std::size_t min_steps) : seconds_(seconds), min_steps_(min_steps) {}

  bool admit(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    if (decisions_.empty()) start_ = wall_s();
    if (i >= decisions_.size()) {
      const double elapsed = wall_s() - start_;
      decisions_.push_back(elapsed < seconds_ || (i < min_steps_ && elapsed < 2 * seconds_));
    }
    return decisions_[i];
  }

 private:
  std::mutex mu_;
  double seconds_;
  std::size_t min_steps_;
  double start_ = 0;
  std::vector<char> decisions_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample, and how many samples lie
/// strictly beyond it.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t beyond = 0;
  std::size_t windows = 1;  // windows the value is the lowest of (windowed_tail)
};

/// The highest percentile of {99, 90, 50} with at least ten samples
/// beyond it (p50 when the sample is too small for any).
Tail tail_of(std::vector<double> v);

/// tail_of's percentile of the whole sample, taken instead in each of up to
/// `windows` consecutive, equal windows of at least `min_window` samples (in
/// sample order); the value is the lowest window's. Host contention comes and
/// goes within a run and lifts the slow samples of the windows it hits; a
/// slower program lifts them all. A sample too short for two windows gives
/// tail_of.
Tail windowed_tail(const std::vector<double>& v, std::size_t windows, std::size_t min_window);

/// Lead-thread self time per module, from recorded spans: each span's wall
/// duration minus the part its direct children cover, summed by the span's
/// category (the module that emitted it). Also counts spans by cat/name and
/// sums the multiply-adds of the GEMM spans.
struct SelfTimes {
  std::map<std::string, double> self_s;        // by module
  std::map<std::string, double> total_s;       // by module, children included
  std::map<std::string, std::uint64_t> spans;  // by "cat/name"
  double gemm_mults = 0;                       // m·n·k summed over kernel/gemm spans

  /// Adds the spans of device track `rank` (request-lane spans ignored).
  void add(const std::vector<optimus::obs::SpanRecord>& spans, int rank);
  double self(const std::string& module) const { return lookup(self_s, module); }
  double total(const std::string& module) const { return lookup(total_s, module); }
  std::uint64_t count(const std::string& key) const { return lookup(spans, key); }

 private:
  template <typename Map>
  static typename Map::mapped_type lookup(const Map& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? typename Map::mapped_type{} : it->second;
  }
};

/// FNV-1a over raw bytes: the digest of loss traces and generated tokens.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

}  // namespace hostbench
