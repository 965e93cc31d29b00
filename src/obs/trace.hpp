#pragma once

// Span-based tracer for the simulated cluster.
//
// Every span carries **dual clocks**:
//
//   * simulated seconds — the per-device SimClock *including* compute that has
//     been counted (DeviceContext mults) but not yet drained into the clock,
//     so timestamps are continuous across the lazy drain at collective
//     boundaries;
//   * wall nanoseconds  — host steady-clock, for profiling the simulator
//     itself.
//
// Threads register a track (device rank + simulated-time source) with
// ScopedTrack; comm::Cluster installs one per device fiber, and its executor
// exchanges them on every switch (swap_track). Spans recorded on a thread
// without a track land on the host track and only their wall clock is
// meaningful.
//
// Cost contract: when tracing is disabled (the default) constructing a Span
// is a single relaxed atomic load and nothing else — no allocation, no clock
// read, no locking. Tracing never touches numerics: it only *reads* the sim
// clock and counters, so program output is byte-identical with tracing on or
// off.
//
// Thread safety: each track (a thread, or a device fiber) appends to its own
// buffer; buffers are registered globally and merged (per device rank) at
// export time.
//
// Export: Chrome trace-event JSON ("traceEvents" complete events, ts/dur in
// microseconds of *simulated* time, one pid/tid track per device rank; host
// spans on a separate wall-clock pid). Load the file in Perfetto /
// chrome://tracing to see per-device compute/comm/idle gaps.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace optimus::obs {

/// Rank used for spans recorded on threads without an installed track.
inline constexpr int kHostRank = -1;

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True when span recording is on. The disabled fast path is this one load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off process-wide. Turning it on does not clear
/// previously recorded spans; call reset() for a fresh trace.
void set_enabled(bool on);

/// Drops every recorded span (all threads) and retired thread buffers.
void reset();

// ---------------------------------------------------------------------------
// Thread tracks
// ---------------------------------------------------------------------------

/// Installs "this thread is simulated device `rank`" plus a simulated-time
/// source for the thread's lifetime (RAII; restores the previous track).
/// Also tags OPT_LOG lines on this thread with the rank.
class ScopedTrack {
 public:
  ScopedTrack(int rank, std::function<double()> sim_now);
  ~ScopedTrack();
  ScopedTrack(const ScopedTrack&) = delete;
  ScopedTrack& operator=(const ScopedTrack&) = delete;

 private:
  int prev_rank_;
  std::function<double()> prev_sim_now_;
  int prev_log_rank_;
};

namespace detail {
struct ThreadBuffer;
}

/// A thread's track: device rank, simulated-time source, span nesting depth
/// and span buffer. A scheduler that runs several simulated devices on one
/// thread (comm::Executor) gives each its own and exchanges them on every
/// switch.
struct TrackState {
  int rank = kHostRank;
  std::function<double()> sim_now;
  int depth = 0;
  std::shared_ptr<detail::ThreadBuffer> buffer;  // created at the first span
};

/// Exchanges the calling thread's track with `other`.
void swap_track(TrackState& other);

/// Rank of the calling thread's track (kHostRank if none).
int current_rank();

/// Simulated seconds on the calling thread (0 without a track). Includes
/// compute counted but not yet drained into the SimClock.
double sim_now();

/// Host wall nanoseconds since the process trace epoch.
std::uint64_t wall_now_ns();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed span, as stored in the thread buffers and returned by
/// snapshot(). sim_* are seconds, wall_* nanoseconds.
struct SpanRecord {
  std::string cat;
  std::string name;
  int rank = kHostRank;
  /// Request lane (>= 0) for per-request serving spans; such spans are
  /// exported on the dedicated "requests" pid with tid = lane instead of the
  /// recording thread's device track. -1 for ordinary spans.
  int lane = -1;
  int depth = 0;
  double sim_begin = 0;
  double sim_end = 0;
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::vector<std::pair<std::string, Json>> args;

  double sim_dur() const { return sim_end - sim_begin; }
};

/// RAII span. `cat` and `name` must outlive the span (string literals).
class Span {
 public:
  Span(const char* cat, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is actually recording (tracing was enabled at
  /// construction) — guard any expensive arg computation with it.
  bool armed() const { return armed_; }

  Span& arg(const char* key, Json value) {
    if (armed_) args_.emplace_back(key, std::move(value));
    return *this;
  }

 private:
  bool armed_;
  const char* cat_;
  const char* name_;
  double sim_begin_ = 0;
  std::uint64_t wall_begin_ns_ = 0;
  std::vector<std::pair<std::string, Json>> args_;
};

/// Records a completed span on a request lane. The serving scheduler uses
/// this instead of RAII Span because request lifetimes are known from the
/// driver's simulated clock (begin and end are supplied, not scoped), and
/// the span belongs to a request lane rather than the recording thread's
/// device track. `depth` orders same-timestamp spans (lifecycle = 0,
/// children = 1). No-op when tracing is disabled.
void record_lane_span(const char* cat, const std::string& name, int lane,
                      int depth, double sim_begin, double sim_end,
                      std::vector<std::pair<std::string, Json>> args = {});

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// All recorded spans, merged across threads, sorted per track by simulated
/// begin time (parents before children).
std::vector<SpanRecord> snapshot();

/// The full Chrome trace-event document for the current buffers.
Json chrome_trace_json();

/// Writes chrome_trace_json() to `path` (pretty-printed). Returns false and
/// warns on stderr if the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Per-(cat, name) aggregate over the recorded spans: count and total/max
/// simulated + wall duration. Feeds the metrics export's histogram section.
Json span_summary_json();

/// Structural validation of a Chrome trace document (ours or any conforming
/// producer): traceEvents present, required fields typed correctly, per-track
/// timestamps monotonically non-decreasing in file order, and complete-event
/// spans properly nested per track (children inside parents, no overlapping
/// siblings). Spans with cat "request" additionally obey the lane contract:
/// on each track exactly one top-level span named "lifecycle" per nesting
/// tree, and every other request span (queue_wait / decode_step / ...) lies
/// inside a lifecycle span — an orphan request span fails validation.
struct TraceCheck {
  bool ok = true;
  std::string error;       // first violation, empty when ok
  int events = 0;          // "X" span events checked
  int tracks = 0;          // distinct (pid, tid) with at least one span
  int request_lanes = 0;   // distinct tracks carrying cat=="request" spans
};
TraceCheck validate_chrome_trace(const Json& doc);

}  // namespace optimus::obs
