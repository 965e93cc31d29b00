#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>

#include "util/logging.hpp"

namespace optimus::obs {

namespace detail {
std::atomic<bool> g_enabled{false};

// Spans are appended to per-track buffers; the global registry keeps every
// buffer alive (threads may exit before export) and hands out stable ids used
// as host-track tids.
struct ThreadBuffer {
  int id = 0;
  std::mutex m;
  std::vector<SpanRecord> spans;
};
}  // namespace detail

namespace {

using detail::ThreadBuffer;

struct Registry {
  std::mutex m;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: buffers may outlive main
  return *r;
}

thread_local TrackState tl_track;

ThreadBuffer& thread_buffer() {
  if (!tl_track.buffer) {
    auto buf = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.m);
    buf->id = static_cast<int>(reg.buffers.size());
    reg.buffers.push_back(buf);
    tl_track.buffer = std::move(buf);
  }
  return *tl_track.buffer;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Sorts one track's spans so parents precede children and timestamps are
/// monotone: by begin time, ties broken by nesting depth.
void sort_track(std::vector<SpanRecord>& spans, bool use_sim) {
  std::stable_sort(spans.begin(), spans.end(),
                   [use_sim](const SpanRecord& a, const SpanRecord& b) {
                     if (use_sim) {
                       if (a.sim_begin != b.sim_begin) return a.sim_begin < b.sim_begin;
                     } else if (a.wall_begin_ns != b.wall_begin_ns) {
                       return a.wall_begin_ns < b.wall_begin_ns;
                     }
                     return a.depth < b.depth;
                   });
}

}  // namespace

void set_enabled(bool on) {
  (void)trace_epoch();  // pin the wall epoch before the first span
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> bl(buf->m);
    buf->spans.clear();
  }
}

// ---------------------------------------------------------------------------
// Thread tracks
// ---------------------------------------------------------------------------

ScopedTrack::ScopedTrack(int rank, std::function<double()> sim_now)
    : prev_rank_(tl_track.rank),
      prev_sim_now_(std::move(tl_track.sim_now)),
      prev_log_rank_(util::thread_log_rank()) {
  tl_track.rank = rank;
  tl_track.sim_now = std::move(sim_now);
  util::set_thread_log_rank(rank);
}

ScopedTrack::~ScopedTrack() {
  tl_track.rank = prev_rank_;
  tl_track.sim_now = std::move(prev_sim_now_);
  util::set_thread_log_rank(prev_log_rank_);
}

void swap_track(TrackState& other) { std::swap(tl_track, other); }

int current_rank() { return tl_track.rank; }

double sim_now() { return tl_track.sim_now ? tl_track.sim_now() : 0.0; }

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - trace_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

Span::Span(const char* cat, const char* name)
    : armed_(enabled()), cat_(cat), name_(name) {
  if (!armed_) return;
  sim_begin_ = sim_now();
  wall_begin_ns_ = wall_now_ns();
  ++tl_track.depth;
}

Span::~Span() {
  if (!armed_) return;
  --tl_track.depth;
  SpanRecord rec;
  rec.cat = cat_;
  rec.name = name_;
  rec.rank = tl_track.rank;
  rec.depth = tl_track.depth;
  rec.sim_begin = sim_begin_;
  rec.sim_end = sim_now();
  rec.wall_begin_ns = wall_begin_ns_;
  rec.wall_end_ns = wall_now_ns();
  rec.args = std::move(args_);
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.m);
  buf.spans.push_back(std::move(rec));
}

void record_lane_span(const char* cat, const std::string& name, int lane,
                      int depth, double sim_begin, double sim_end,
                      std::vector<std::pair<std::string, Json>> args) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.cat = cat;
  rec.name = name;
  rec.rank = tl_track.rank;
  rec.lane = lane;
  rec.depth = depth;
  rec.sim_begin = sim_begin;
  rec.sim_end = sim_end;
  // Lane spans live purely in simulated time; pin both wall stamps to "now"
  // so the exported wall_ms is 0 rather than a misleading recording latency.
  rec.wall_begin_ns = wall_now_ns();
  rec.wall_end_ns = rec.wall_begin_ns;
  rec.args = std::move(args);
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.m);
  buf.spans.push_back(std::move(rec));
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

namespace {

/// Copies every buffer's spans grouped by device rank (host spans keyed by
/// buffer id instead, offset so they never collide with ranks).
struct MergedSpans {
  std::map<int, std::vector<SpanRecord>> device;  // rank → spans
  std::map<int, std::vector<SpanRecord>> host;    // buffer id → spans
  std::map<int, std::vector<SpanRecord>> lanes;   // request lane → spans
};

MergedSpans merge_buffers() {
  MergedSpans out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> bl(buf->m);
    for (const SpanRecord& s : buf->spans) {
      if (s.lane >= 0) {
        out.lanes[s.lane].push_back(s);
      } else if (s.rank >= 0) {
        out.device[s.rank].push_back(s);
      } else {
        out.host[buf->id].push_back(s);
      }
    }
  }
  for (auto& [rank, spans] : out.device) sort_track(spans, /*use_sim=*/true);
  for (auto& [id, spans] : out.host) sort_track(spans, /*use_sim=*/false);
  for (auto& [lane, spans] : out.lanes) sort_track(spans, /*use_sim=*/true);
  return out;
}

}  // namespace

std::vector<SpanRecord> snapshot() {
  MergedSpans merged = merge_buffers();
  std::vector<SpanRecord> all;
  for (auto& [rank, spans] : merged.device) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  for (auto& [id, spans] : merged.host) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  for (auto& [lane, spans] : merged.lanes) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  return all;
}

Json chrome_trace_json() {
  constexpr int kSimPid = 0;
  constexpr int kHostPid = 1;
  constexpr int kRequestPid = 2;
  MergedSpans merged = merge_buffers();
  Json events = Json::array();

  const auto meta = [&](const char* what, int pid, int tid, const std::string& value) {
    Json e = Json::object();
    e.set("name", what);
    e.set("ph", "M");
    e.set("pid", pid);
    if (tid >= 0) e.set("tid", tid);
    Json args = Json::object();
    args.set("name", value);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };
  meta("process_name", kSimPid, -1, "simulated devices (simulated time)");
  if (!merged.host.empty()) meta("process_name", kHostPid, -1, "host (wall time)");
  if (!merged.lanes.empty()) {
    meta("process_name", kRequestPid, -1, "requests (simulated time)");
  }
  for (const auto& [rank, spans] : merged.device) {
    meta("thread_name", kSimPid, rank, "device " + std::to_string(rank));
  }
  for (const auto& [id, spans] : merged.host) {
    meta("thread_name", kHostPid, id, "host thread " + std::to_string(id));
  }
  for (const auto& [lane, spans] : merged.lanes) {
    meta("thread_name", kRequestPid, lane, "request " + std::to_string(lane));
  }

  const auto emit = [&](const SpanRecord& s, int pid, int tid, double ts_us, double dur_us) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.cat);
    e.set("ph", "X");
    e.set("pid", pid);
    e.set("tid", tid);
    e.set("ts", ts_us);
    e.set("dur", dur_us);
    Json args = Json::object();
    for (const auto& [k, v] : s.args) args.set(k, v);
    args.set("wall_ms",
             static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e6);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };
  for (const auto& [rank, spans] : merged.device) {
    for (const SpanRecord& s : spans) {
      emit(s, kSimPid, rank, s.sim_begin * 1e6, s.sim_dur() * 1e6);
    }
  }
  for (const auto& [id, spans] : merged.host) {
    for (const SpanRecord& s : spans) {
      emit(s, kHostPid, id, static_cast<double>(s.wall_begin_ns) / 1e3,
           static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e3);
    }
  }
  for (const auto& [lane, spans] : merged.lanes) {
    for (const SpanRecord& s : spans) {
      emit(s, kRequestPid, lane, s.sim_begin * 1e6, s.sim_dur() * 1e6);
    }
  }

  Json doc = Json::object();
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(events));
  return doc;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write trace file " << path << "\n";
    return false;
  }
  out << chrome_trace_json().dump(1) << "\n";
  return static_cast<bool>(out);
}

Json span_summary_json() {
  struct Agg {
    std::uint64_t count = 0;
    double sim_total = 0, sim_max = 0;
    double wall_total_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& s : snapshot()) {
    Agg& a = by_name[s.cat + "/" + s.name];
    a.count += 1;
    a.sim_total += s.sim_dur();
    a.sim_max = std::max(a.sim_max, s.sim_dur());
    a.wall_total_ms += static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e6;
  }
  Json out = Json::object();
  for (const auto& [key, a] : by_name) {
    Json o = Json::object();
    o.set("count", a.count);
    o.set("sim_total_s", a.sim_total);
    o.set("sim_max_s", a.sim_max);
    o.set("wall_total_ms", a.wall_total_ms);
    out.set(key, std::move(o));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

double nest_eps(double v) { return 1e-9 + 1e-9 * std::abs(v); }

}  // namespace

TraceCheck validate_chrome_trace(const Json& doc) {
  TraceCheck res;
  const auto fail = [&](const std::string& why) {
    res.ok = false;
    if (res.error.empty()) res.error = why;
  };
  if (!doc.is_object() || !doc.get("traceEvents").is_array()) {
    fail("document is not an object with a traceEvents array");
    return res;
  }

  struct Open {
    double ts, end;
    bool lifecycle;  // cat=="request" && name=="lifecycle"
  };
  struct TrackState {
    double last_ts = -1e300;
    std::vector<Open> stack;
    int index = 0;  // event count on this track, for error messages
    bool has_request = false;
  };
  std::map<std::pair<int, int>, TrackState> tracks;

  for (const Json& e : doc.get("traceEvents").items()) {
    if (!e.is_object() || !e.get("name").is_string() || !e.get("ph").is_string()) {
      fail("event missing string name/ph");
      return res;
    }
    const std::string& ph = e.get("ph").as_string();
    if (ph == "M") continue;  // metadata
    if (ph != "X") {
      fail("unsupported event phase '" + ph + "'");
      return res;
    }
    if (!e.get("pid").is_number() || !e.get("tid").is_number() ||
        !e.get("ts").is_number() || !e.get("dur").is_number()) {
      fail("span event missing numeric pid/tid/ts/dur");
      return res;
    }
    const double ts = e.get("ts").as_number();
    const double dur = e.get("dur").as_number();
    if (dur < 0) {
      fail("negative duration on '" + e.get("name").as_string() + "'");
      return res;
    }
    const auto key = std::make_pair(static_cast<int>(e.get("pid").as_number()),
                                    static_cast<int>(e.get("tid").as_number()));
    TrackState& track = tracks[key];
    ++res.events;
    ++track.index;

    if (ts < track.last_ts - nest_eps(ts)) {
      fail("non-monotone timestamps on track pid " + std::to_string(key.first) + " tid " +
           std::to_string(key.second) + " at event " + std::to_string(track.index));
      return res;
    }
    track.last_ts = ts;

    const double end = ts + dur;
    // Close finished spans, then the new span must either nest inside the
    // innermost still-open span or start after it ended (sibling).
    while (!track.stack.empty() && ts >= track.stack.back().end - nest_eps(ts)) {
      track.stack.pop_back();
    }
    if (!track.stack.empty() && end > track.stack.back().end + nest_eps(end)) {
      fail("overlapping sibling spans on track pid " + std::to_string(key.first) + " tid " +
           std::to_string(key.second) + ": '" + e.get("name").as_string() + "' at ts " +
           std::to_string(ts));
      return res;
    }

    // Request-lane contract: a "lifecycle" span is the root of its request
    // tree (never nested in another request span); every other request span
    // is an orphan unless a lifecycle span encloses it.
    const std::string cat = e.get("cat").is_string() ? e.get("cat").as_string() : "";
    const std::string& name = e.get("name").as_string();
    const bool is_request = cat == "request";
    const bool is_lifecycle = is_request && name == "lifecycle";
    if (is_request) {
      track.has_request = true;
      if (is_lifecycle) {
        if (!track.stack.empty()) {
          fail("lifecycle span nested inside another span on track pid " +
               std::to_string(key.first) + " tid " + std::to_string(key.second) +
               " at ts " + std::to_string(ts));
          return res;
        }
      } else {
        bool inside_lifecycle = false;
        for (const Open& o : track.stack) inside_lifecycle |= o.lifecycle;
        if (!inside_lifecycle) {
          fail("orphan request span '" + name + "' outside any lifecycle on track pid " +
               std::to_string(key.first) + " tid " + std::to_string(key.second) +
               " at ts " + std::to_string(ts));
          return res;
        }
      }
    }
    track.stack.push_back({ts, end, is_lifecycle});
  }
  res.tracks = static_cast<int>(tracks.size());
  for (const auto& [key, track] : tracks) res.request_lanes += track.has_request ? 1 : 0;
  return res;
}

}  // namespace optimus::obs
