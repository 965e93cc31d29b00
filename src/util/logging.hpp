#pragma once

// Minimal leveled logger.
//
// Usage:  OPT_LOG(Info) << "trained step " << step;
//
// Output goes to stderr, one line per statement, prefixed with level, a
// monotonic timestamp and the simulated-device rank of the emitting thread
// (`r3`; `r-` for host code — comm::Cluster installs the rank for device
// threads via obs::ScopedTrack), so interleaved multi-device logs stay
// attributable. Thread-safe at line granularity (each statement's text is
// assembled privately and written with a single flush). The global level is
// settable at runtime (examples expose a --log-level flag).

#include <iostream>
#include <sstream>
#include <string>

namespace optimus::util {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global minimum level; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);
/// Parse "debug"/"info"/"warn"/"error"/"off"; throws CheckError on anything else.
LogLevel parse_log_level(const std::string& name);

/// Simulated-device rank tag for log lines emitted by this thread: -1 (the
/// default) prints as `r-` (host code), ranks >= 0 as `rN`. Installed for
/// simulated devices by obs::ScopedTrack / comm::Cluster.
int thread_log_rank();
void set_thread_log_rank(int rank);

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) os_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace optimus::util

#define OPT_LOG(level) \
  ::optimus::util::detail::LogLine(::optimus::util::LogLevel::level, __FILE__, __LINE__)
