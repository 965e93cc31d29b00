#pragma once

// Runtime checking macros used across the library.
//
// OPT_CHECK(cond, msg...)   — always-on invariant check; throws optimus::util::CheckError.
// OPT_DCHECK(cond, msg...)  — compiled out in NDEBUG builds (hot paths only).
//
// We throw instead of aborting so that tests can assert on failure paths and
// so a simulated device failing surfaces as a catchable error on the
// launcher instead of tearing the whole process down.

#include <sstream>
#include <stdexcept>
#include <string>

namespace optimus::util {

/// Error thrown by OPT_CHECK failures. Carries file:line plus the streamed message.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* cond, const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

// Builds the message lazily: the stream work only happens on failure.
class MessageBuilder {
 public:
  template <typename T>
  MessageBuilder& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace optimus::util

#define OPT_CHECK(cond, ...)                                                        \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      ::optimus::util::detail::check_failed(                                        \
          #cond, __FILE__, __LINE__,                                                \
          (::optimus::util::detail::MessageBuilder{} __VA_OPT__(<< __VA_ARGS__)).str()); \
    }                                                                               \
  } while (0)

#ifdef NDEBUG
#define OPT_DCHECK(cond, ...) \
  do {                        \
  } while (0)
#else
#define OPT_DCHECK(cond, ...) OPT_CHECK(cond, __VA_ARGS__)
#endif
