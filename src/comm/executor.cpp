#include "comm/executor.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "comm/fabric.hpp"
#include "kernel/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tensor/device_context.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

// Every switch is announced to the sanitizers (GCC defines these macros
// under -fsanitize=address / -fsanitize=thread).
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace optimus::comm {

namespace {

// Each fiber's stack: as large as a default thread stack, reserved but only
// committed as it is touched, with an unmapped guard region below it so an
// overflow faults instead of running into a neighbour's memory.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kGuardBytes = std::size_t{64} << 10;

thread_local Executor* t_executor = nullptr;

/// libstdc++'s __cxa_eh_globals (unwind-cxx.h): the stack of exceptions being
/// handled and the count of thrown-but-uncaught ones.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

/// The per-thread state that means "this rank", kept here while its fiber
/// is not running.
struct RankLocals {
  tensor::DeviceContext* device = nullptr;
  obs::TrackState track;
  int log_rank = -1;
  const char* op = nullptr;
  EhGlobals eh;

  /// Swaps this state with the calling thread's.
  void exchange() {
    std::swap(device, tensor::DeviceContext::current_slot());
    obs::swap_track(track);
    const int thread_log_rank = util::thread_log_rank();
    util::set_thread_log_rank(log_rank);
    log_rank = thread_log_rank;
    std::swap(op, Fabric::op_slot());
    void* const globals = abi::__cxa_get_globals();
    EhGlobals thread_eh;
    std::memcpy(&thread_eh, globals, sizeof thread_eh);
    std::memcpy(globals, &eh, sizeof eh);
    eh = thread_eh;
  }
};

}  // namespace

struct Executor::Fiber {
  Fiber() {
    mapping = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    OPT_CHECK(mapping != MAP_FAILED, "cannot map a " << (kStackBytes >> 20) << " MiB fiber stack: "
                                                     << std::strerror(errno));
    if (mprotect(mapping, kGuardBytes, PROT_NONE) != 0 || getcontext(&context) != 0) {
      const int error = errno;
      munmap(mapping, kGuardBytes + kStackBytes);
      OPT_CHECK(false, "cannot set up a fiber stack: " << std::strerror(error));
    }
    context.uc_stack.ss_sp = stack();
    context.uc_stack.ss_size = kStackBytes;
    context.uc_link = nullptr;
    makecontext(&context, &Executor::entry, 0);
#ifdef __SANITIZE_THREAD__
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }
  ~Fiber() {
#ifdef __SANITIZE_THREAD__
    __tsan_destroy_fiber(tsan_fiber);
#endif
    munmap(mapping, kGuardBytes + kStackBytes);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  char* stack() const { return static_cast<char*>(mapping) + kGuardBytes; }

  ucontext_t context{};
  void* mapping = nullptr;
  RankLocals locals;
  bool done = false;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

struct Executor::Runner {
  ucontext_t context{};
  // ASan: the runner's stack, learnt when a fiber first switches from it.
  const void* stack = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;  // TSan: the runner thread's own fiber
};

Executor::Executor(int fibers, std::uint64_t schedule_seed)
    : runner_(std::make_unique<Runner>()), seed_(schedule_seed) {
  OPT_CHECK(fibers >= 1, "executor with " << fibers << " fibers");
  fibers_.reserve(static_cast<std::size_t>(fibers));
  for (int i = 0; i < fibers; ++i) fibers_.push_back(std::make_unique<Fiber>());
}

Executor::~Executor() = default;

void Executor::run(const std::function<void(int)>& body,
                   const std::function<void()>& on_deadlock) {
  OPT_CHECK(body_ == nullptr, "Executor::run called twice");
  // Fibers of this executor may run another executor (a Cluster inside a
  // rank body); the outer one is current again when this returns.
  struct Current {
    Executor* outer = t_executor;
    explicit Current(Executor* ex) { t_executor = ex; }
    ~Current() { t_executor = outer; }
  } current(this);
  body_ = &body;
  live_ = static_cast<int>(fibers_.size());
#ifdef __SANITIZE_THREAD__
  runner_->tsan_fiber = __tsan_get_current_fiber();
#endif
  for (int i = 0; i < live_; ++i) ready_.push_back(i);
  for (std::uint64_t picks = 0; live_ > 0; ++picks) {
    if (ready_.empty()) {
      on_deadlock();
      OPT_CHECK(!ready_.empty(),
                live_ << " fibers are parked and the deadlock hook woke none of them");
    }
    const auto pick = static_cast<std::ptrdiff_t>(
        seed_ == 0 ? 0 : util::mix3(seed_, picks, 0) % ready_.size());
    const int next = ready_[static_cast<std::size_t>(pick)];
    ready_.erase(ready_.begin() + pick);
    resume(next);
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Executor::resume(int index) {
  Fiber& f = *fibers_[static_cast<std::size_t>(index)];
  current_ = index;
  f.locals.exchange();
#ifdef __SANITIZE_ADDRESS__
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f.stack(), kStackBytes);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&runner_->context, &f.context);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  f.locals.exchange();
  current_ = -1;
  if (f.done) --live_;
}

void Executor::suspend() {
  Fiber& f = *fibers_[static_cast<std::size_t>(current_)];
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_start_switch_fiber(&f.asan_fake_stack, runner_->stack, runner_->stack_size);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(runner_->tsan_fiber, 0);
#endif
  swapcontext(&f.context, &runner_->context);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(f.asan_fake_stack, &runner_->stack, &runner_->stack_size);
#endif
}

void Executor::entry() {
  Executor& ex = *t_executor;
  const int index = ex.current_;
  Runner& runner = *ex.runner_;
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, &runner.stack, &runner.stack_size);
#endif
  try {
    (*ex.body_)(index);
  } catch (...) {
    if (!ex.error_) ex.error_ = std::current_exception();
  }
  ex.fibers_[static_cast<std::size_t>(index)]->done = true;
  // Leave for good: this stack is never resumed, so ASan may drop its fake
  // stack (nullptr) and nothing needs saving.
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_start_switch_fiber(nullptr, runner.stack, runner.stack_size);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(runner.tsan_fiber, 0);
#endif
  setcontext(&runner.context);
}

void Executor::park(WaitList& list) {
  Executor* const ex = t_executor;
  OPT_CHECK(ex != nullptr && ex->current_ >= 0,
            "blocking wait outside a fiber: nothing could ever wake it (run ranks that wait "
            "for each other through comm::Cluster)");
  OPT_CHECK(!kernel::ThreadPool::in_region(),
            "blocking wait inside a kernel parallel region: its pool workers would wait for "
            "the runner forever");
  list.parked_.push_back(ex->current_);
  ex->suspend();
}

void Executor::wake_all(WaitList& list) {
  if (list.parked_.empty()) return;
  Executor* const ex = t_executor;
  ex->ready_.insert(ex->ready_.end(), list.parked_.begin(), list.parked_.end());
  list.parked_.clear();
}

void Executor::yield() {
  Executor* const ex = t_executor;
  if (ex == nullptr || ex->current_ < 0) return;
  ex->ready_.push_back(ex->current_);
  ex->suspend();
}

void Executor::switch_point() {
  const Executor* const ex = t_executor;
  if (ex != nullptr && ex->seed_ != 0) yield();
}

}  // namespace optimus::comm
