#pragma once

// Runs the simulated ranks of a Cluster as fibers on one thread.
//
// The thread that calls Executor::run becomes the runner, the only thread
// that runs rank code. Each rank body runs as a fiber with its own stack and
// an unmapped guard region below it. The runner resumes fibers from a ready
// queue. By default it takes the queue's front (FIFO): first in rank order,
// then in the order they are woken or yield. An executor with a nonzero
// schedule seed instead resumes the fiber at a seeded draw over the queue,
// and every switch_point() (each collective's rendezvous entry and each
// point-to-point send and receive) yields, so each collective and message is
// a point where the ranks may reorder. A fiber runs until it
// returns, parks or yields, and nothing preempts it, so a seed (or FIFO)
// gives the same interleaving on every run, and state that ranks share needs
// no lock as long as no fiber switches while it holds that state
// inconsistent.
//
// Parking is how a rank waits. The Fabric parks a receive on its channel's
// WaitList and a rendezvous on its slot's, and wakes them when a message
// arrives, the last member arrives (and has moved the collective's data) or
// the fabric aborts. When the ready queue
// is empty while fibers are still parked, nothing can ever wake them: run()
// calls its on_deadlock hook, which must wake them (the Cluster aborts its
// fabric with a diagnostic naming what each rank waits for).
//
// What the process keeps per OS thread but means "this rank" is exchanged on
// every switch: the installed tensor::DeviceContext, the tracer's track, the
// log rank, the Fabric's op label and the C++ runtime's exception globals
// (so a fiber parked inside a catch handler cannot change another fiber's
// std::uncaught_exceptions()). Per-thread caches (GEMM pack buffers, thread
// pool flags) stay with the runner thread.

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace optimus::comm {

/// Fibers parked until some state changes. Used by one executor's fibers.
class WaitList {
 private:
  friend class Executor;
  std::vector<int> parked_;  // fiber indices, in park order
};

class Executor {
 public:
  /// Creates `fibers` fibers, each with its own stack. A nonzero
  /// `schedule_seed` makes the runner pick each next fiber by a seeded draw
  /// over the ready queue; 0 keeps FIFO order.
  explicit Executor(int fibers, std::uint64_t schedule_seed = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs body(i) as fiber i for every i, on the calling thread, until every
  /// body has returned. `on_deadlock` is called when no fiber can run but
  /// some are parked; it must wake them, or run() throws a CheckError. An
  /// exception that escapes a body is rethrown after every fiber returned
  /// (the first one, by fiber order of the throw).
  void run(const std::function<void(int)>& body, const std::function<void()>& on_deadlock);

  /// Suspends the calling fiber on `list` until wake_all(list). Throws
  /// CheckError outside a fiber (nothing could wake it) and inside a kernel
  /// parallel region (its pool workers would wait for the runner forever).
  static void park(WaitList& list);

  /// Moves every fiber parked on `list` to the back of the ready queue.
  static void wake_all(WaitList& list);

  /// Moves the calling fiber to the back of the ready queue; a no-op outside
  /// a fiber.
  static void yield();

  /// Yields if the running executor has a schedule seed; a no-op under FIFO
  /// order and outside a fiber.
  static void switch_point();

 private:
  struct Fiber;
  struct Runner;  // the runner's saved context and sanitizer bookkeeping

  static void entry();     // first frame of every fiber
  void resume(int index);  // runner -> fiber `index`, until it parks, yields or returns
  void suspend();          // running fiber -> runner

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::unique_ptr<Runner> runner_;
  std::deque<int> ready_;
  const std::uint64_t seed_;  // 0: FIFO
  int current_ = -1;  // the running fiber; -1 on the runner
  int live_ = 0;      // fibers that have not returned
  const std::function<void(int)>* body_ = nullptr;
  std::exception_ptr error_;
};

}  // namespace optimus::comm
