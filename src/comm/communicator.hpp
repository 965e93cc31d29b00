#pragma once

// MPI-style communicator over the simulated fabric.
//
// A Communicator names an ordered group of world ranks. Its collectives must
// be entered by every member in the same order (standard MPI contract), move
// real bytes between the members' buffers, and advance the simulated clock by
// the CostModel's closed-form time for the operation. They block, except
// ibroadcast/ireduce: those move their bytes at issue like the blocking forms
// but return a Request, and only Request::wait() advances the clock, so the
// modelled transfer overlaps whatever compute runs in between.
//
// Every collective enters through one path, collective(): one rendezvous on
// this communicator's own fabric state (Fabric::Group, resolved once at
// construction) aligns the members' clocks, checks that all of them made the
// same call, and moves the data: each member deposits its buffers, and the
// last to arrive runs the op's fold over all of them before anyone leaves.
// The call is traced and counted under that same name. Each fold keeps the
// arithmetic order of the algorithm the op is priced as:
//
//   broadcast / reduce     — binomial tree  (paper eq. 4: log₂(g)·β·B), priced
//     ibroadcast / ireduce   as a chunked pipeline when the payload is large;
//                            the reduce adds each member's children in
//                            ascending-mask order, and interior members keep
//                            their subtree's partial sum
//   all_reduce             — ring reduce-scatter + ring all-gather
//                            (paper eq. 5: 2(g−1)/g·β·B): chunk c is summed
//                            member by member around the ring from member c
//   all_reduce_max / all_reduce_ordered — members folded in rank order into
//                            member 0, charged and counted as the ring
//                            all_reduce
//   all_gather / reduce_scatter — ring (copies; reduce-scatter sums chunk c
//                            around the ring from member c + 1)
//   barrier                — dissemination (latency only, no data)
//
// Reduction order is deterministic for a fixed group, so distributed runs are
// bit-reproducible; they differ from serial execution only by floating-point
// association. Point-to-point send/recv go through the fabric's channels.

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/sim_clock.hpp"
#include "comm/topology.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace optimus::comm {

class Communicator;

/// Handle for a non-blocking collective (ibroadcast/ireduce). The collective
/// moved its bytes at issue; its modelled transfer is still in flight on the
/// simulated clock. wait() advances this rank's clock only if it is still
/// behind the modelled completion — compute done in between overlaps for
/// free, so a pipelined step costs max(comm, compute) instead of their sum.
///
/// Wait every issued request: until then this rank's clock has not paid for
/// the transfer. Move-only; default-constructed requests are inert.
class Request {
 public:
  Request() = default;
  Request(Request&& o) noexcept { *this = std::move(o); }
  Request& operator=(Request&& o) noexcept {
    comm_ = std::exchange(o.comm_, nullptr);
    wait_op_ = o.wait_op_;
    completion_ = o.completion_;
    bytes_ = o.bytes_;
    return *this;
  }

  bool active() const { return comm_ != nullptr; }

  /// Moves this rank's clock to the modelled completion; no data moves.
  void wait();

 private:
  friend class Communicator;
  Request(Communicator* comm, const char* wait_op, double completion, std::uint64_t bytes)
      : comm_(comm), wait_op_(wait_op), completion_(completion), bytes_(bytes) {}

  Communicator* comm_ = nullptr;
  const char* wait_op_ = "";  // string literal (obs::Span lifetime contract)
  double completion_ = 0;
  std::uint64_t bytes_ = 0;
};

class Communicator {
 public:
  Communicator(Fabric& fabric, std::uint64_t comm_id, std::vector<int> group, int world_rank,
               SimClock& clock, const CostModel& cost, CommStats& stats);

  /// Human-readable role of this communicator in traces/metrics ("world",
  /// "row", "col", ...). Split results start unnamed; Mesh2D names its own.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  int world_rank() const { return group_[rank_]; }
  int world_rank_of(int r) const { return group_[r]; }
  const std::vector<int>& group() const { return group_; }
  const CostModel& cost() const { return *cost_; }
  SimClock& clock() { return *clock_; }
  CommStats& stats() { return *stats_; }

  /// MPI_Comm_split: members with equal `color` form a new communicator,
  /// ordered by (key, world rank). Collective over this communicator.
  Communicator split(int color, int key);

  // -- point-to-point (user tag space; also advances the clock by α+βB) -----

  template <typename T>
  void send(int dst, int tag, const T* data, tensor::index_t n);

  template <typename T>
  void recv(int src, int tag, T* data, tensor::index_t n);

  // -- collectives ----------------------------------------------------------

  template <typename T>
  void broadcast(T* data, tensor::index_t n, int root);

  /// Broadcast out of place: the root's `src` is the payload, every other
  /// member receives it in `dst`. The root only reads `src` (it may be a
  /// const block) and leaves its own `dst` untouched; other members' `src`
  /// is never read. broadcast(data, n, root) is broadcast(data, data, n, root).
  template <typename T>
  void broadcast(const T* src, T* dst, tensor::index_t n, int root);

  /// In-place sum-reduce; the result is valid only at `root` afterwards.
  template <typename T>
  void reduce(T* data, tensor::index_t n, int root);

  // -- non-blocking collectives ---------------------------------------------
  //
  // Move the same bytes by the same fold as the blocking forms, and return a
  // Request. The modelled cost, clock alignment and stats are identical to
  // the blocking forms (recorded at issue); only this rank's clock advance
  // is deferred to Request::wait(), which is what lets a SUMMA step overlap
  // the next panel's transfer with the current GEMM. Must be issued by every
  // member in the same order, like any collective.

  /// Async broadcast: every member holds the root's payload on return.
  template <typename T>
  Request ibroadcast(T* data, tensor::index_t n, int root);

  /// Async out-of-place broadcast: the root reads `src`, every other member
  /// holds the payload in `dst` on return (see the blocking form).
  template <typename T>
  Request ibroadcast(const T* src, T* dst, tensor::index_t n, int root);

  /// Async sum-reduce toward `root`: `data` holds the local partial at issue
  /// and, at root, the sum on return.
  template <typename T>
  Request ireduce(T* data, tensor::index_t n, int root);

  /// In-place ring all-reduce (sum).
  template <typename T>
  void all_reduce(T* data, tensor::index_t n);

  /// Element-wise max all-reduce (used by the distributed softmax).
  template <typename T>
  void all_reduce_max(T* data, tensor::index_t n);

  /// Sum all-reduce with a payload-size-independent fold order: every element
  /// is accumulated rank 0 → g−1. The ring all_reduce folds each chunk
  /// starting at a rank derived from the chunk *layout*, so two payloads of
  /// different length reassociate differently; incremental decode needs the
  /// single-row reduction to match the full-prefix one bitwise, which this
  /// guarantees. Modelled/recorded with the same ring cost as all_reduce.
  template <typename T>
  void all_reduce_ordered(T* data, tensor::index_t n);

  /// Gathers each rank's `n` elements into `out` (size n·g), rank order.
  /// `mine` may be `out + rank()·n` (in place) but no other chunk of any
  /// member's `out`.
  template <typename T>
  void all_gather(const T* mine, tensor::index_t n, T* out);

  /// data has n·g elements; rank r's `out` receives the sum-reduced chunk r.
  /// `out` must not overlap any member's `data`.
  template <typename T>
  void reduce_scatter(const T* data, tensor::index_t n, T* out);

  void barrier();

  // -- tensor conveniences --------------------------------------------------

  template <typename T>
  void broadcast(tensor::TensorT<T>& t, int root) {
    broadcast(t.data(), t.numel(), root);
  }
  template <typename T>
  void reduce(tensor::TensorT<T>& t, int root) {
    reduce(t.data(), t.numel(), root);
  }
  template <typename T>
  void all_reduce(tensor::TensorT<T>& t) {
    all_reduce(t.data(), t.numel());
  }
  template <typename T>
  void all_reduce_max(tensor::TensorT<T>& t) {
    all_reduce_max(t.data(), t.numel());
  }
  template <typename T>
  void all_reduce_ordered(tensor::TensorT<T>& t) {
    all_reduce_ordered(t.data(), t.numel());
  }

 private:
  // Point-to-point tags: [comm_id : 32][user tag : 32], so the same user tag
  // on two communicators never matches (Fabric::describe_wait decodes it).
  std::uint64_t user_tag(int tag) const {
    OPT_CHECK(tag >= 0, "user tag " << tag << " out of range");
    return (comm_id_ << 32) | static_cast<std::uint64_t>(tag);
  }
  template <typename T>
  static CallSig call(const char* op, CallKind kind, tensor::index_t n, int root = -1) {
    return CallSig{op, kind, static_cast<std::int64_t>(n), root, static_cast<int>(sizeof(T))};
  }
  template <typename T>
  static T* out_of(const Deposit& d) {
    return static_cast<T*>(d.out);
  }
  template <typename T>
  static const T* in_of(const Deposit& d) {
    return static_cast<const T*>(d.in);
  }
  template <typename T>
  static void copy(T* dst, const T* src, tensor::index_t n) {
    if (dst != src && n > 0) std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(T));
  }

  /// One collective call as its entry path sees it.
  struct Entry {
    CallSig sig;                  // op name (fault scope, span, rendezvous) and signature
    std::uint64_t bytes = 0;      // payload bytes, for the span and the stats
    double dt = 0;                // modelled time (CostModel)
    int chunks = 1;               // tree plan's chunks (cost only); >1 is noted on the span
    CommStats::Op* op = nullptr;  // where the call is counted,
    std::uint64_t elems = 0;      // with its elements
    double weighted = 0;          // and Table-1 units (elems × the β-multiplier)
    const char* wait_op = nullptr;  // async forms: the Request's wait-span name
  };

  /// The entry path of every collective. Takes the next sequence number; on
  /// a one-member group runs `fold` over `mine` alone and returns. Otherwise
  /// names the op for fault diagnostics and the trace, drains local compute
  /// into the clock and meets the group at the rendezvous, which checks that
  /// every member made the call `e.sig` and where the last arriver runs
  /// `fold` over every member's deposit. Entry aligns on max(slowest
  /// member's clock, this communicator's link availability); the link is
  /// then reserved through the transfer `e.dt`, so back-to-back collectives
  /// on one communicator serialise even when issued without waiting (one
  /// link per communicator — row and column links are distinct and
  /// genuinely overlap). Records the stats. An async call (`e.wait_op` set)
  /// returns a Request whose wait advances the clock; a blocking one moves
  /// the clock to the modelled completion here and returns an inert Request.
  Request collective(const Entry& e, const Deposit& mine, Fold fold);

  /// Entry of a binomial-tree collective: the CostModel's tree plan, counted
  /// in `op` at log₂g units per element.
  template <typename T>
  Entry tree_entry(const char* name, const char* wait_op, CallKind kind, tensor::index_t n,
                   int root, CommStats::Op& op) const {
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    const CostModel::TreePlan plan = cost_->tree_plan(price_, bytes);
    return Entry{.sig = call<T>(name, kind, n, root),
                 .bytes = bytes,
                 .dt = plan.time,
                 .chunks = plan.chunks,
                 .op = &op,
                 .elems = static_cast<std::uint64_t>(n),
                 .weighted = static_cast<double>(n) * log2_ceil(size()),
                 .wait_op = wait_op};
  }

  /// Entry of an all-reduce: the CostModel's ring time (paper eq. 5),
  /// counted in CommStats::allreduce at 2(g−1)/g units per element.
  template <typename T>
  Entry allreduce_entry(const char* name, CallKind kind, tensor::index_t n) const {
    const int g = size();
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    return Entry{.sig = call<T>(name, kind, n),
                 .bytes = bytes,
                 .dt = cost_->ring_allreduce_time(price_, bytes),
                 .op = &stats_->allreduce,
                 .elems = static_cast<std::uint64_t>(n),
                 .weighted = static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g)};
  }

  /// all_reduce_max / all_reduce_ordered: folds every member's payload into
  /// member 0's in ascending rank order with `combine`, then copies the
  /// result to every member. Charged and counted as the ring all_reduce.
  template <typename T, typename Combine>
  void ordered_fold(const char* name, CallKind kind, T* data, tensor::index_t n,
                    Combine combine);

  /// broadcast and ibroadcast (`wait_op` set): binomial tree rooted at
  /// `root`; the root's `src` is copied to every other member's `dst`.
  template <typename T>
  Request tree_broadcast(const char* name, const char* wait_op, const T* src, T* dst,
                         tensor::index_t n, int root);

  /// reduce and ireduce (`wait_op` set): reverse binomial tree toward `root`.
  template <typename T>
  Request tree_reduce(const char* name, const char* wait_op, T* data, tensor::index_t n,
                      int root);

  Fabric* fabric_;
  Fabric::Group* rendezvous_;  // this communicator's rendezvous state
  std::uint64_t comm_id_;
  std::vector<int> group_;  // world ranks
  int rank_;                // my index within group_
  SimClock* clock_;
  const CostModel* cost_;
  GroupCost price_;  // group_ priced once; every collective's time reads it
  CommStats* stats_;
  std::uint64_t seq_ = 0;
  std::string label_;
  // Simulated time until which this communicator's link is occupied by
  // already-issued (possibly un-waited) collectives. Identical across ranks
  // by induction: every member issues the same collectives in the same order
  // and entry alignment is a group-wide max.
  double link_busy_until_ = 0;

  friend class Request;
};

// ===========================================================================
// Template implementations
// ===========================================================================

template <typename T>
void Communicator::send(int dst, int tag, const T* data, tensor::index_t n) {
  Fabric::OpScope op_scope("send");
  obs::Span span("comm", "send");
  clock_->drain_compute(*cost_);
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  const double dt = cost_->p2p_time(world_rank(), group_[dst], bytes);
  if (obs::flight_enabled()) {
    obs::flight_note("comm", "send", clock_->now(),
                     "dst=" + std::to_string(group_[dst]) + " bytes=" + std::to_string(bytes));
  }
  clock_->advance_transfer(dt);
  stats_->p2p_messages += 1;
  stats_->p2p_bytes += bytes;
  stats_->p2p_time += dt;
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("dst", group_[dst]);
    span.arg("bytes", bytes);
    span.arg("transfer_s", dt);
  }
  // The timestamp carries the post-transfer clock so the receiver observes
  // causality (it cannot have the data before the sender finished sending).
  fabric_->send(world_rank(), group_[dst], user_tag(tag), data,
                static_cast<std::size_t>(n) * sizeof(T), clock_->now());
}

template <typename T>
void Communicator::recv(int src, int tag, T* data, tensor::index_t n) {
  Fabric::OpScope op_scope("recv");
  obs::Span span("comm", "recv");
  clock_->drain_compute(*cost_);
  if (obs::flight_enabled()) {
    obs::flight_note("comm", "recv", clock_->now(),
                     "src=" + std::to_string(group_[src]) + " bytes=" +
                         std::to_string(static_cast<std::uint64_t>(n) * sizeof(T)));
  }
  const double sender_ts = fabric_->recv(world_rank(), group_[src], user_tag(tag), data,
                                         static_cast<std::size_t>(n) * sizeof(T));
  clock_->align_to(sender_ts);
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("src", group_[src]);
    span.arg("bytes", static_cast<std::uint64_t>(n) * sizeof(T));
  }
}

template <typename T>
Request Communicator::tree_broadcast(const char* name, const char* wait_op, const T* src,
                                     T* dst, tensor::index_t n, int root) {
  const int g = size();
  const auto fold = [&](const Deposit* d) {
    const T* payload = in_of<T>(d[root]);
    for (int m = 0; m < g; ++m) {
      if (m != root) copy(out_of<T>(d[m]), payload, n);
    }
  };
  return collective(tree_entry<T>(name, wait_op, CallKind::kBroadcast, n, root, stats_->broadcast),
                    Deposit{src, dst, rank_ != root}, fold);
}

template <typename T>
Request Communicator::tree_reduce(const char* name, const char* wait_op, T* data,
                                  tensor::index_t n, int root) {
  const int g = size();
  // Round `mask` adds every member's partial at relative rank rel + mask into
  // rel's, for rel a multiple of 2·mask: each member adds its children in
  // ascending-mask order, and a child's subtree (masks below its own) is
  // complete before it is added. Relative rank rel receives iff it has a
  // child, i.e. rel is even and rel + 1 < g.
  const auto fold = [&](const Deposit* d) {
    for (int mask = 1; mask < g; mask <<= 1) {
      for (int rel = 0; rel + mask < g; rel += 2 * mask) {
        T* into = out_of<T>(d[(rel + root) % g]);
        const T* child = out_of<T>(d[(rel + mask + root) % g]);
        for (tensor::index_t i = 0; i < n; ++i) into[i] += child[i];
      }
    }
  };
  const int rel = (rank_ - root + g) % g;
  return collective(tree_entry<T>(name, wait_op, CallKind::kReduce, n, root, stats_->reduce),
                    Deposit{data, data, rel % 2 == 0 && rel + 1 < g}, fold);
}

template <typename T>
void Communicator::broadcast(T* data, tensor::index_t n, int root) {
  tree_broadcast("broadcast", nullptr, data, data, n, root);
}

template <typename T>
void Communicator::broadcast(const T* src, T* dst, tensor::index_t n, int root) {
  tree_broadcast("broadcast", nullptr, src, dst, n, root);
}

template <typename T>
void Communicator::reduce(T* data, tensor::index_t n, int root) {
  tree_reduce("reduce", nullptr, data, n, root);
}

template <typename T>
Request Communicator::ibroadcast(T* data, tensor::index_t n, int root) {
  return tree_broadcast("ibroadcast", "ibroadcast.wait", data, data, n, root);
}

template <typename T>
Request Communicator::ibroadcast(const T* src, T* dst, tensor::index_t n, int root) {
  return tree_broadcast("ibroadcast", "ibroadcast.wait", src, dst, n, root);
}

template <typename T>
Request Communicator::ireduce(T* data, tensor::index_t n, int root) {
  return tree_reduce("ireduce", "ireduce.wait", data, n, root);
}

template <typename T>
void Communicator::all_reduce(T* data, tensor::index_t n) {
  const int g = size();
  // The ring's reduce-scatter: chunk c (contiguous, sizes differing by at
  // most one) starts at member c and gains one member's contribution per
  // hop, own + running, ending fully reduced at member c − 1; the ring's
  // all-gather then copies it to everyone.
  const auto fold = [&](const Deposit* d) {
    for (int c = 0; c < g; ++c) {
      const tensor::index_t begin = c * (n / g) + std::min<tensor::index_t>(c, n % g);
      const tensor::index_t count = n / g + (c < n % g ? 1 : 0);
      const T* running = out_of<T>(d[c]) + begin;
      for (int k = 1; k < g; ++k) {
        T* own = out_of<T>(d[(c + k) % g]) + begin;
        for (tensor::index_t i = 0; i < count; ++i) own[i] += running[i];
        running = own;
      }
      for (int k = 0; k < g - 1; ++k) copy(out_of<T>(d[(c + k) % g]) + begin, running, count);
    }
  };
  collective(allreduce_entry<T>("allreduce", CallKind::kAllReduce, n),
             Deposit{data, data, true}, fold);
}

template <typename T, typename Combine>
void Communicator::ordered_fold(const char* name, CallKind kind, T* data, tensor::index_t n,
                                Combine combine) {
  const int g = size();
  const auto fold = [&](const Deposit* d) {
    T* acc = out_of<T>(d[0]);
    for (int m = 1; m < g; ++m) {
      const T* x = out_of<T>(d[m]);
      for (tensor::index_t i = 0; i < n; ++i) acc[i] = combine(acc[i], x[i]);
    }
    for (int m = 1; m < g; ++m) copy(out_of<T>(d[m]), acc, n);
  };
  collective(allreduce_entry<T>(name, kind, n), Deposit{data, data, true}, fold);
}

template <typename T>
void Communicator::all_reduce_max(T* data, tensor::index_t n) {
  ordered_fold("allreduce_max", CallKind::kAllReduceMax, data, n,
               [](T a, T b) { return std::max(a, b); });
}

template <typename T>
void Communicator::all_reduce_ordered(T* data, tensor::index_t n) {
  // Rank 0's value + rank 1's + … + rank (g−1)'s for every element, whatever n.
  ordered_fold("allreduce_ordered", CallKind::kAllReduceOrdered, data, n,
               [](T a, T b) { return a + b; });
}

template <typename T>
void Communicator::all_gather(const T* mine, tensor::index_t n, T* out) {
  const int g = size();
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  const Entry e{.sig = call<T>("allgather", CallKind::kAllGather, n),
                .bytes = total_bytes,
                .dt = cost_->ring_allgather_time(price_, total_bytes),
                .op = &stats_->allgather,
                .elems = static_cast<std::uint64_t>(n) * g,
                .weighted = static_cast<double>(n) * (g - 1)};
  const auto fold = [&](const Deposit* d) {
    for (int m = 0; m < g; ++m) {
      for (int k = 0; k < g; ++k) copy(out_of<T>(d[k]) + m * n, in_of<T>(d[m]), n);
    }
  };
  collective(e, Deposit{mine, out, true}, fold);
}

template <typename T>
void Communicator::reduce_scatter(const T* data, tensor::index_t n, T* out) {
  const int g = size();
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  const Entry e{.sig = call<T>("reducescatter", CallKind::kReduceScatter, n),
                .bytes = total_bytes,
                .dt = cost_->ring_reducescatter_time(price_, total_bytes),
                .op = &stats_->reducescatter,
                .elems = static_cast<std::uint64_t>(n) * g,
                .weighted = static_cast<double>(n) * (g - 1)};
  // A running sum for chunk c travels the ring from member c + 1, gaining
  // one member's contribution per hop, own + running, and lands fully
  // reduced at member c, which accumulates it in its `out`.
  const auto fold = [&](const Deposit* d) {
    for (int c = 0; c < g; ++c) {
      T* sum = out_of<T>(d[c]);
      copy(sum, in_of<T>(d[(c + 1) % g]) + c * n, n);
      for (int k = 2; k <= g; ++k) {
        const T* own = in_of<T>(d[(c + k) % g]) + c * n;
        for (tensor::index_t i = 0; i < n; ++i) sum[i] = own[i] + sum[i];
      }
    }
  };
  collective(e, Deposit{data, out, true}, fold);
}

}  // namespace optimus::comm
