#pragma once

// MPI-style communicator over the simulated fabric.
//
// A Communicator names an ordered group of world ranks. Its collectives must
// be entered by every member in the same order (standard MPI contract), move
// real bytes through the fabric, and advance the simulated clock by the
// CostModel's closed-form time for the operation. They block, except
// ibroadcast/ireduce: those move their bytes at issue like the blocking forms
// but return a Request, and only Request::wait() advances the clock, so the
// modelled transfer overlaps whatever compute runs in between.
//
//   broadcast / reduce     — binomial tree  (paper eq. 4: log₂(g)·β·B), priced
//     ibroadcast / ireduce   as a chunked pipeline when the payload is large
//   all_reduce             — ring reduce-scatter + ring all-gather
//                            (paper eq. 5: 2(g−1)/g·β·B)
//   all_reduce_max / all_reduce_ordered — gather-to-0 fold + flat broadcast,
//                            charged and counted as the ring all_reduce
//   all_gather / reduce_scatter — ring
//   barrier                — dissemination (latency only)
//
// Reduction order is deterministic for a fixed group, so distributed runs are
// bit-reproducible; they differ from serial execution only by floating-point
// association.
//
// Every collective enters through one path, collective(): one rendezvous on
// this communicator's own fabric state (Fabric::Group, resolved once at
// construction) aligns the members' clocks and checks that all of them made
// the same call, and the call is traced and counted under that same name.

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/sim_clock.hpp"
#include "comm/topology.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace optimus::comm {

/// Simulated-time breakdown of one collective entry: every participant drains
/// local compute (clock → entry_local), aligns to the slowest member
/// (entry_aligned) and advances by the modelled operation time dt. The
/// align-wait (entry_aligned − entry_local) is this rank's idle time — the
/// tracer exports it separately from the transfer time.
struct CollectiveTiming {
  double entry_local = 0;
  double entry_aligned = 0;
  double dt = 0;

  double wait() const { return entry_aligned - entry_local; }
  double completion() const { return entry_aligned + dt; }
};

class Communicator;

/// A member's position in the binomial tree rooted at some group rank:
/// parent (or −1 at the root) and children in descending-mask order — the
/// order the broadcast forwards in; the reduce accumulates them in reverse
/// (ascending mask).
struct TreeTopo {
  int parent = -1;
  std::vector<int> children;
};

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

  /// In-place sum-reduce; the result is valid only at `root` afterwards.
  /// `scratch` (n elements) avoids the per-call receive buffer allocation;
  /// pass nullptr to let the call allocate its own.
  template <typename T>
  void reduce(T* data, tensor::index_t n, int root, T* scratch = nullptr);

  // -- non-blocking collectives ---------------------------------------------
  //
  // Run the same tree as the blocking forms, bytes included, and return a
  // Request. The modelled cost, clock alignment and stats are identical to
  // the blocking forms (recorded at issue); only this rank's clock advance
  // is deferred to Request::wait(), which is what lets a SUMMA step overlap
  // the next panel's transfer with the current GEMM. Must be issued by every
  // member in the same order, like any collective.

  /// Async broadcast: every member holds the root's payload on return.
  template <typename T>
  Request ibroadcast(T* data, tensor::index_t n, int root);

  /// Async sum-reduce toward `root`: `data` holds the local partial at issue
  /// and, at root, the sum on return. `scratch` as for reduce().
  template <typename T>
  Request ireduce(T* data, tensor::index_t n, int root, T* scratch = nullptr);

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
  template <typename T>
  void all_gather(const T* mine, tensor::index_t n, T* out);

  /// data has n·g elements; rank r's `out` receives the sum-reduced chunk r.
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
  // Internal tags: [comm_id : 32][seq : 24][phase : 8]. User p2p tags live in
  // a reserved high-seq band so they can never collide with collectives.
  std::uint64_t collective_tag(std::uint64_t seq, int phase) const {
    return (comm_id_ << 32) | (seq << 8) | static_cast<std::uint64_t>(phase);
  }
  std::uint64_t user_tag(int tag) const {
    OPT_CHECK(tag >= 0 && tag < (1 << 24), "user tag " << tag << " out of range");
    return (comm_id_ << 32) | (0xFFull << 24) | static_cast<std::uint64_t>(tag);
  }
  std::uint64_t next_seq() {
    const std::uint64_t s = seq_++;
    OPT_CHECK(s < (1ull << 24) - (1ull << 16), "collective sequence space exhausted");
    return s;
  }
  template <typename T>
  static CallSig call(const char* op, CallKind kind, tensor::index_t n, int root = -1) {
    return CallSig{op, kind, static_cast<std::int64_t>(n), root, static_cast<int>(sizeof(T))};
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
  };

  /// The entry path of every collective. Takes the next sequence number and
  /// returns a default result at once on a one-member group. Otherwise names
  /// the op for fault diagnostics and the trace, enters the rendezvous,
  /// records the stats, then runs `body(seq, timing)` to move the data. A body
  /// that returns a Request is only issued: Request::wait advances the clock.
  /// Any other blocks: the clock moves to the modelled completion here.
  template <typename Body>
  std::invoke_result_t<Body&, std::uint64_t, const CollectiveTiming&> collective(const Entry& e,
                                                                                Body&& body);

  /// Entry of a binomial-tree collective: the CostModel's tree plan, counted
  /// in `op` at log₂g units per element.
  template <typename T>
  Entry tree_entry(const char* name, CallKind kind, tensor::index_t n, int root,
                   CommStats::Op& op) const {
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
    return Entry{.sig = call<T>(name, kind, n, root),
                 .bytes = bytes,
                 .dt = plan.time,
                 .chunks = plan.chunks,
                 .op = &op,
                 .elems = static_cast<std::uint64_t>(n),
                 .weighted = static_cast<double>(n) * log2_ceil(size())};
  }

  /// Entry of an all-reduce: the CostModel's ring time (paper eq. 5),
  /// counted in CommStats::allreduce at 2(g−1)/g units per element.
  template <typename T>
  Entry allreduce_entry(const char* name, CallKind kind, tensor::index_t n) const {
    const int g = size();
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    return Entry{.sig = call<T>(name, kind, n),
                 .bytes = bytes,
                 .dt = cost_->ring_allreduce_time(group_, bytes),
                 .op = &stats_->allreduce,
                 .elems = static_cast<std::uint64_t>(n),
                 .weighted = static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g)};
  }

  /// all_reduce_max / all_reduce_ordered: gather to rank 0, which folds the
  /// members' payloads into its own in ascending rank order with `combine`,
  /// then a flat broadcast of the result. Charged and counted as the ring
  /// all_reduce. `phase` is the gather's tag phase; the broadcast uses the
  /// next one.
  template <typename T, typename Combine>
  void ordered_fold(const char* name, CallKind kind, int phase, T* data, tensor::index_t n,
                    Combine combine);

  /// g−1 ring hops over a payload split into g chunks, chunk c at `at(c)`
  /// (a {pointer, count} pair): hop s sends chunk (first − s) to the right
  /// neighbour and receives chunk (first − s − 1) from the left. With
  /// `incoming` (room for the largest chunk) the received chunk is added into
  /// place, a reduce-scatter hop; with nullptr it overwrites it, an all-gather
  /// hop.
  template <typename T, typename At>
  void ring_steps(int first, std::uint64_t tag, const At& at, T* incoming);

  /// Drains local compute into the clock and meets the group at the
  /// rendezvous (checking that every member made the call `sig`). Entry
  /// aligns on max(slowest member's clock, this communicator's link
  /// availability); the link is then reserved through the transfer `dt`, so
  /// back-to-back collectives on one communicator serialise even when issued
  /// without waiting (one link per communicator — row and column links are
  /// distinct and genuinely overlap). Does not advance this rank's clock.
  CollectiveTiming enter(std::uint64_t seq, const CallSig& sig, double dt);

  /// This rank's position in the binomial tree rooted at group rank `root`.
  TreeTopo tree_topo(int root) const;

  /// broadcast (kAsync false) and ibroadcast: MPICH-style binomial tree
  /// rooted at `root`; each member receives the whole payload from its
  /// parent, then forwards it to every child, one message per tree edge.
  template <bool kAsync, typename T>
  std::conditional_t<kAsync, Request, void> tree_broadcast(T* data, tensor::index_t n, int root);

  /// reduce (kAsync false) and ireduce: reverse binomial tree; each member
  /// adds its children's partials in ascending-mask order, then sends the
  /// sum to its parent, one message per tree edge.
  template <bool kAsync, typename T>
  std::conditional_t<kAsync, Request, void> tree_reduce(T* data, tensor::index_t n, int root,
                                                        T* scratch);

  template <typename T>
  void send_internal(int dst_group_rank, std::uint64_t tag, const T* data, tensor::index_t n);
  template <typename T>
  void recv_internal(int src_group_rank, std::uint64_t tag, T* data, tensor::index_t n);

  Fabric* fabric_;
  Fabric::Group* rendezvous_;  // this communicator's rendezvous state
  std::uint64_t comm_id_;
  std::vector<int> group_;  // world ranks
  int rank_;                // my index within group_
  SimClock* clock_;
  const CostModel* cost_;
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
void Communicator::send_internal(int dst_group_rank, std::uint64_t tag, const T* data,
                                 tensor::index_t n) {
  // Collective-internal transfer: bytes are accounted by the collective's Op
  // record, timing by its closed-form cost; no timestamp is carried.
  fabric_->send(world_rank(), group_[dst_group_rank], tag, data,
                static_cast<std::size_t>(n) * sizeof(T));
}

template <typename T>
void Communicator::recv_internal(int src_group_rank, std::uint64_t tag, T* data,
                                 tensor::index_t n) {
  (void)fabric_->recv(world_rank(), group_[src_group_rank], tag, data,
                      static_cast<std::size_t>(n) * sizeof(T));
}

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

template <typename Body>
std::invoke_result_t<Body&, std::uint64_t, const CollectiveTiming&> Communicator::collective(
    const Entry& e, Body&& body) {
  using Result = std::invoke_result_t<Body&, std::uint64_t, const CollectiveTiming&>;
  const std::uint64_t seq = next_seq();
  if (size() == 1) return Result();
  Fabric::OpScope op_scope(e.sig.op);
  obs::Span span("comm", e.sig.op);
  const CollectiveTiming ct = enter(seq, e.sig, e.dt);
  if constexpr (!std::is_same_v<Result, Request>) {
    // Lands on ct.completion(), split into align_wait and transfer.
    clock_->align_to(ct.entry_aligned);
    clock_->advance_transfer(ct.dt);
  }
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("g", size());
    span.arg("bytes", e.bytes);
    span.arg("wait_s", ct.wait());
    span.arg("transfer_s", ct.dt);
    if (e.chunks > 1) span.arg("chunks", e.chunks);
  }
  e.op->record(e.elems, e.bytes, e.weighted, ct.dt);
  return body(seq, ct);
}

template <typename T, typename At>
void Communicator::ring_steps(int first, std::uint64_t tag, const At& at, T* incoming) {
  const int g = size();
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  for (int s = 0; s < g - 1; ++s) {
    const auto [source, source_count] = at(((first - s) % g + g) % g);
    const auto [target, count] = at(((first - s - 1) % g + g) % g);
    send_internal(right, tag, source, source_count);
    if (incoming == nullptr) {
      recv_internal(left, tag, target, count);
      continue;
    }
    recv_internal(left, tag, incoming, count);
    for (tensor::index_t i = 0; i < count; ++i) target[i] += incoming[i];
  }
}

template <bool kAsync, typename T>
std::conditional_t<kAsync, Request, void> Communicator::tree_broadcast(T* data, tensor::index_t n,
                                                                       int root) {
  const Entry e = tree_entry<T>(kAsync ? "ibroadcast" : "broadcast", CallKind::kBroadcast, n,
                                root, stats_->broadcast);
  return collective(e, [&](std::uint64_t seq, const CollectiveTiming& ct) {
    const TreeTopo topo = tree_topo(root);
    const std::uint64_t tag = collective_tag(seq, 0);
    if (topo.parent >= 0) recv_internal(topo.parent, tag, data, n);
    for (int child : topo.children) send_internal(child, tag, data, n);
    if constexpr (kAsync) return Request(this, "ibroadcast.wait", ct.completion(), e.bytes);
  });
}

template <bool kAsync, typename T>
std::conditional_t<kAsync, Request, void> Communicator::tree_reduce(T* data, tensor::index_t n,
                                                                    int root, T* scratch) {
  const Entry e =
      tree_entry<T>(kAsync ? "ireduce" : "reduce", CallKind::kReduce, n, root, stats_->reduce);
  return collective(e, [&](std::uint64_t seq, const CollectiveTiming& ct) {
    const TreeTopo topo = tree_topo(root);
    const std::uint64_t tag = collective_tag(seq, 1);
    std::vector<T> owned;
    if (scratch == nullptr && !topo.children.empty()) {
      owned.resize(static_cast<std::size_t>(n));
      scratch = owned.data();
    }
    for (auto it = topo.children.rbegin(); it != topo.children.rend(); ++it) {
      recv_internal(*it, tag, scratch, n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] += scratch[i];
    }
    if (topo.parent >= 0) send_internal(topo.parent, tag, data, n);
    if constexpr (kAsync) return Request(this, "ireduce.wait", ct.completion(), e.bytes);
  });
}

template <typename T>
void Communicator::broadcast(T* data, tensor::index_t n, int root) {
  tree_broadcast<false>(data, n, root);
}

template <typename T>
void Communicator::reduce(T* data, tensor::index_t n, int root, T* scratch) {
  tree_reduce<false>(data, n, root, scratch);
}

template <typename T>
Request Communicator::ibroadcast(T* data, tensor::index_t n, int root) {
  return tree_broadcast<true>(data, n, root);
}

template <typename T>
Request Communicator::ireduce(T* data, tensor::index_t n, int root, T* scratch) {
  return tree_reduce<true>(data, n, root, scratch);
}

template <typename T>
void Communicator::all_reduce(T* data, tensor::index_t n) {
  const int g = size();
  collective(allreduce_entry<T>("allreduce", CallKind::kAllReduce, n),
             [&](std::uint64_t seq, const CollectiveTiming&) {
               // Ring all-reduce: g−1 reduce-scatter hops, then g−1 all-gather
               // hops, over contiguous chunks whose sizes differ by at most one.
               const auto at = [&](int c) {
                 const tensor::index_t begin = c * (n / g) + std::min<tensor::index_t>(c, n % g);
                 return std::pair{data + begin, n / g + (c < n % g ? 1 : 0)};
               };
               std::vector<T> incoming(static_cast<std::size_t>(n / g + 1));
               ring_steps(rank_, collective_tag(seq, 2), at, incoming.data());
               ring_steps(rank_ + 1, collective_tag(seq, 3), at, static_cast<T*>(nullptr));
             });
}

template <typename T, typename Combine>
void Communicator::ordered_fold(const char* name, CallKind kind, int phase, T* data,
                                tensor::index_t n, Combine combine) {
  const int g = size();
  collective(allreduce_entry<T>(name, kind, n), [&](std::uint64_t seq, const CollectiveTiming&) {
    const std::uint64_t gather_tag = collective_tag(seq, phase);
    const std::uint64_t broadcast_tag = collective_tag(seq, phase + 1);
    if (rank_ != 0) {
      send_internal(0, gather_tag, data, n);
      recv_internal(0, broadcast_tag, data, n);
      return;
    }
    std::vector<T> incoming(static_cast<std::size_t>(n));
    for (int r = 1; r < g; ++r) {
      recv_internal(r, gather_tag, incoming.data(), n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] = combine(data[i], incoming[i]);
    }
    for (int r = 1; r < g; ++r) send_internal(r, broadcast_tag, data, n);
  });
}

template <typename T>
void Communicator::all_reduce_max(T* data, tensor::index_t n) {
  ordered_fold("allreduce_max", CallKind::kAllReduceMax, 4, data, n,
               [](T a, T b) { return std::max(a, b); });
}

template <typename T>
void Communicator::all_reduce_ordered(T* data, tensor::index_t n) {
  // Rank 0's value + rank 1's + … + rank (g−1)'s for every element, whatever n.
  ordered_fold("allreduce_ordered", CallKind::kAllReduceOrdered, 11, data, n,
               [](T a, T b) { return a + b; });
}

template <typename T>
void Communicator::all_gather(const T* mine, tensor::index_t n, T* out) {
  const int g = size();
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  const Entry e{.sig = call<T>("allgather", CallKind::kAllGather, n),
                .bytes = total_bytes,
                .dt = cost_->ring_allgather_time(group_, total_bytes),
                .op = &stats_->allgather,
                .elems = static_cast<std::uint64_t>(n) * g,
                .weighted = static_cast<double>(n) * (g - 1)};
  const auto at = [&](int c) { return std::pair{out + static_cast<tensor::index_t>(c) * n, n}; };
  std::memcpy(at(rank_).first, mine, static_cast<std::size_t>(n) * sizeof(T));
  collective(e, [&](std::uint64_t seq, const CollectiveTiming&) {
    ring_steps(rank_, collective_tag(seq, 6), at, static_cast<T*>(nullptr));
  });
}

template <typename T>
void Communicator::reduce_scatter(const T* data, tensor::index_t n, T* out) {
  const int g = size();
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  const Entry e{.sig = call<T>("reducescatter", CallKind::kReduceScatter, n),
                .bytes = total_bytes,
                .dt = cost_->ring_reducescatter_time(group_, total_bytes),
                .op = &stats_->reducescatter,
                .elems = static_cast<std::uint64_t>(n) * g,
                .weighted = static_cast<double>(n) * (g - 1)};
  std::vector<T> work(data, data + n * g);
  const auto at = [&](int c) {
    return std::pair{work.data() + static_cast<tensor::index_t>(c) * n, n};
  };
  collective(e, [&](std::uint64_t seq, const CollectiveTiming&) {
    // A running sum for each chunk travels the ring, gaining one member's
    // contribution per hop. Starting at chunk (rank−1) makes the fully
    // reduced chunk r land at rank r.
    std::vector<T> incoming(static_cast<std::size_t>(n));
    ring_steps(rank_ - 1, collective_tag(seq, 7), at, incoming.data());
  });
  std::memcpy(out, at(rank_).first, static_cast<std::size_t>(n) * sizeof(T));
}

}  // namespace optimus::comm
