#pragma once

// MPI-style communicator over the simulated fabric.
//
// A Communicator names an ordered group of world ranks. Collectives are
// blocking, must be entered by every member in the same order (standard MPI
// contract), move real bytes through the fabric, and advance the simulated
// clock by the CostModel's closed-form time for the operation:
//
//   broadcast / reduce     — binomial tree  (paper eq. 4: log₂(g)·β·B)
//   all_reduce             — ring reduce-scatter + ring all-gather
//                            (paper eq. 5: 2(g−1)/g·β·B)
//   all_gather / reduce_scatter — ring
//   barrier                — dissemination (latency only)
//
// Reduction order is deterministic for a fixed group, so distributed runs are
// bit-reproducible; they differ from serial execution only by floating-point
// association.
//
// Every collective enters through one rendezvous on this communicator's own
// fabric state (Fabric::Group, resolved once at construction): it aligns the
// members' clocks and checks that all of them made the same call.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
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

/// A contiguous run [begin, begin + count) of a chunked payload.
struct Chunk {
  tensor::index_t begin = 0;
  tensor::index_t count = 0;
};

/// Handle for a non-blocking collective (ibroadcast/ireduce). The operation's
/// cost was modelled at issue time; wait() performs any deferred data
/// movement, then advances this rank's clock only if it is still behind the
/// modelled completion — compute done in between overlaps for free, so a
/// pipelined step costs max(comm, compute) instead of their sum.
///
/// Every issued request must be waited exactly once (unless unwinding from a
/// fabric abort). Move-only; default-constructed requests are inert.
class Request {
 public:
  Request() = default;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  bool active() const { return st_ != nullptr; }

  /// Completes the collective on this rank; may throw FaultError /
  /// FabricAborted if the fabric died while the payload was in flight.
  void wait();

 private:
  friend class Communicator;
  struct State {
    Communicator* comm = nullptr;
    const char* wait_op = "";  // string literal (obs::Span lifetime contract)
    double completion = 0;
    double issue_local = 0;
    double dt = 0;
    std::uint64_t bytes = 0;
    // Deferred tree steps (receives, forwards, accumulates) of a non-root
    // broadcast or non-leaf reduce; null when everything moved at issue.
    void (*finish)(State&) = nullptr;
    TreeTopo topo;
    std::vector<Chunk> chunks;
    std::uint64_t tag = 0;
    void* data = nullptr;
    void* scratch = nullptr;                    // reduce receive buffer
    std::unique_ptr<std::byte[]> owned_scratch;  // when the caller passed none
  };
  explicit Request(std::unique_ptr<State> st) : st_(std::move(st)) {}
  std::unique_ptr<State> st_;
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
  // Issue now, complete at Request::wait(). The modelled cost, clock
  // alignment and stats are identical to the blocking forms (recorded at
  // issue); only this rank's clock advance is deferred, which is what lets a
  // SUMMA step overlap the next panel's transfer with the current GEMM. Must
  // be issued by every member in the same order, like any collective.

  /// Async broadcast. `data` must stay valid (and, on non-root ranks,
  /// untouched) until wait() returns.
  template <typename T>
  Request ibroadcast(T* data, tensor::index_t n, int root);

  /// Async sum-reduce toward `root`. The local partial in `data` must be
  /// final at issue; the reduced result is valid at root after wait().
  /// `scratch` (n elements, optional) must stay valid until wait().
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

  /// Personalised exchange (MPI_Alltoall): `send` holds g chunks of n
  /// elements, chunk c destined for rank c; on return `out[c·n..)` holds the
  /// chunk rank c addressed to this rank. Pairwise exchange; modelled as
  /// (g−1) simultaneous chunk transfers: (g−1)·(α + β·chunk_bytes).
  template <typename T>
  void all_to_all(const T* send, tensor::index_t n, T* out);

  /// Gathers each rank's `n` elements at `root` (out size n·g there, ignored
  /// elsewhere). Flat fan-in; modelled like a ring all-gather.
  template <typename T>
  void gather(const T* mine, tensor::index_t n, T* out, int root);

  /// Inverse of gather: root's `data` (n·g elements) is distributed so rank r
  /// receives chunk r into `out` (n elements).
  template <typename T>
  void scatter(const T* data, tensor::index_t n, T* out, int root);

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
    return (comm_id_ << 32) | (0xFFull << 24 << 8) | static_cast<std::uint64_t>(tag);
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

  /// Drains local compute into the clock, aligns clocks across the group
  /// (checking that every member made the call `sig`) and advances by `dt`.
  /// Returns the entry timing breakdown.
  CollectiveTiming begin_collective(std::uint64_t seq, const CallSig& sig, double dt);

  /// begin_collective without the final clock advance: models issuing a
  /// non-blocking collective. Entry still aligns on max(slowest member's
  /// clock, this communicator's link availability); the link is then reserved
  /// through the transfer, so back-to-back collectives on one communicator
  /// serialise even when issued without waiting (one link per communicator —
  /// row and column links are distinct and genuinely overlap).
  CollectiveTiming begin_async(std::uint64_t seq, const CallSig& sig, double dt);

  /// This rank's position in the binomial tree rooted at group rank `root`.
  TreeTopo tree_topo(int root) const;

  /// Splits [0, n) into `chunks` contiguous runs (sizes differ by ≤ 1).
  static std::vector<Chunk> chunk_layout(tensor::index_t n, int chunks);

  /// This rank's part of a binomial-tree broadcast: per chunk, receive from
  /// the parent (if any), then forward to every child. Chunks move in order
  /// on each edge, so FIFO matching per (src, tag) keeps them aligned.
  template <typename T>
  void tree_broadcast_steps(const TreeTopo& topo, const std::vector<Chunk>& chunks,
                            std::uint64_t tag, T* data);

  /// This rank's part of a reverse binomial-tree sum: per chunk, accumulate
  /// the children's partials in ascending-mask order, then send the sum to
  /// the parent (if any). Every element sees the same addition order whatever
  /// the chunk count, so chunked and un-chunked reduces are bitwise identical.
  template <typename T>
  void tree_reduce_steps(const TreeTopo& topo, const std::vector<Chunk>& chunks,
                         std::uint64_t tag, T* data, T* scratch);

  /// Request::State::finish for the deferred steps of ibroadcast / ireduce.
  template <typename T>
  static void finish_broadcast(Request::State& st) {
    st.comm->tree_broadcast_steps(st.topo, st.chunks, st.tag, static_cast<T*>(st.data));
  }
  template <typename T>
  static void finish_reduce(Request::State& st) {
    st.comm->tree_reduce_steps(st.topo, st.chunks, st.tag, static_cast<T*>(st.data),
                               static_cast<T*>(st.scratch));
  }

  /// Request state of an issued ibroadcast / ireduce: timing, tree, chunks
  /// and tag; the caller pushes what is ready and defers the rest (finish).
  std::unique_ptr<Request::State> tree_request(const char* wait_op, const CollectiveTiming& ct,
                                               std::uint64_t bytes, tensor::index_t n,
                                               int chunks, int root, std::uint64_t tag,
                                               void* data);

  /// Attaches the standard collective args (communicator label, group size,
  /// payload bytes, align-wait vs transfer split) to an armed span.
  void annotate_span(obs::Span& span, std::uint64_t bytes, const CollectiveTiming& t) const {
    if (!span.armed()) return;
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("g", size());
    span.arg("bytes", bytes);
    span.arg("wait_s", t.wait());
    span.arg("transfer_s", t.dt);
  }

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

template <typename T>
void Communicator::tree_broadcast_steps(const TreeTopo& topo, const std::vector<Chunk>& chunks,
                                        std::uint64_t tag, T* data) {
  for (const Chunk& ck : chunks) {
    if (topo.parent >= 0) recv_internal(topo.parent, tag, data + ck.begin, ck.count);
    for (int child : topo.children) send_internal(child, tag, data + ck.begin, ck.count);
  }
}

template <typename T>
void Communicator::tree_reduce_steps(const TreeTopo& topo, const std::vector<Chunk>& chunks,
                                     std::uint64_t tag, T* data, T* scratch) {
  for (const Chunk& ck : chunks) {
    T* target = data + ck.begin;
    for (auto it = topo.children.rbegin(); it != topo.children.rend(); ++it) {
      recv_internal(*it, tag, scratch, ck.count);
      for (tensor::index_t i = 0; i < ck.count; ++i) target[i] += scratch[i];
    }
    if (topo.parent >= 0) send_internal(topo.parent, tag, target, ck.count);
  }
}

template <typename T>
void Communicator::broadcast(T* data, tensor::index_t n, int root) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("broadcast");
  obs::Span span("comm", "broadcast");
  const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
  const CollectiveTiming ct =
      begin_collective(seq, call<T>("broadcast", CallKind::kBroadcast, n, root), plan.time);
  annotate_span(span, bytes, ct);
  if (span.armed() && plan.chunks > 1) span.arg("chunks", plan.chunks);
  stats_->broadcast.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), ct.dt);
  // MPICH-style binomial tree rooted at `root`; large payloads stream down
  // the tree in chunks (the plan's pipelined schedule).
  tree_broadcast_steps(tree_topo(root), chunk_layout(n, plan.chunks), collective_tag(seq, 0),
                       data);
}

template <typename T>
void Communicator::reduce(T* data, tensor::index_t n, int root, T* scratch) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("reduce");
  obs::Span span("comm", "reduce");
  const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
  const CollectiveTiming ct =
      begin_collective(seq, call<T>("reduce", CallKind::kReduce, n, root), plan.time);
  annotate_span(span, bytes, ct);
  if (span.armed() && plan.chunks > 1) span.arg("chunks", plan.chunks);
  stats_->reduce.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), ct.dt);

  const TreeTopo topo = tree_topo(root);
  std::vector<T> owned;
  if (scratch == nullptr && !topo.children.empty()) {
    owned.resize(static_cast<std::size_t>(n));
    scratch = owned.data();
  }
  tree_reduce_steps(topo, chunk_layout(n, plan.chunks), collective_tag(seq, 1), data, scratch);
}

template <typename T>
Request Communicator::ibroadcast(T* data, tensor::index_t n, int root) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return Request();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("ibroadcast");
  obs::Span span("comm", "ibroadcast");
  const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
  const CollectiveTiming ct =
      begin_async(seq, call<T>("ibroadcast", CallKind::kBroadcast, n, root), plan.time);
  annotate_span(span, bytes, ct);
  stats_->broadcast.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), ct.dt);

  auto st = tree_request("ibroadcast.wait", ct, bytes, n, plan.chunks, root,
                         collective_tag(seq, 0), data);
  if (st->topo.parent < 0) {
    // Root: the payload is ready now; push every chunk eagerly (fabric sends
    // are buffered and never block), leaving nothing deferred.
    tree_broadcast_steps(st->topo, st->chunks, st->tag, data);
  } else {
    st->finish = &finish_broadcast<T>;
  }
  return Request(std::move(st));
}

template <typename T>
Request Communicator::ireduce(T* data, tensor::index_t n, int root, T* scratch) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return Request();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("ireduce");
  obs::Span span("comm", "ireduce");
  const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
  const CollectiveTiming ct =
      begin_async(seq, call<T>("ireduce", CallKind::kReduce, n, root), plan.time);
  annotate_span(span, bytes, ct);
  stats_->reduce.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), ct.dt);

  auto st = tree_request("ireduce.wait", ct, bytes, n, plan.chunks, root,
                         collective_tag(seq, 1), data);
  if (st->topo.children.empty()) {
    // Leaf: the local partial is final at issue; push every chunk now.
    tree_reduce_steps<T>(st->topo, st->chunks, st->tag, data, nullptr);
  } else {
    // Interior/root: children's partials arrive at wait time, each chunk's
    // into the same scratch (finish() consumes them strictly in order).
    if (scratch == nullptr) {
      st->owned_scratch.reset(new std::byte[static_cast<std::size_t>(n) * sizeof(T)]);
      scratch = reinterpret_cast<T*>(st->owned_scratch.get());
    }
    st->scratch = scratch;
    st->finish = &finish_reduce<T>;
  }
  return Request(std::move(st));
}

template <typename T>
void Communicator::all_reduce(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce");
  obs::Span span("comm", "allreduce");
  const CollectiveTiming ct = begin_collective(seq, call<T>("allreduce", CallKind::kAllReduce, n),
                                               cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Ring all-reduce: g−1 reduce-scatter steps then g−1 all-gather steps over
  // contiguous chunks (sizes differ by at most one element).
  const auto chunk_begin = [&](int c) {
    const tensor::index_t base = n / g;
    const tensor::index_t rem = n % g;
    return c * base + std::min<tensor::index_t>(c, rem);
  };
  const auto chunk_size = [&](int c) {
    return n / g + (c < static_cast<tensor::index_t>(n % g) ? 1 : 0);
  };
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  std::vector<T> incoming(static_cast<std::size_t>(n / g + 1));

  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s - 1) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 2);
    send_internal(right, tag, data + chunk_begin(send_chunk), chunk_size(send_chunk));
    recv_internal(left, tag, incoming.data(), chunk_size(recv_chunk));
    T* target = data + chunk_begin(recv_chunk);
    const tensor::index_t cs = chunk_size(recv_chunk);
    for (tensor::index_t i = 0; i < cs; ++i) target[i] += incoming[i];
  }
  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ + 1 - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 3);
    send_internal(right, tag, data + chunk_begin(send_chunk), chunk_size(send_chunk));
    recv_internal(left, tag, data + chunk_begin(recv_chunk), chunk_size(recv_chunk));
  }
}

template <typename T>
void Communicator::all_reduce_max(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce_max");
  obs::Span span("comm", "allreduce_max");
  const CollectiveTiming ct =
      begin_collective(seq, call<T>("allreduce_max", CallKind::kAllReduceMax, n),
                       cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Small payloads only (softmax row maxima): gather-to-0 + broadcast keeps
  // the implementation simple; the modelled time above is still the ring's.
  const std::uint64_t tag = collective_tag(seq, 4);
  std::vector<T> incoming(static_cast<std::size_t>(n));
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) {
      recv_internal(r, tag, incoming.data(), n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] = std::max(data[i], incoming[i]);
    }
  } else {
    send_internal(0, tag, data, n);
  }
  const std::uint64_t tag2 = collective_tag(seq, 5);
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) send_internal(r, tag2, data, n);
  } else {
    recv_internal(0, tag2, data, n);
  }
}

template <typename T>
void Communicator::all_reduce_ordered(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce");
  obs::Span span("comm", "allreduce");
  const CollectiveTiming ct =
      begin_collective(seq, call<T>("allreduce_ordered", CallKind::kAllReduceOrdered, n),
                       cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Gather-to-0 with an ascending-rank fold, then broadcast: rank 0's value
  // + rank 1's + … + rank (g−1)'s for every element regardless of n.
  const std::uint64_t tag = collective_tag(seq, 11);
  std::vector<T> incoming(static_cast<std::size_t>(n));
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) {
      recv_internal(r, tag, incoming.data(), n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] += incoming[i];
    }
  } else {
    send_internal(0, tag, data, n);
  }
  const std::uint64_t tag2 = collective_tag(seq, 12);
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) send_internal(r, tag2, data, n);
  } else {
    recv_internal(0, tag2, data, n);
  }
}

template <typename T>
void Communicator::all_gather(const T* mine, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, mine, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("allgather");
  obs::Span span("comm", "allgather");
  const CollectiveTiming ct = begin_collective(seq, call<T>("allgather", CallKind::kAllGather, n),
                                               cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);

  std::memcpy(out + static_cast<tensor::index_t>(rank_) * n, mine,
              static_cast<std::size_t>(n) * sizeof(T));
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s - 1) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 6);
    send_internal(right, tag, out + static_cast<tensor::index_t>(send_chunk) * n, n);
    recv_internal(left, tag, out + static_cast<tensor::index_t>(recv_chunk) * n, n);
  }
}

template <typename T>
void Communicator::gather(const T* mine, tensor::index_t n, T* out, int root) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, mine, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("gather");
  obs::Span span("comm", "gather");
  const CollectiveTiming ct = begin_collective(seq, call<T>("gather", CallKind::kGather, n, root),
                                               cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 9);
  if (rank_ == root) {
    std::memcpy(out + static_cast<tensor::index_t>(root) * n, mine,
                static_cast<std::size_t>(n) * sizeof(T));
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      recv_internal(r, tag, out + static_cast<tensor::index_t>(r) * n, n);
    }
  } else {
    send_internal(root, tag, mine, n);
  }
}

template <typename T>
void Communicator::scatter(const T* data, tensor::index_t n, T* out, int root) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, data, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("scatter");
  obs::Span span("comm", "scatter");
  const CollectiveTiming ct = begin_collective(seq, call<T>("scatter", CallKind::kScatter, n, root),
                                               cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 10);
  if (rank_ == root) {
    std::memcpy(out, data + static_cast<tensor::index_t>(root) * n,
                static_cast<std::size_t>(n) * sizeof(T));
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      send_internal(r, tag, data + static_cast<tensor::index_t>(r) * n, n);
    }
  } else {
    recv_internal(root, tag, out, n);
  }
}

template <typename T>
void Communicator::all_to_all(const T* send, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, send, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  // Pairwise personalised exchange; every rank sends and receives g−1 chunks
  // concurrently, so the modelled time is (g−1)·(α + β·chunk_bytes).
  const std::uint64_t chunk_bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("alltoall");
  obs::Span span("comm", "alltoall");
  const CollectiveTiming ct = begin_collective(
      seq, call<T>("alltoall", CallKind::kAllToAll, n),
      (g - 1) * (cost_->params().alpha +
                      cost_->beta_eff(group_) * static_cast<double>(chunk_bytes)));
  annotate_span(span, chunk_bytes * static_cast<std::uint64_t>(g - 1), ct);
  stats_->alltoall.record(static_cast<std::uint64_t>(n) * g,
                          chunk_bytes * static_cast<std::uint64_t>(g - 1),
                          static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 8);
  std::memcpy(out + static_cast<tensor::index_t>(rank_) * n,
              send + static_cast<tensor::index_t>(rank_) * n,
              static_cast<std::size_t>(n) * sizeof(T));
  for (int peer = 0; peer < g; ++peer) {
    if (peer == rank_) continue;
    send_internal(peer, tag, send + static_cast<tensor::index_t>(peer) * n, n);
  }
  for (int peer = 0; peer < g; ++peer) {
    if (peer == rank_) continue;
    recv_internal(peer, tag, out + static_cast<tensor::index_t>(peer) * n, n);
  }
}

template <typename T>
void Communicator::reduce_scatter(const T* data, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, data, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("reducescatter");
  obs::Span span("comm", "reducescatter");
  const CollectiveTiming ct =
      begin_collective(seq, call<T>("reducescatter", CallKind::kReduceScatter, n),
                       cost_->ring_reducescatter_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->reducescatter.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                               static_cast<double>(n) * (g - 1), ct.dt);

  // Ring: a running sum for each chunk travels the ring, gaining one host's
  // contribution per hop. Starting the schedule at chunk (rank−1) makes the
  // fully-reduced chunk r land at rank r after g−1 hops.
  std::vector<T> work(static_cast<std::size_t>(n));
  std::vector<T> incoming(static_cast<std::size_t>(n));
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  std::memcpy(work.data(), data + static_cast<tensor::index_t>(((rank_ - 1) % g + g) % g) * n,
              static_cast<std::size_t>(n) * sizeof(T));
  for (int s = 0; s < g - 1; ++s) {
    // At step s we forward the running sum of chunk (rank−1−s) and receive the
    // running sum of chunk (rank−2−s), then add our own contribution to it.
    const int recv_chunk = ((rank_ - 2 - s) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 7);
    send_internal(right, tag, work.data(), n);
    recv_internal(left, tag, incoming.data(), n);
    const T* own = data + static_cast<tensor::index_t>(recv_chunk) * n;
    for (tensor::index_t i = 0; i < n; ++i) work[i] = incoming[i] + own[i];
  }
  std::memcpy(out, work.data(), static_cast<std::size_t>(n) * sizeof(T));
}

}  // namespace optimus::comm
