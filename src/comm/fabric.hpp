#pragma once

// The shared transport under all simulated devices.
//
// Every ordered pair of ranks has its own channel: send(src, dst) deposits a
// tagged byte payload into channel (dst, src), recv(dst, src) parks on that
// channel alone until a message with the wanted tag arrives. Matching is FIFO
// per (src, tag) pair. A send wakes only its receiver; a receive never scans
// or waits on another peer's traffic. Payload buffers are recycled through a
// per-channel free list capped at kPoolBytesPerChannel, so steady traffic
// allocates nothing and retained memory stays bounded.
//
// The ranks run as fibers of one comm::Executor (executor.hpp), so only one
// thread ever touches a Fabric and it needs no lock. A rank waits by parking
// on a channel's or a rendezvous slot's WaitList; a receive that would block
// outside a fiber throws CheckError instead, because nothing could wake it.
//
// The fabric also provides two *side channels* that model operations a real
// backend performs out-of-band (communicator construction, clock agreement in
// the simulation). These move no modelled bytes and work on one
// communicator's rendezvous state (Group) only:
//
//   * sync_max   — all members of a group deposit a double for one collective
//                  sequence number; everyone receives the maximum. Used to
//                  align simulated clocks at collective entry.
//   * split_sync — MPI_Comm_split-style agreement: members deposit
//                  (color, key); everyone learns its new group and a fresh
//                  communicator id.
//
// Both also check the collective signature: every member states what it
// called (op kind, element count, root, element size). A member whose call
// differs from the first arriver's makes every member throw a CheckError
// naming the communicator, the sequence number and both calls, instead of
// letting mismatched collectives hang or exchange garbage.
//
// The fabric schedules nothing itself: send and recv enter through
// Executor::switch_point(), where an executor with a schedule seed may run
// another rank first (executor.hpp); under FIFO order it is a no-op.
//
// Deterministic fault injection: a FaultPlan's poison mode flips payload
// bits in flight. Poisoned payloads are caught by a per-message checksum at
// the receiver, which aborts the whole fabric: every rank parked in recv/sync
// wakes up and throws, so a corrupted run fails loudly with a diagnosable
// error instead of deadlocking or silently diverging. Poison decisions hash
// (seed, channel, occurrence), so a given plan replays identically whatever
// the interleaving.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/executor.hpp"
#include "util/check.hpp"

namespace optimus::comm {

/// Thrown by the rank that detects an injected fault (e.g. a checksum
/// mismatch on a poisoned payload). The message names the faulted operation,
/// channel and byte count.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by every *other* rank once the fabric has been aborted: their
/// parked receives and sync rendezvous wake up and unwind instead of
/// waiting forever on a peer that died.
class FabricAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seeded fault-injection plan. A nonzero seed makes the cluster's executor
/// pick ranks by a seeded draw (executor.hpp): the plan reorders the
/// interleaving without touching payloads. Poison decisions are pure
/// functions of (seed, src, dst, tag, occurrence), so two runs with the same
/// plan inject the same faults at the same logical points.
struct FaultPlan {
  std::uint64_t seed = 0;    // schedule seed; 0 keeps FIFO order
  double poison_prob = 0.0;  // per-message chance a payload is corrupted in flight
};

/// Wire protocol of a collective. Members must agree on it; blocking and
/// non-blocking forms of one collective move the same bytes over the same
/// tree, so they share a kind.
enum class CallKind : std::uint8_t {
  kSplit,
  kBarrier,
  kBroadcast,
  kReduce,
  kAllReduce,
  kAllReduceMax,
  kAllReduceOrdered,
  kAllGather,
  kReduceScatter,
};

/// What one member called at a rendezvous: the collective signature.
struct CallSig {
  const char* op = "?";  // the call's name (string literal), diagnostics only
  CallKind kind = CallKind::kBarrier;
  std::int64_t n = 0;    // element count per member
  int root = -1;         // -1 for rootless collectives
  int elem_size = 0;

  bool matches(const CallSig& o) const {
    return kind == o.kind && n == o.n && root == o.root && elem_size == o.elem_size;
  }
};

class Fabric {
 public:
  /// Payload bytes each channel may keep for reuse; a buffer that would push
  /// the channel's free list past this is released instead.
  static constexpr std::size_t kPoolBytesPerChannel = std::size_t{16} << 10;

  /// Creates the channels and the world communicator's rendezvous state.
  explicit Fabric(int world_size);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int world_size() const { return world_size_; }

  /// Communicator id of the world group (ranks 0..world_size−1).
  std::uint64_t world_comm_id() const { return world_comm_id_; }

  /// Deposits `bytes` bytes for `dst`. Never blocks. `timestamp` carries the
  /// sender's simulated clock so the receiver can observe causality
  /// (Lamport-style); collective-internal traffic passes 0 (collectives
  /// synchronise clocks out-of-band instead).
  void send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
            double timestamp = 0.0);

  /// Parks until a message from `src` with `tag` arrives at `dst`; copies the
  /// payload into `out` (size must match exactly). Returns the sender's
  /// timestamp. Fault semantics: a poisoned payload aborts the fabric and
  /// throws FaultError; an abort by any rank wakes the call with
  /// FabricAborted. Throws CheckError if it would park outside a fiber.
  double recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes);

  /// Payload bytes currently kept for reuse by channel (dst, src).
  std::size_t pooled_bytes(int dst, int src) const;

  /// Rendezvous state of one communicator: its members and a two-slot ring
  /// indexed by collective sequence number. Opaque outside the fabric.
  struct Group;

  /// The rendezvous state of communicator `comm_id` (the world's, or one
  /// created by split_sync). Communicators resolve it once, at construction.
  Group& group(std::uint64_t comm_id);

  /// Side channel: group-wide max of `value` for collective `seq`. Every
  /// member (group index `member`) calls exactly once per seq, in seq order.
  /// Throws CheckError on every member if their signatures disagree; `label`
  /// names the communicator in that diagnostic.
  double sync_max(Group& g, std::uint64_t seq, int member, const CallSig& sig, double value,
                  const std::string& label);

  struct SplitResult {
    std::uint64_t new_comm_id = 0;
    std::vector<int> group;  // world ranks, ordered by (key, world_rank)
  };

  /// Side channel: collective split of `g` at `seq`. Every member calls with
  /// its color and ordering key; the last arriver creates each new group's
  /// rendezvous state.
  SplitResult split_sync(Group& g, std::uint64_t seq, int member, int color, int order_key,
                         const std::string& label);

  // -- fault injection -------------------------------------------------------

  /// Installs (or clears, with a default-constructed plan) the fault plan.
  /// Must be called before any traffic.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Marks the fabric dead with a reason and wakes every parked rank; all
  /// subsequent/parked operations throw FabricAborted. First reason wins.
  void abort(const std::string& reason);

  /// One line per parked rank, in rank order: the op, communicator label, id
  /// and seq it waits in, and for what. Empty when no rank is parked.
  std::string describe_parked() const;

  /// Name of the communicator operation the calling rank is currently
  /// executing ("allreduce", "broadcast", ...); "?" outside any op. Used to
  /// label fault diagnostics with the op that hit the fault.
  static const char* current_op();

  /// The calling thread's op label (null outside any op). comm::Executor
  /// exchanges it whenever it switches the rank running on the thread.
  static const char*& op_slot();

  /// RAII op label; Communicator ops hold one for their span.
  class OpScope {
   public:
    explicit OpScope(const char* name);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    const char* prev_;
  };

 private:
  struct Message {
    std::uint64_t tag;
    double timestamp;
    std::uint64_t checksum = 0;  // FNV-1a of payload; validated when the plan poisons
    std::vector<std::byte> payload;
  };

  /// Mailbox of one (dst, src) pair plus its recycled payload buffers.
  struct Channel {
    WaitList waiters;            // only dst ever parks here
    std::vector<Message> queue;  // arrival order; FIFO per tag
    std::vector<std::vector<std::byte>> free;
    std::size_t free_bytes = 0;  // sum of the free buffers' capacities
  };

  Channel& channel(int dst, int src) const {
    return channels_[static_cast<std::size_t>(dst) * world_size_ + src];
  }

  /// What a parked rank waits in, for the deadlock diagnostic: a rendezvous
  /// (peer < 0) or a receive from world rank `peer`.
  struct Parked {
    const char* op = nullptr;  // null while the rank is not parked
    const Group* group = nullptr;
    std::uint64_t seq = 0;
    int peer = -1;
    std::uint64_t tag = 0;
  };

  /// Creates the rendezvous state of a new communicator with members `ranks`.
  void add_group(std::uint64_t comm_id, std::vector<int> ranks);

  /// One rendezvous: deposits `value` (and, for a split, the member's color
  /// and key), parks until the group arrives, checks signatures, returns the
  /// max.
  double rendezvous(Group& g, std::uint64_t seq, int member, const CallSig& sig, double value,
                    const std::string& label, const std::array<int, 2>* split,
                    SplitResult* split_out);

  /// Tries to match-and-consume a message; copies the payload, returns false
  /// if nothing matches yet. Throws FaultError on a poisoned payload (after
  /// aborting the fabric).
  bool try_consume(Channel& ch, int dst, int src, std::uint64_t tag, void* out,
                   std::size_t bytes, double* ts);

  /// Throws FabricAborted if the fabric has been aborted. If world rank
  /// `rank` was parked, the message also names what it waited in.
  void throw_if_aborted(int rank = -1);

  /// Writes " rank R parked in OP on communicator 'L' (id I) seq S" and,
  /// for a receive, its peer and tag.
  void describe_wait(int rank, std::ostream& os) const;

  /// Deterministic per-message fault draw: the n-th message on the (src, dst,
  /// tag) channel gets a fresh 64-bit hash.
  std::uint64_t fault_draw(int src, int dst, std::uint64_t tag);

  int world_size_;
  std::unique_ptr<Channel[]> channels_;  // world_size² channels, [dst·p + src]
  std::vector<Parked> parked_;           // by world rank

  std::map<std::uint64_t, std::unique_ptr<Group>> groups_;
  std::uint64_t next_comm_id_ = 1;
  std::uint64_t world_comm_id_ = 0;

  FaultPlan fault_plan_;
  std::map<std::uint64_t, std::uint64_t> fault_counts_;  // channel key -> occurrences
  bool failed_ = false;
  std::string fail_reason_;
};

}  // namespace optimus::comm
