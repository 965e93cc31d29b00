#pragma once

// The shared transport under all simulated devices.
//
// Collectives meet at a rendezvous (sync_max) on their communicator's own
// state (Group): each member deposits its simulated clock, its call
// signature and its buffers, and the last member to arrive does the rest
// while the others are parked. It checks the signatures, takes the clocks'
// maximum, runs the collective's fold over every member's buffers (the
// communicator supplies it) and only then wakes the others, so a
// collective's bytes move once, straight from member to member. split_sync
// is the same rendezvous for MPI_Comm_split: members deposit (color, key)
// and learn their new group and a fresh communicator id. A member whose call
// (op kind, element count, root, element size) differs from the first
// arriver's makes every member throw a CheckError naming the communicator,
// the sequence number and both calls, and no data moves.
//
// Point-to-point messages (Communicator::send/recv) go through channels:
// every ordered pair of ranks has its own, send(src, dst) deposits a copy of
// a tagged payload into channel (dst, src), and recv(dst, src) parks on that
// channel alone until a message with the wanted tag arrives. Matching is
// FIFO per (src, tag) pair.
//
// The ranks run as fibers of one comm::Executor (executor.hpp), so only one
// thread ever touches a Fabric and it needs no lock. A rank waits by parking
// on a channel's or a rendezvous slot's WaitList; a receive that would block
// outside a fiber throws CheckError instead, because nothing could wake it.
// Every rendezvous, send and receive enters through Executor::switch_point(),
// where an executor with a schedule seed may run another rank first; under
// FIFO order it is a no-op.
//
// Deterministic fault injection: a FaultPlan's poison mode corrupts
// deliveries. A rendezvous's last arriver draws once per member the
// collective delivers bytes to, keyed by (seed, communicator, seq, member); a
// hit aborts the fabric before anyone leaves, the poisoned member throws
// FaultError naming the op and its peers unwind with FabricAborted. A
// point-to-point payload is flipped in flight by a draw keyed by (seed,
// channel, occurrence) and caught by a checksum at the receiver, which
// aborts the same way. Neither depends on the interleaving, and a corrupted
// run fails loudly instead of deadlocking or silently diverging.

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
/// functions of the seed and a logical site — (communicator, seq, member)
/// for a collective's delivery, (src, dst, tag, occurrence) for a message —
/// so two runs with the same plan inject the same faults at the same points.
struct FaultPlan {
  std::uint64_t seed = 0;    // schedule seed; 0 keeps FIFO order
  double poison_prob = 0.0;  // per-delivery chance the delivered bytes are corrupted
};

/// Data movement of a collective. Members must agree on it; blocking and
/// non-blocking forms of one collective move the same bytes by the same
/// fold, so they share a kind.
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

/// One member's buffers at a rendezvous: what it contributes (`in`) and
/// where its result goes (`out`; the same buffer for in-place calls).
/// `receives` marks a member the collective delivers bytes to, which is
/// what a poison draw can hit.
struct Deposit {
  const void* in = nullptr;
  void* out = nullptr;
  bool receives = false;
};

/// The data movement of one collective: called once, by the last member to
/// arrive, with every member's Deposit in group order while the others are
/// parked. A non-owning reference to a callable `void(const Deposit*)`.
class Fold {
 public:
  Fold() = default;
  template <typename F>
  Fold(const F& f)  // NOLINT(google-explicit-constructor): lambdas convert at the call
      : fn_(&f),
        call_([](const void* fn, const Deposit* d) { (*static_cast<const F*>(fn))(d); }) {}
  explicit operator bool() const { return call_ != nullptr; }
  void operator()(const Deposit* deposits) const { call_(fn_, deposits); }

 private:
  const void* fn_ = nullptr;
  void (*call_)(const void*, const Deposit*) = nullptr;
};

class Fabric {
 public:
  /// Creates the channels and the world communicator's rendezvous state.
  explicit Fabric(int world_size);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int world_size() const { return world_size_; }

  /// Communicator id of the world group (ranks 0..world_size−1).
  std::uint64_t world_comm_id() const { return world_comm_id_; }

  /// Deposits a copy of `bytes` bytes for `dst`. Never blocks. `timestamp`
  /// carries the sender's simulated clock so the receiver can observe
  /// causality (Lamport-style).
  void send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
            double timestamp);

  /// Parks until a message from `src` with `tag` arrives at `dst`; copies the
  /// payload into `out` (size must match exactly). Returns the sender's
  /// timestamp. Fault semantics: a poisoned payload aborts the fabric and
  /// throws FaultError; an abort by any rank wakes the call with
  /// FabricAborted. Throws CheckError if it would park outside a fiber.
  double recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes);

  /// Rendezvous state of one communicator: its members and a two-slot ring
  /// indexed by collective sequence number. Opaque outside the fabric.
  struct Group;

  /// The rendezvous state of communicator `comm_id` (the world's, or one
  /// created by split_sync). Communicators resolve it once, at construction.
  Group& group(std::uint64_t comm_id);

  /// The rendezvous of collective `seq`: returns the group-wide max of
  /// `value`. Every member (group index `member`) calls exactly once per seq,
  /// in seq order, with its buffers in `mine`; the last to arrive runs `fold`
  /// (if any) over all members' deposits before it wakes the others. Throws
  /// CheckError on every member if their signatures disagree (and moves no
  /// data); `label` names the communicator in diagnostics. Under a poison
  /// plan a hit on a receiving member aborts the fabric before anyone
  /// leaves: that member throws FaultError, the others FabricAborted.
  double sync_max(Group& g, std::uint64_t seq, int member, const CallSig& sig, double value,
                  const std::string& label, const Deposit& mine, Fold fold);

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

  /// Mailbox of one (dst, src) pair.
  struct Channel {
    WaitList waiters;            // only dst ever parks here
    std::vector<Message> queue;  // arrival order; FIFO per tag
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

  /// One rendezvous: deposits `value`, the member's buffers (and, for a
  /// split, its color and key), parks until the group arrives, checks
  /// signatures, returns the max. The last arriver runs the split or `fold`.
  double rendezvous(Group& g, std::uint64_t seq, int member, const CallSig& sig, double value,
                    const std::string& label, const Deposit& mine, Fold fold,
                    const std::array<int, 2>* split, SplitResult* split_out);

  /// The last arriver's poison draws over the receiving members of a
  /// completed rendezvous, in group order; the first hit aborts the fabric
  /// and is returned (−1: none).
  int draw_poisoned_member(const Group& g, std::uint64_t seq, const CallSig& sig,
                           const std::vector<Deposit>& deposits);

  /// Tries to match-and-consume a message; copies the payload, returns false
  /// if nothing matches yet. Throws FaultError on a poisoned payload (after
  /// aborting the fabric).
  bool try_consume(Channel& ch, int dst, int src, std::uint64_t tag, void* out,
                   std::size_t bytes, double* ts);

  /// Throws FabricAborted if the fabric has been aborted. If world rank
  /// `rank` was parked, the message also names what it waited in.
  void throw_if_aborted(int rank = -1);

  /// Writes " rank R parked in OP on communicator 'L' (id I)" and, for a
  /// rendezvous, " seq S", for a receive, its peer and tag.
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
