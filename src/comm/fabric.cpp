#include "comm/fabric.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <sstream>

#include "obs/flight.hpp"
#include "util/rng.hpp"

namespace optimus::comm {

namespace {

thread_local const char* t_current_op = nullptr;

/// FNV-1a over a byte range; the in-flight integrity check for poison mode.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Maps a 64-bit hash to [0, 1) and compares against a probability.
bool draw_hits(std::uint64_t h, double prob) {
  return prob > 0 && static_cast<double>(h >> 11) * 0x1.0p-53 < prob;
}

std::ostream& operator<<(std::ostream& os, const CallSig& s) {
  os << s.op << "(n=" << s.n;
  if (s.root >= 0) os << ", root=" << s.root;
  return os << ", elem=" << s.elem_size << "B)";
}

}  // namespace

/// Collective `seq` of a communicator uses slot seq % 2. Two slots suffice:
/// no member can enter seq+2 before every member has left seq (entering seq+1
/// already needs every member's arrival there), so the last member to leave
/// resets the slot for seq+2 before anyone can reach it. `gen` is the seq the
/// slot serves next and guards that invariant.
struct Fabric::Group {
  struct Slot {
    WaitList waiters;
    std::uint64_t gen = 0;
    int arrived = 0;
    int departed = 0;
    double max_value = 0;
    CallSig first;  // the first arriver's call
    int first_member = -1;
    CallSig other;  // the first call that differs from `first`
    int other_member = -1;
    std::vector<Deposit> buffers;  // by member
    int poisoned = -1;             // the member a poison draw hit, if any
    // split payload: (color, order_key, world_rank)
    std::vector<std::array<int, 3>> splits;
    std::map<int, SplitResult> results;  // world_rank -> result
  };

  Group(std::uint64_t comm_id, std::vector<int> members) : id(comm_id), ranks(std::move(members)) {
    slots[1].gen = 1;
    for (Slot& s : slots) s.buffers.resize(ranks.size());
  }

  std::uint64_t id;
  std::vector<int> ranks;  // world ranks in group order
  std::string label;       // the first non-empty label a member passed, for diagnostics
  std::array<Slot, 2> slots;
};

const char*& Fabric::op_slot() { return t_current_op; }

const char* Fabric::current_op() { return t_current_op ? t_current_op : "?"; }

Fabric::OpScope::OpScope(const char* name) : prev_(t_current_op) { t_current_op = name; }
Fabric::OpScope::~OpScope() { t_current_op = prev_; }

Fabric::Fabric(int world_size) : world_size_(world_size) {
  OPT_CHECK(world_size >= 1, "world_size " << world_size);
  channels_ = std::make_unique<Channel[]>(static_cast<std::size_t>(world_size) * world_size);
  parked_.resize(static_cast<std::size_t>(world_size));
  std::vector<int> world(world_size);
  for (int i = 0; i < world_size; ++i) world[i] = i;
  world_comm_id_ = next_comm_id_++;
  add_group(world_comm_id_, std::move(world));
}

Fabric::~Fabric() = default;

void Fabric::add_group(std::uint64_t comm_id, std::vector<int> ranks) {
  groups_[comm_id] = std::make_unique<Group>(comm_id, std::move(ranks));
}

Fabric::Group& Fabric::group(std::uint64_t comm_id) {
  const auto it = groups_.find(comm_id);
  OPT_CHECK(it != groups_.end(), "no communicator with id " << comm_id);
  return *it->second;
}

void Fabric::set_fault_plan(const FaultPlan& plan) {
  fault_plan_ = plan;
  fault_counts_.clear();
}

void Fabric::abort(const std::string& reason) {
  if (failed_) return;  // first reason wins
  fail_reason_ = reason;
  failed_ = true;
  // Wake every rank parked in recv or in a rendezvous so it unwinds.
  for (std::size_t i = 0; i < static_cast<std::size_t>(world_size_) * world_size_; ++i) {
    Executor::wake_all(channels_[i].waiters);
  }
  for (auto& [id, g] : groups_) {
    for (Group::Slot& s : g->slots) Executor::wake_all(s.waiters);
  }
}

void Fabric::throw_if_aborted(int rank) {
  if (!failed_) return;
  // Record the op THIS rank was inside, which the flight dump keys by rank.
  obs::flight_note_abort(current_op());
  std::ostringstream what;
  what << "fabric aborted: " << fail_reason_;
  if (rank >= 0 && parked_[static_cast<std::size_t>(rank)].op != nullptr) {
    what << "\n  woke";
    describe_wait(rank, what);
    parked_[static_cast<std::size_t>(rank)] = Parked{};
  }
  throw FabricAborted(what.str());
}

void Fabric::describe_wait(int rank, std::ostream& os) const {
  const Parked& p = parked_[static_cast<std::size_t>(rank)];
  const Group* g = p.group;
  if (p.peer >= 0) {
    // A communicator's message tags are [comm_id : 32][user tag : 32]; a
    // decoded group counts only if both ends of the receive belong to it.
    const auto it = groups_.find(p.tag >> 32);
    if (it != groups_.end()) {
      const std::vector<int>& m = it->second->ranks;
      if (std::count(m.begin(), m.end(), rank) == 1 && std::count(m.begin(), m.end(), p.peer) == 1) {
        g = it->second.get();
      }
    }
  }
  os << " rank " << rank << " parked in " << p.op;
  if (g != nullptr) {
    os << " on communicator '" << (g->label.empty() ? "?" : g->label) << "' (id " << g->id << ")";
  }
  if (p.peer < 0) {
    os << " seq " << p.seq;
  } else {
    os << ", receiving from rank " << p.peer << " (tag "
       << (g != nullptr ? p.tag & 0xFFFFFFFFu : p.tag) << ")";
  }
}

std::string Fabric::describe_parked() const {
  std::ostringstream os;
  for (int r = 0; r < world_size_; ++r) {
    const Parked& p = parked_[static_cast<std::size_t>(r)];
    if (p.op == nullptr) continue;
    os << "\n ";
    describe_wait(r, os);
    if (p.peer >= 0) continue;
    os << ", waiting for world rank(s)";
    for (int m : p.group->ranks) {
      const Parked& q = parked_[static_cast<std::size_t>(m)];
      if (q.op == nullptr || q.group != p.group || q.seq != p.seq || q.peer >= 0) os << " " << m;
    }
  }
  return os.str();
}

std::uint64_t Fabric::fault_draw(int src, int dst, std::uint64_t tag) {
  // Channel identity: (src, dst) mixed with the tag. Per-channel occurrence
  // counters make the n-th message of a channel a stable logical coordinate.
  const std::uint64_t channel = util::mix3(
      tag ^ 0x5E4D,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
          static_cast<std::uint32_t>(dst),
      0x0F);
  return util::mix3(fault_plan_.seed, channel, fault_counts_[channel]++);
}

void Fabric::send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
                  double timestamp) {
  OPT_CHECK(src >= 0 && src < world_size_ && dst >= 0 && dst < world_size_,
            "send from rank " << src << " to rank " << dst);
  Executor::switch_point();
  throw_if_aborted();
  Channel& ch = channel(dst, src);
  Message msg;
  msg.tag = tag;
  msg.timestamp = timestamp;
  const auto* first = static_cast<const std::byte*>(data);
  msg.payload.assign(first, first + bytes);

  if (fault_plan_.poison_prob > 0) {
    const std::uint64_t h = fault_draw(src, dst, tag);
    msg.checksum = fnv1a(msg.payload.data(), msg.payload.size());
    if (bytes > 0 && draw_hits(util::mix3(h, 2, 2), fault_plan_.poison_prob)) {
      // Flip bits of one deterministic byte after checksumming: the receiver's
      // integrity check must catch it.
      msg.payload[util::mix3(h, 3, 3) % bytes] ^= std::byte{0xFF};
    }
  }

  ch.queue.push_back(std::move(msg));
  Executor::wake_all(ch.waiters);
}

bool Fabric::try_consume(Channel& ch, int dst, int src, std::uint64_t tag, void* out,
                         std::size_t bytes, double* ts) {
  const auto it = std::find_if(ch.queue.begin(), ch.queue.end(),
                               [&](const Message& m) { return m.tag == tag; });
  if (it == ch.queue.end()) return false;
  OPT_CHECK(it->payload.size() == bytes,
            "recv size mismatch: got " << it->payload.size() << " bytes, want " << bytes
                                       << " (src " << src << " tag " << tag << ")");
  if (fault_plan_.poison_prob > 0 &&
      fnv1a(it->payload.data(), it->payload.size()) != it->checksum) {
    std::ostringstream why;
    why << "poisoned payload detected in op '" << current_op() << "' (src " << src << " -> dst "
        << dst << ", tag " << tag << ", " << bytes << " bytes)";
    obs::flight_note_abort(current_op());
    abort(why.str());
    throw FaultError(why.str());
  }
  if (bytes > 0) std::memcpy(out, it->payload.data(), bytes);
  *ts = it->timestamp;
  ch.queue.erase(it);
  return true;
}

double Fabric::recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes) {
  OPT_CHECK(src >= 0 && src < world_size_ && dst >= 0 && dst < world_size_,
            "recv at rank " << dst << " from rank " << src);
  Executor::switch_point();
  Channel& ch = channel(dst, src);
  Parked& parked = parked_[static_cast<std::size_t>(dst)];
  for (;;) {
    throw_if_aborted(dst);
    parked = Parked{};
    double ts = 0;
    if (try_consume(ch, dst, src, tag, out, bytes, &ts)) return ts;
    parked = Parked{current_op(), nullptr, 0, src, tag};
    Executor::park(ch.waiters);
  }
}

int Fabric::draw_poisoned_member(const Group& g, std::uint64_t seq, const CallSig& sig,
                                 const std::vector<Deposit>& deposits) {
  if (fault_plan_.poison_prob <= 0) return -1;
  for (int m = 0; m < static_cast<int>(deposits.size()); ++m) {
    if (!deposits[static_cast<std::size_t>(m)].receives) continue;
    const std::uint64_t site = util::mix3(g.id, seq, static_cast<std::uint64_t>(m));
    if (!draw_hits(util::mix3(fault_plan_.seed, site, 0xC011), fault_plan_.poison_prob)) continue;
    std::ostringstream why;
    why << "poisoned payload detected in op '" << sig.op << "' on communicator '"
        << (g.label.empty() ? "?" : g.label) << "' (id " << g.id << ") seq " << seq
        << ": delivery to rank " << m << " (world " << g.ranks[static_cast<std::size_t>(m)]
        << ") corrupted";
    abort(why.str());
    return m;
  }
  return -1;
}

double Fabric::rendezvous(Group& g, std::uint64_t seq, int member, const CallSig& sig,
                          double value, const std::string& label, const Deposit& mine,
                          Fold fold, const std::array<int, 2>* split, SplitResult* split_out) {
  const int size = static_cast<int>(g.ranks.size());
  Group::Slot& s = g.slots[seq & 1];
  Executor::switch_point();
  throw_if_aborted();
  OPT_CHECK(s.gen == seq, "communicator " << g.id << ": rank " << member << " entered seq "
                                          << seq << " while its slot serves seq " << s.gen);
  if (g.label.empty()) g.label = label;
  if (s.arrived == 0) {
    s.max_value = value;
    s.first = sig;
    s.first_member = member;
  } else {
    s.max_value = std::max(s.max_value, value);
    if (s.other_member < 0 && !sig.matches(s.first)) {
      s.other = sig;
      s.other_member = member;
    }
  }
  s.buffers[static_cast<std::size_t>(member)] = mine;
  if (split != nullptr) s.splits.push_back({(*split)[0], (*split)[1], g.ranks[member]});
  const int rank = g.ranks[member];
  if (++s.arrived != size) {
    Parked& parked = parked_[static_cast<std::size_t>(rank)];
    parked = Parked{sig.op, &g, seq, -1, 0};
    while (s.arrived != size && !failed_) Executor::park(s.waiters);
    // A completed rendezvous reports a mismatch even when a peer that already
    // threw it has aborted the fabric: every member names the misuse. The
    // poisoned member names the poison instead.
    if (s.poisoned != member && (s.arrived != size || s.other_member < 0)) throw_if_aborted(rank);
    parked = Parked{};
  } else {
    if (split != nullptr && s.other_member < 0) {
      // Partition the split deposits into color groups, order each by
      // (key, world_rank) and create each group's rendezvous state under a
      // fresh communicator id — one per color, deterministic by sorting
      // colors.
      std::sort(s.splits.begin(), s.splits.end());
      std::map<int, std::vector<int>> by_color;
      for (const auto& d : s.splits) by_color[d[0]].push_back(d[2]);
      for (auto& [color, members] : by_color) {
        const std::uint64_t id = next_comm_id_++;
        for (int m : members) s.results[m] = SplitResult{id, members};
        add_group(id, std::move(members));
      }
    }
    if (fold && s.other_member < 0) {
      s.poisoned = draw_poisoned_member(g, seq, sig, s.buffers);
      if (s.poisoned < 0) fold(s.buffers.data());
    }
    Executor::wake_all(s.waiters);
  }
  if (s.poisoned == member) {
    obs::flight_note_abort(current_op());
    throw FaultError(fail_reason_);
  }
  if (s.poisoned >= 0) throw_if_aborted(rank);

  const double result = s.max_value;
  std::string mismatch;
  if (s.other_member >= 0) {
    std::ostringstream os;
    os << "collective mismatch on communicator '" << (label.empty() ? "?" : label) << "' (id "
       << g.id << ") at seq " << seq << ": rank " << s.first_member << " (world "
       << g.ranks[s.first_member] << ") called " << s.first << " but rank " << s.other_member
       << " (world " << g.ranks[s.other_member] << ") called " << s.other;
    mismatch = os.str();
  } else if (split_out != nullptr) {
    *split_out = s.results.at(g.ranks[member]);
  }
  if (++s.departed == size) {
    s.gen += 2;
    s.arrived = 0;
    s.departed = 0;
    s.first_member = -1;
    s.other_member = -1;
    s.poisoned = -1;
    s.splits.clear();
    s.results.clear();
  }
  if (!mismatch.empty()) throw util::CheckError(mismatch);
  return result;
}

double Fabric::sync_max(Group& g, std::uint64_t seq, int member, const CallSig& sig,
                        double value, const std::string& label, const Deposit& mine,
                        Fold fold) {
  return rendezvous(g, seq, member, sig, value, label, mine, fold, nullptr, nullptr);
}

Fabric::SplitResult Fabric::split_sync(Group& g, std::uint64_t seq, int member, int color,
                                       int order_key, const std::string& label) {
  const CallSig sig{"split", CallKind::kSplit};
  const std::array<int, 2> deposit{color, order_key};
  SplitResult result;
  (void)rendezvous(g, seq, member, sig, 0.0, label, {}, {}, &deposit, &result);
  return result;
}

}  // namespace optimus::comm
