#include "comm/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <thread>

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
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t gen = 0;
    int arrived = 0;
    int departed = 0;
    double max_value = 0;
    CallSig first;  // the first arriver's call
    int first_member = -1;
    CallSig other;  // the first call that differs from `first`
    int other_member = -1;
    // split payload: (color, order_key, world_rank)
    std::vector<std::array<int, 3>> deposits;
    std::map<int, SplitResult> results;  // world_rank -> result
  };

  Group(std::uint64_t comm_id, std::vector<int> members) : id(comm_id), ranks(std::move(members)) {
    slots[1].gen = 1;
  }

  std::uint64_t id;
  std::vector<int> ranks;  // world ranks in group order
  std::array<Slot, 2> slots;
};

const char* Fabric::current_op() { return t_current_op ? t_current_op : "?"; }

Fabric::OpScope::OpScope(const char* name) : prev_(t_current_op) { t_current_op = name; }
Fabric::OpScope::~OpScope() { t_current_op = prev_; }

Fabric::Fabric(int world_size) : world_size_(world_size) {
  OPT_CHECK(world_size >= 1, "world_size " << world_size);
  channels_ = std::make_unique<Channel[]>(static_cast<std::size_t>(world_size) * world_size);
  std::vector<int> world(world_size);
  for (int i = 0; i < world_size; ++i) world[i] = i;
  std::lock_guard<std::mutex> lock(groups_mu_);
  world_comm_id_ = next_comm_id_++;
  add_group(world_comm_id_, std::move(world));
}

Fabric::~Fabric() = default;

void Fabric::add_group(std::uint64_t comm_id, std::vector<int> ranks) {
  groups_[comm_id] = std::make_unique<Group>(comm_id, std::move(ranks));
}

Fabric::Group& Fabric::group(std::uint64_t comm_id) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  const auto it = groups_.find(comm_id);
  OPT_CHECK(it != groups_.end(), "no communicator with id " << comm_id);
  return *it->second;
}

void Fabric::set_fault_plan(const FaultPlan& plan) {
  fault_plan_ = plan;
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_counts_.clear();
}

void Fabric::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    if (failed_.load(std::memory_order_acquire)) return;  // first reason wins
    fail_reason_ = reason;
    failed_.store(true, std::memory_order_release);
  }
  // Wake everyone blocked in recv or in a rendezvous so they unwind. Groups
  // are never removed, so the pointers stay valid after groups_mu_ drops
  // (slot locks are taken after it, never under it: split_sync nests the
  // other way).
  for (std::size_t i = 0; i < static_cast<std::size_t>(world_size_) * world_size_; ++i) {
    std::lock_guard<std::mutex> lock(channels_[i].mu);
    channels_[i].cv.notify_all();
  }
  std::vector<Group*> groups;
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    for (auto& [id, g] : groups_) groups.push_back(g.get());
  }
  for (Group* g : groups) {
    for (Group::Slot& s : g->slots) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.cv.notify_all();
    }
  }
}

void Fabric::throw_if_aborted() const {
  if (!failed_.load(std::memory_order_acquire)) return;
  // Record the op THIS rank was inside — deterministic per rank, unlike the
  // first-aborter-wins fail_reason_ below, which depends on scheduling and is
  // therefore kept out of the flight dump.
  obs::flight_note_abort(current_op());
  std::lock_guard<std::mutex> lock(fail_mu_);
  throw FabricAborted("fabric aborted: " + fail_reason_);
}

std::uint64_t Fabric::fault_draw(int src, int dst, std::uint64_t tag, std::uint64_t salt) {
  // Channel identity: (src, dst, salt) mixed with the tag. Per-channel
  // occurrence counters make the n-th message of a channel a stable logical
  // coordinate, so draws are independent of thread interleaving.
  const std::uint64_t channel =
      util::mix3(tag ^ salt, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                                 static_cast<std::uint32_t>(dst),
                 0x0F);
  std::uint64_t occurrence;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    occurrence = fault_counts_[channel]++;
  }
  return util::mix3(fault_plan_.seed, channel, occurrence);
}

void Fabric::send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
                  double timestamp) {
  OPT_CHECK(src >= 0 && src < world_size_ && dst >= 0 && dst < world_size_,
            "send from rank " << src << " to rank " << dst);
  throw_if_aborted();
  Channel& ch = channel(dst, src);
  Message msg;
  msg.tag = tag;
  msg.timestamp = timestamp;
  if (bytes > 0) {
    // Reuse a buffer this channel's receiver released (no allocation, and
    // assign() below copies without zero-filling first).
    std::lock_guard<std::mutex> lock(ch.mu);
    for (std::size_t i = ch.free.size(); i-- > 0;) {
      if (ch.free[i].capacity() < bytes) continue;
      ch.free_bytes -= ch.free[i].capacity();
      msg.payload = std::move(ch.free[i]);
      ch.free[i] = std::move(ch.free.back());
      ch.free.pop_back();
      break;
    }
  }
  const auto* first = static_cast<const std::byte*>(data);
  msg.payload.assign(first, first + bytes);

  if (fault_plan_.active()) {
    const std::uint64_t h = fault_draw(src, dst, tag, /*salt=*/0x5E4D);
    msg.checksum = fnv1a(msg.payload.data(), msg.payload.size());
    if (draw_hits(util::mix3(h, 1, 1), fault_plan_.spike_prob)) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault_plan_.spike_us));
    }
    if (bytes > 0 && draw_hits(util::mix3(h, 2, 2), fault_plan_.poison_prob)) {
      // Flip bits of one deterministic byte after checksumming: the receiver's
      // integrity check must catch it.
      msg.payload[util::mix3(h, 3, 3) % bytes] ^= std::byte{0xFF};
    }
  }

  {
    std::lock_guard<std::mutex> lock(ch.mu);
    ch.queue.push_back(std::move(msg));
  }
  // Channels live as long as the fabric, so notifying after the unlock is
  // safe; only dst ever waits here.
  ch.cv.notify_all();
}

void Fabric::maybe_stall(int dst, int src, std::uint64_t tag) {
  if (fault_plan_.active() && dst == fault_plan_.stall_rank) {
    const std::uint64_t h = fault_draw(src, dst, tag, /*salt=*/0x57A1);
    if (draw_hits(util::mix3(h, 4, 4), fault_plan_.stall_prob)) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault_plan_.stall_us));
    }
  }
}

bool Fabric::try_consume_locked(Channel& ch, std::unique_lock<std::mutex>& lock, int dst,
                                int src, std::uint64_t tag, void* out, std::size_t bytes,
                                double* ts) {
  const auto it = std::find_if(ch.queue.begin(), ch.queue.end(),
                               [&](const Message& m) { return m.tag == tag; });
  if (it == ch.queue.end()) return false;
  OPT_CHECK(it->payload.size() == bytes,
            "recv size mismatch: got " << it->payload.size() << " bytes, want " << bytes
                                       << " (src " << src << " tag " << tag << ")");
  if (fault_plan_.active() && fnv1a(it->payload.data(), it->payload.size()) != it->checksum) {
    std::ostringstream why;
    why << "poisoned payload detected in op '" << current_op() << "' (src " << src << " -> dst "
        << dst << ", tag " << tag << ", " << bytes << " bytes)";
    lock.unlock();
    obs::flight_note_abort(current_op());
    abort(why.str());
    throw FaultError(why.str());
  }
  if (bytes > 0) std::memcpy(out, it->payload.data(), bytes);
  *ts = it->timestamp;
  std::vector<std::byte> buf = std::move(it->payload);
  ch.queue.erase(it);
  if (buf.capacity() > 0 && ch.free_bytes + buf.capacity() <= kPoolBytesPerChannel) {
    ch.free_bytes += buf.capacity();
    ch.free.push_back(std::move(buf));
  }
  return true;
}

double Fabric::recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes) {
  OPT_CHECK(src >= 0 && src < world_size_ && dst >= 0 && dst < world_size_,
            "recv at rank " << dst << " from rank " << src);
  maybe_stall(dst, src, tag);
  Channel& ch = channel(dst, src);
  std::unique_lock<std::mutex> lock(ch.mu);
  for (;;) {
    throw_if_aborted();
    double ts = 0;
    if (try_consume_locked(ch, lock, dst, src, tag, out, bytes, &ts)) return ts;
    ch.cv.wait(lock);
  }
}

std::size_t Fabric::pooled_bytes(int dst, int src) const {
  Channel& ch = channel(dst, src);
  std::lock_guard<std::mutex> lock(ch.mu);
  return ch.free_bytes;
}

double Fabric::rendezvous(Group& g, std::uint64_t seq, int member, const CallSig& sig,
                          double value, const std::string& label,
                          const std::array<int, 2>* split, SplitResult* split_out) {
  const int size = static_cast<int>(g.ranks.size());
  Group::Slot& s = g.slots[seq & 1];
  std::unique_lock<std::mutex> lock(s.mu);
  throw_if_aborted();
  OPT_CHECK(s.gen == seq, "communicator " << g.id << ": rank " << member << " entered seq "
                                          << seq << " while its slot serves seq " << s.gen);
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
  if (split != nullptr) s.deposits.push_back({(*split)[0], (*split)[1], g.ranks[member]});
  const bool last_arriver = ++s.arrived == size;
  if (!last_arriver) {
    s.cv.wait(lock, [&] { return s.arrived == size || aborted(); });
    // A completed rendezvous reports a mismatch even when a peer that already
    // threw it has aborted the fabric: every member names the misuse.
    if (s.arrived != size || s.other_member < 0) throw_if_aborted();
  } else if (split != nullptr && s.other_member < 0) {
    // Partition the deposits into color groups, order each by
    // (key, world_rank) and create each group's rendezvous state under a
    // fresh communicator id — one per color, deterministic by sorting colors.
    std::sort(s.deposits.begin(), s.deposits.end());
    std::map<int, std::vector<int>> by_color;
    for (const auto& d : s.deposits) by_color[d[0]].push_back(d[2]);
    std::lock_guard<std::mutex> groups_lock(groups_mu_);
    for (auto& [color, members] : by_color) {
      const std::uint64_t id = next_comm_id_++;
      for (int m : members) s.results[m] = SplitResult{id, members};
      add_group(id, std::move(members));
    }
  }

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
    s.deposits.clear();
    s.results.clear();
  }
  lock.unlock();
  // The slot cannot be reused for seq+2 while this member is still here, so
  // the wake-up after the unlock reaches only this seq's waiters.
  if (last_arriver) s.cv.notify_all();
  if (!mismatch.empty()) throw util::CheckError(mismatch);
  return result;
}

double Fabric::sync_max(Group& g, std::uint64_t seq, int member, const CallSig& sig,
                        double value, const std::string& label) {
  return rendezvous(g, seq, member, sig, value, label, nullptr, nullptr);
}

Fabric::SplitResult Fabric::split_sync(Group& g, std::uint64_t seq, int member, int color,
                                       int order_key, const std::string& label) {
  const CallSig sig{"split", CallKind::kSplit};
  const std::array<int, 2> deposit{color, order_key};
  SplitResult result;
  (void)rendezvous(g, seq, member, sig, 0.0, label, &deposit, &result);
  return result;
}

}  // namespace optimus::comm
