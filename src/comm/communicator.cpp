#include "comm/communicator.hpp"

#include "obs/flight.hpp"

namespace optimus::comm {

Communicator::Communicator(Fabric& fabric, std::uint64_t comm_id, std::vector<int> group,
                           int world_rank, SimClock& clock, const CostModel& cost,
                           CommStats& stats)
    : fabric_(&fabric),
      rendezvous_(&fabric.group(comm_id)),
      comm_id_(comm_id),
      group_(std::move(group)),
      rank_(-1),
      clock_(&clock),
      cost_(&cost),
      price_(cost.price(group_)),
      stats_(&stats) {
  OPT_CHECK(!group_.empty(), "communicator group is empty");
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (group_[i] == world_rank) {
      rank_ = static_cast<int>(i);
      break;
    }
  }
  OPT_CHECK(rank_ >= 0, "world rank " << world_rank << " not in communicator group");
}

Request Communicator::collective(const Entry& e, const Deposit& mine, Fold fold) {
  const std::uint64_t seq = seq_++;
  if (size() == 1) {
    if (fold) fold(&mine);
    return {};
  }
  Fabric::OpScope op_scope(e.sig.op);
  obs::Span span("comm", e.sig.op);
  clock_->drain_compute(*cost_);
  const double entry_local = clock_->now();
  // Flight note before the rendezvous: if a peer's fault aborts the fabric
  // while we block in sync_max, the recorder still shows what we entered.
  if (obs::flight_enabled()) {
    obs::flight_note("comm", e.sig.op, entry_local,
                     label_.empty() ? "g=" + std::to_string(size())
                                    : label_ + " g=" + std::to_string(size()));
  }
  // Entry waits for the slowest member's clock AND for this communicator's
  // link to free up (earlier issued-but-unwaited transfers occupy it). For
  // blocking flows the clock never lags the link, so this is a pure
  // extension; for pipelined flows it is what serialises back-to-back
  // collectives on one link while row/column links still overlap.
  const double entry_aligned =
      std::max(fabric_->sync_max(*rendezvous_, seq, rank_, e.sig, entry_local, label_, mine, fold),
               link_busy_until_);
  link_busy_until_ = entry_aligned + e.dt;
  if (e.wait_op == nullptr) {
    // Lands on the modelled completion, split into align_wait and transfer.
    clock_->align_to(entry_aligned);
    clock_->advance_transfer(e.dt);
  }
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("g", size());
    span.arg("bytes", e.bytes);
    span.arg("wait_s", entry_aligned - entry_local);
    span.arg("transfer_s", e.dt);
    if (e.chunks > 1) span.arg("chunks", e.chunks);
  }
  e.op->record(e.elems, e.bytes, e.weighted, e.dt);
  if (e.wait_op == nullptr) return {};
  return Request(this, e.wait_op, entry_aligned + e.dt, e.bytes);
}

void Request::wait() {
  if (comm_ == nullptr) return;
  Communicator& comm = *std::exchange(comm_, nullptr);
  comm.clock_->drain_compute(*comm.cost_);
  // The span covers exactly the idle time this rank spends blocked on the
  // in-flight transfer — the part of the modelled dt that compute did NOT
  // hide. The transfer itself was accounted (args + link reservation) at
  // issue, so transfer_s here is 0 and sim_dur == wait_s.
  obs::Span span("comm", wait_op_);
  const double idle = std::max(0.0, completion_ - comm.clock_->now());
  comm.clock_->align_to(completion_);
  if (span.armed()) {
    if (!comm.label_.empty()) span.arg("comm", comm.label_);
    span.arg("g", comm.size());
    span.arg("bytes", bytes_);
    span.arg("wait_s", idle);
    span.arg("transfer_s", 0.0);
  }
}

Communicator Communicator::split(int color, int key) {
  const std::uint64_t seq = seq_++;
  // The split itself is an out-of-band control operation; it moves no modelled
  // bytes (real backends amortise communicator construction outside the
  // training loop).
  Fabric::SplitResult r = fabric_->split_sync(*rendezvous_, seq, rank_, color, key, label_);
  return Communicator(*fabric_, r.new_comm_id, std::move(r.group), world_rank(), *clock_,
                      *cost_, *stats_);
}

void Communicator::barrier() {
  // The rendezvous on entry is the whole barrier; no data moves.
  collective(Entry{.sig = CallSig{"barrier", CallKind::kBarrier},
                   .dt = cost_->barrier_time(price_),
                   .op = &stats_->barrier},
             {}, {});
}

}  // namespace optimus::comm
