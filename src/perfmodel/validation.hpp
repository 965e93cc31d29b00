#pragma once

// Measured-vs-analytic communication validation.
//
// The engines measure per-device collective traffic (comm::CommStats, in the
// paper's β-weighted scalar units); the perfmodel predicts it (Table 1 plus
// the exact non-SUMMA extras the paper calls "negligible"). This module holds
// the closed forms for one full LM training pass — forward + loss + backward —
// through either engine, and a comparator that turns a measured CommStats into
// a per-collective-family scoreboard. tests/trace_test.cpp asserts the match
// exactly; the benches and scaling_explorer attach it to their reports so the
// oracle is re-checked on every run, not just under ctest.

#include <cstdint>
#include <string>
#include <vector>

#include "comm/sim_clock.hpp"
#include "perfmodel/costs.hpp"
#include "perfmodel/memory.hpp"

namespace optimus::perfmodel {

/// Predicted β-weighted all-reduce units for one fwd+loss+bwd LM pass of the
/// Megatron engine at scale p: the Table-1 stem (N layers, backward includes
/// the checkpoint recompute) plus embedding assembly (bsh), d_hidden (bsh)
/// and the vocab-parallel cross-entropy statistics (3·bs), all carried by the
/// p-wide ring all-reduce weight 2(p−1)/p.
double megatron_lm_allreduce_weighted(const Workload& w, int p);

/// Predicted broadcast+reduce weighted units for one fwd+loss+bwd LM pass of
/// the Optimus engine on a q×q mesh: the SUMMA stem plus the exact lm-head
/// (Alg 1–3), hosted-slice broadcast/reduction, final-layernorm and embedding
/// terms, all carried by the binomial-tree weight log₂ q.
double optimus_lm_bcast_reduce_weighted(const Workload& w, int q);

/// Predicted per-rank simulated time for one summa_ab call (global M=m, K=k,
/// N=n, element size `elem_size`) on a q×q×d bunched mesh (world p = d·q²,
/// depth-major ranks; d = 1 is the 2D mesh), under both SUMMA schedules.
/// Mirrors the SimClock arithmetic exactly:
///
///   blocking:   every k-step pays its row broadcast, its column broadcast and
///               (lazily, at the next collective entry) its GEMM in sequence —
///               q·(t_row + t_col + t_gemm).
///   pipelined:  broadcasts for step l+1 are issued before the step-l panels
///               are consumed; each issue reserves its link (row and column
///               links are independent) and the wait advances the clock to
///               max(clock, completion), so a steady-state step costs
///               max(comm, compute) with an un-overlappable prologue (the
///               step-0 broadcasts) and epilogue (the final GEMM).
///
/// At depth d (Tesseract-style 2.5D) the Table-1 terms shrink by d — each
/// k-step row/column-broadcasts k_b/d sub-panels and multiplies m_b·n_b·k_b/d
/// — and either schedule ends with the depth-reduction term: a d-deep tree
/// reduce of the C partial to depth layer 0 plus the replica broadcast back,
/// neither overlapped with anything (0 at d = 1). Exact when the bunched
/// layout makes all depth layers symmetric (q² divisible by gpus_per_node, or
/// the mesh fitting in one node per layer).
///
/// summa_test and scaling_explorer --validate check the simulator reproduces
/// both to within floating-point round-off.
struct SummaAbTimes {
  double blocking_s = 0;
  double pipelined_s = 0;

  /// Fraction of the blocking time hidden by overlap, in [0, 1).
  double overlap_efficiency() const {
    return blocking_s > 0 ? (blocking_s - pipelined_s) / blocking_s : 0.0;
  }
};

SummaAbTimes predict_summa_ab_times(const comm::CostModel& cost, int q, std::int64_t m,
                                    std::int64_t k, std::int64_t n, std::size_t elem_size,
                                    int depth = 1);

// -- KV-cached decode step ---------------------------------------------------
//
// One incremental decode step feeds one token per cache slot and runs the
// whole stem at sequence length 1, so its simulated cost is a short exact sum:
// every collective the engine issues plus every GEMM it charges (LN, softmax,
// bias and argmax scans charge nothing). The step ends in the argmax
// all-gather(s), so no compute is left pending — measured per-step SimClock
// deltas match these forms to round-off. serving_test and
// scaling_explorer --validate assert the match.
//
// `w.b` is the number of cache slots fed (the global decode batch), `w.n` the
// head count, `lens[i]` slot i's cached length *before* the step. Valid for
// the distributed engines at p ≥ 2 / q ≥ 2: a 1-wide communicator returns
// before the clock drains, so a degenerate 1×1 mesh never advances its clock —
// measure the serial adapter (which drains explicitly) instead.
//
// The forms sum one representative rank's collective-group costs, which is
// exact only when every parallel group has the same cost (a mesh that fits in
// one node, or q dividing gpus_per_node). On topologies where sibling columns
// straddle node boundaries differently, ranks drift apart by the group-cost
// deltas and re-align at the next crossing collective; those alignment waits
// are not modelled, so the closed form is then a (tight) lower bound.

/// Serial oracle: pure compute (the adapter drains the counter each step).
double predict_serial_decode_step_time(const comm::CostModel& cost, const Workload& w,
                                       const std::vector<tensor::index_t>& lens,
                                       std::size_t elem_size);

/// Megatron 1D: embed assembly all-reduce + 2 ring all-reduces per layer +
/// the argmax logits all-gather, plus this rank's (symmetric) GEMM charges.
double predict_megatron_decode_step_time(const comm::CostModel& cost, const Workload& w, int p,
                                         const std::vector<tensor::index_t>& lens,
                                         std::size_t elem_size);

/// Optimus 2D on a bunched q×q mesh: packed-embed column broadcasts, per-layer
/// layernorm stat all-reduces + four blocking SUMMA calls, the lm-head
/// summa_abt, and the two argmax all-gathers. Attention load differs by mesh
/// row (each row hosts a different slot block); the row clocks re-align at the
/// next column collective, so the step pays the *slowest* row's attention —
/// max over rows, per layer.
double predict_optimus_decode_step_time(const comm::CostModel& cost, const Workload& w, int q,
                                        const std::vector<tensor::index_t>& lens,
                                        std::size_t elem_size);

/// One measured-vs-predicted comparison line.
struct CommValidationRow {
  std::string name;       // collective family, e.g. "allreduce"
  double measured = 0;    // β-weighted units from CommStats
  double predicted = 0;   // closed form

  double abs_err() const { return measured > predicted ? measured - predicted
                                                       : predicted - measured; }
  double rel_err() const {
    const double scale = predicted > 0 ? predicted : 1.0;
    return abs_err() / scale;
  }
};

struct CommValidation {
  Scheme scheme;
  int p = 0;
  std::vector<CommValidationRow> rows;

  /// True when every row matches within `rtol` relative error.
  bool ok(double rtol = 1e-9) const;
};

/// Compares one rank's measured collective traffic for a single LM step
/// against the closed forms above. Every rank moves the same volume, so any
/// rank's stats may be passed. For Megatron the scoreboard row is the ring
/// all-reduce; for Optimus it is the tree broadcast+reduce total.
CommValidation validate_lm_step_comm(Scheme scheme, const Workload& w, int p,
                                     const comm::CommStats& measured);

}  // namespace optimus::perfmodel
