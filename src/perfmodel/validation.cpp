#include "perfmodel/validation.hpp"

#include <algorithm>
#include <cmath>

namespace optimus::perfmodel {

SummaAbTimes predict_summa_ab_times(const comm::CostModel& cost, int q, std::int64_t m,
                                    std::int64_t k, std::int64_t n, std::size_t elem_size,
                                    int d) {
  // Rank (0,0,0)'s groups on the depth-major bunched mesh: row group is the
  // first q world ranks, column group strides by q, depth group strides by q².
  // Every rank's schedule is symmetric, so one rank's clock is the call's sim
  // time.
  std::vector<int> row_group(static_cast<std::size_t>(q));
  std::vector<int> col_group(static_cast<std::size_t>(q));
  std::vector<int> depth_group(static_cast<std::size_t>(d));
  for (int i = 0; i < q; ++i) {
    row_group[static_cast<std::size_t>(i)] = i;
    col_group[static_cast<std::size_t>(i)] = i * q;
  }
  for (int z = 0; z < d; ++z) depth_group[static_cast<std::size_t>(z)] = z * q * q;
  const auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  // Sub-panel volumes: the contraction block k/q further splits d ways.
  const std::uint64_t a_bytes = u64(m / q) * u64(k / q / d) * elem_size;
  const std::uint64_t b_bytes = u64(k / q / d) * u64(n / q) * elem_size;
  const std::uint64_t c_bytes = u64(m / q) * u64(n / q) * elem_size;
  const double t_row = q > 1 ? cost.tree_plan(cost.price(row_group), a_bytes).time : 0.0;
  const double t_col = q > 1 ? cost.tree_plan(cost.price(col_group), b_bytes).time : 0.0;
  const double t_gemm = cost.compute_time(u64(m / q) * u64(n / q) * u64(k / q / d));
  // Depth-reduction term: tree reduce of the C partial to depth 0, then the
  // replica broadcast back — same tree, paid twice, never overlapped. A
  // 1-rank depth group costs exactly 0, so d = 1 is the 2D schedule.
  const double t_depth = 2.0 * cost.tree_plan(cost.price(depth_group), c_bytes).time;

  SummaAbTimes out;
  // Blocking: each collective entry first drains the pending GEMM, then the
  // clock advances by the tree time; the final GEMM drains after the loop.
  out.blocking_s = static_cast<double>(q) * (t_row + t_col + t_gemm) + t_depth;

  // Pipelined: issue reserves the link at max(clock, link_busy) without
  // advancing the clock; wait drains pending compute then jumps to
  // max(clock, completion). Step l>0 drains step l-1's GEMM at its first
  // issue (or, on the last step, at its first wait) — same sum either way.
  // The depth fold follows the loop, sequentially.
  double t = 0, row_link = 0, col_link = 0;
  double a_done[2] = {0, 0}, b_done[2] = {0, 0};
  const auto issue = [&](int slot) {
    a_done[slot] = std::max(t, row_link) + t_row;
    row_link = a_done[slot];
    b_done[slot] = std::max(t, col_link) + t_col;
    col_link = b_done[slot];
  };
  issue(0);
  for (int l = 0; l < q; ++l) {
    const int cur = l & 1;
    if (l > 0) t += t_gemm;
    if (l + 1 < q) issue(cur ^ 1);
    t = std::max(t, a_done[cur]);
    t = std::max(t, b_done[cur]);
  }
  t += t_gemm;
  out.pipelined_s = q > 1 ? t + t_depth : out.blocking_s;
  return out;
}

namespace {

// Rank 0's groups on the bunched mesh (mirrors predict_summa_ab_times): every
// rank's decode schedule is symmetric apart from the attention term, which is
// handled explicitly, so rank 0's clock is the step time.
std::vector<int> world_group(int p) {
  std::vector<int> g(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) g[static_cast<std::size_t>(i)] = i;
  return g;
}

std::uint64_t decode_attention_mults(const std::vector<tensor::index_t>& lens,
                                     tensor::index_t heads, tensor::index_t d) {
  // Σ_slot heads · 2·(len+1)·d — matches model::attention_decode_mults; the
  // perfmodel stays link-free of the model layer by restating the two GEMVs.
  std::uint64_t total = 0;
  for (const tensor::index_t len : lens) {
    total += static_cast<std::uint64_t>(heads) * 2u *
             static_cast<std::uint64_t>(len + 1) * static_cast<std::uint64_t>(d);
  }
  return total;
}

}  // namespace

double predict_serial_decode_step_time(const comm::CostModel& cost, const Workload& w,
                                       const std::vector<tensor::index_t>& lens,
                                       std::size_t elem_size) {
  (void)elem_size;
  const std::uint64_t n = static_cast<std::uint64_t>(w.b);
  const std::uint64_t h = static_cast<std::uint64_t>(w.h);
  const std::uint64_t d = static_cast<std::uint64_t>(w.h / w.n);
  // qkv (3h) + proj (h) + fc1 (4h) + fc2 (4h) GEMMs per layer, then lm logits.
  std::uint64_t mults = static_cast<std::uint64_t>(w.layers) *
                        (n * 12u * h * h + decode_attention_mults(lens, w.n, d));
  mults += n * static_cast<std::uint64_t>(w.v) * h;
  return cost.compute_time(mults);
}

double predict_megatron_decode_step_time(const comm::CostModel& cost, const Workload& w, int p,
                                         const std::vector<tensor::index_t>& lens,
                                         std::size_t elem_size) {
  const comm::GroupCost world = cost.price(world_group(p));
  const std::uint64_t n = static_cast<std::uint64_t>(w.b);
  const std::uint64_t h = static_cast<std::uint64_t>(w.h);
  const std::uint64_t up = static_cast<std::uint64_t>(p);
  const std::uint64_t nh_bytes = n * h * elem_size;
  // Embed assembly + 2 per-layer all-reduces (attention proj and fc2), all
  // n·h; the argmax gathers every rank's [n, v/p] logits slice.
  double t = cost.ring_allreduce_time(world, nh_bytes);
  t += 2.0 * static_cast<double>(w.layers) * cost.ring_allreduce_time(world, nh_bytes);
  t += cost.ring_allgather_time(world, n * static_cast<std::uint64_t>(w.v) * elem_size);
  // Per-rank GEMMs: column-sharded qkv/fc1, row-sharded proj/fc2, vocab-sliced
  // logits; attention runs on heads/p heads of every slot — symmetric.
  std::uint64_t mults =
      static_cast<std::uint64_t>(w.layers) *
      (n * 12u * h * h / up +
       decode_attention_mults(lens, w.n / p, w.h / w.n));
  mults += n * (static_cast<std::uint64_t>(w.v) / up) * h;
  return t + cost.compute_time(mults);
}

double predict_optimus_decode_step_time(const comm::CostModel& cost, const Workload& w, int q,
                                        const std::vector<tensor::index_t>& lens,
                                        std::size_t elem_size) {
  std::vector<int> row_group(static_cast<std::size_t>(q));
  std::vector<int> col_group(static_cast<std::size_t>(q));
  for (int i = 0; i < q; ++i) {
    row_group[static_cast<std::size_t>(i)] = i;
    col_group[static_cast<std::size_t>(i)] = i * q;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(w.b);
  const std::uint64_t nl = n / static_cast<std::uint64_t>(q);
  const std::uint64_t hq = static_cast<std::uint64_t>(w.h) / static_cast<std::uint64_t>(q);
  const std::uint64_t vq = static_cast<std::uint64_t>(w.v) / static_cast<std::uint64_t>(q);
  const double N = static_cast<double>(w.layers);
  const comm::GroupCost row = cost.price(row_group);
  const comm::GroupCost col = cost.price(col_group);
  const auto tree = [&](const comm::GroupCost& g, std::uint64_t bytes) {
    return q > 1 ? cost.tree_plan(g, bytes).time : 0.0;
  };

  // Packed embed: q rounds, root row l broadcasting its [n, h/q] packed rows
  // down the columns.
  double t = static_cast<double>(q) * tree(col, n * hq * elem_size);
  // Per layer: 2 layernorm stat all-reduces (2 scalars per local row, along
  // the mesh row) + the four blocking SUMMA calls, plus the final layernorm.
  const double t_ln =
      q > 1 ? cost.ring_allreduce_time(row, 2u * nl * elem_size) : 0.0;
  t += (2.0 * N + 1.0) * t_ln;
  const std::int64_t m = w.b, h = w.h;
  t += N * (predict_summa_ab_times(cost, q, m, h, 3 * h, elem_size).blocking_s +
            predict_summa_ab_times(cost, q, m, h, h, elem_size).blocking_s +
            predict_summa_ab_times(cost, q, m, h, 4 * h, elem_size).blocking_s +
            predict_summa_ab_times(cost, q, m, 4 * h, h, elem_size).blocking_s);
  // lm-head summa_abt: q steps of column-broadcast E block [v/q, h/q], local
  // GEMM [n/q, v/q], row-reduce of the partial.
  t += static_cast<double>(q) *
       (tree(col, vq * hq * elem_size) + cost.compute_time(nl * vq * hq) +
        tree(row, nl * vq * elem_size));
  // Argmax assembly: vocab direction along the row, slot blocks down the
  // column (the column payload carries the full row-gathered [q·n/q, v/q]).
  if (q > 1) {
    t += cost.ring_allgather_time(row, static_cast<std::uint64_t>(q) * nl * vq * elem_size);
    t += cost.ring_allgather_time(col, static_cast<std::uint64_t>(q) * q * nl * vq * elem_size);
  }
  // Attention: mesh row i hosts slots [i·n/q, (i+1)·n/q) on heads/q heads; the
  // row clocks re-align at the next column collective, so each layer pays the
  // slowest row.
  std::uint64_t worst = 0;
  for (int i = 0; i < q; ++i) {
    const std::vector<tensor::index_t> slice(
        lens.begin() + static_cast<std::ptrdiff_t>(i) * static_cast<std::ptrdiff_t>(nl),
        lens.begin() + static_cast<std::ptrdiff_t>(i + 1) * static_cast<std::ptrdiff_t>(nl));
    worst = std::max(worst, decode_attention_mults(slice, w.n / q, w.h / w.n));
  }
  t += N * cost.compute_time(worst);
  return t;
}

double megatron_lm_allreduce_weighted(const Workload& w, int p) {
  const double stem =
      static_cast<double>(w.layers) * (megatron_fwd_comm(w, p) + megatron_bwd_comm(w, p));
  const double ar = 2.0 * (p - 1) / static_cast<double>(p);
  const double bsh = static_cast<double>(w.b) * w.s * w.h;
  const double bs = static_cast<double>(w.b) * w.s;
  // Embedding assembly (bsh) + d_hidden (bsh) + vocab-CE statistics (3·bs;
  // the max is recorded with the same ring weight as the sums).
  return stem + ar * (2.0 * bsh + 3.0 * bs);
}

double optimus_lm_bcast_reduce_weighted(const Workload& w, int q) {
  const int p = q * q;
  const double lg = std::log2(static_cast<double>(q));
  const double hq = static_cast<double>(w.h) / q;
  const double fq = 4.0 * hq;
  const double tq = 3.0 * hq;
  const double vq = static_cast<double>(w.v) / q;
  const double s = static_cast<double>(w.s);
  const double N = static_cast<double>(w.layers);

  // SUMMA stem (Table 1; backward includes the checkpoint recompute).
  const double stem = N * (optimus_fwd_comm(w, p) + optimus_bwd_comm(w, p));
  // lm-head: Alg-2 logits forward, Alg-1 dX and Alg-3 dE backward. Each SUMMA
  // call moves q·(broadcast block + reduce block) at tree weight log₂ q.
  const double rows = static_cast<double>(w.b) / q * s;
  const double lm_fwd = lg * q * (vq * hq + rows * vq);
  const double lm_bwd = lg * q * (rows * vq + vq * hq)    // ab: dlogits + E
                        + lg * q * (rows * vq + vq * hq); // atb: dlogits + dE
  // Hosted-slice broadcasts per layer forward (and again in the recompute):
  // 4 LN slices (hq each) + biases (tq + 2·hq + fq); gradients reduce the
  // same volumes backward.
  const double hosted_fwd = lg * (4 * hq + tq + 2 * hq + fq);
  const double hosted_bwd = hosted_fwd;
  const double hosted = N * (2 * hosted_fwd + hosted_bwd);
  // Final layernorm: 2 slice broadcasts forward, 2 partial reductions back.
  const double final_ln = lg * (2 * hq) + lg * (2 * hq);
  // Embedding: q table-block broadcasts + position slice forward; mirrored
  // reductions backward.
  const double embed = 2.0 * lg * (q * vq * hq + s * hq);
  return stem + lm_fwd + lm_bwd + hosted + final_ln + embed;
}

bool CommValidation::ok(double rtol) const {
  for (const auto& row : rows) {
    if (row.rel_err() > rtol) return false;
  }
  return true;
}

CommValidation validate_lm_step_comm(Scheme scheme, const Workload& w, int p,
                                     const comm::CommStats& measured) {
  CommValidation v;
  v.scheme = scheme;
  v.p = p;
  if (scheme == Scheme::kMegatron) {
    v.rows.push_back({"allreduce", measured.allreduce.weighted,
                      megatron_lm_allreduce_weighted(w, p)});
  } else {
    int q = 1;
    while (q * q < p) ++q;
    v.rows.push_back({"broadcast+reduce",
                      measured.broadcast.weighted + measured.reduce.weighted,
                      optimus_lm_bcast_reduce_weighted(w, q)});
  }
  return v;
}

}  // namespace optimus::perfmodel
