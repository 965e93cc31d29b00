#include "summa/summa.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "comm/communicator.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace optimus::summa {

namespace {

using tensor::Arena;
using tensor::ArenaScope;
using tensor::index_t;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;

// −1 = unresolved (read OPTIMUS_SUMMA_PIPELINE on first use), 0 = off, 1 = on.
std::atomic<int> g_pipeline_mode{-1};

/// Allocates a temporary either from the workspace arena or the heap.
template <typename T>
TensorT<T> make_temp(Arena* workspace, Shape shape) {
  if (workspace != nullptr) return workspace->alloc<T>(shape);
  return TensorT<T>(shape);
}

}  // namespace

bool pipeline_enabled() {
  int mode = g_pipeline_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    const char* env = std::getenv("OPTIMUS_SUMMA_PIPELINE");
    const int from_env = (env != nullptr && std::strcmp(env, "0") == 0) ? 0 : 1;
    int expected = -1;
    if (g_pipeline_mode.compare_exchange_strong(expected, from_env)) {
      mode = from_env;
    } else {
      mode = expected;  // another thread resolved it first
    }
  }
  return mode != 0;
}

void set_pipeline_enabled(bool enabled) {
  g_pipeline_mode.store(enabled ? 1 : 0, std::memory_order_release);
}

PipelineGuard::PipelineGuard(bool enabled) : prev_(pipeline_enabled()) {
  OPT_CHECK(obs::current_rank() == obs::kHostRank,
            "PipelineGuard built on the thread of simulated rank "
                << obs::current_rank()
                << "; the SUMMA pipeline mode is process-wide, so set it on the thread that "
                   "launches the cluster");
  set_pipeline_enabled(enabled);
}

namespace {

// -- the k-loop ---------------------------------------------------------------
//
// Each product form runs one k-loop parameterized by two numbers:
//
//   lookahead — 0 issues every step's collectives as blocking calls, in step
//               order; 1 double-buffers the panels and issues step l+1's
//               broadcasts (asynchronously) before waiting on step l's, so the
//               GEMM of step l overlaps the transfer of step l+1. Payloads,
//               roots and reduction order are identical, so results are
//               bitwise identical; only the clock arithmetic differs
//               (Request::wait advances to max(clock, completion)).
//   depth d   — on a q×q×d mesh (Tesseract-style 2.5D, arXiv:2105.14500)
//               every contraction block splits into d sub-panels of extent
//               k_b/d; depth layer z broadcasts and multiplies only sub-range
//               z, so per-step broadcast volume and GEMM work both drop by d.
//               The loop then leaves a pure partial of the C block, which a
//               depth tree reduction to layer 0 (ascending depth = ascending
//               k), the accumulate epilogue and a replica broadcast finish.
//               At d = 1 the loop works on the caller's blocks directly.

/// Copies the k-range [k0, k0 + extent) of `src` into `dst`, where the
/// contraction runs along columns (`by_cols`) or rows and `dst` is the
/// range's shape. At d = 1 the range is the whole block: a plain copy.
template <typename T>
void pack_k_range(TensorT<T>& dst, const TensorT<T>& src, index_t k0, bool by_cols) {
  if (!by_cols) {
    std::memcpy(dst.data(), src.data() + k0 * src.size(1),
                static_cast<std::size_t>(dst.numel()) * sizeof(T));
    return;
  }
  const index_t cols = src.size(1);
  const index_t w = dst.size(1);
  for (index_t i = 0; i < src.size(0); ++i) {
    std::memcpy(dst.data() + i * w, src.data() + i * cols + k0,
                static_cast<std::size_t>(w) * sizeof(T));
  }
}

/// Shape of the k-range of `t` that pack_k_range copies.
template <typename T>
Shape k_range_shape(const TensorT<T>& t, index_t extent, bool by_cols) {
  return by_cols ? Shape{t.size(0), extent} : Shape{extent, t.size(1)};
}

/// Step `root`'s panel broadcast over `comm`: the root (mesh row/column `root`
/// of the k-loop) packs its k-range of `src` into `buf`, then the broadcast is
/// issued — as the blocking call at lookahead 0 (the returned request is
/// inert), asynchronously otherwise.
template <typename T>
comm::Request broadcast_panel(comm::Communicator& comm, int root, TensorT<T>& buf,
                              const TensorT<T>& src, index_t k0, bool by_cols, int lookahead) {
  if (comm.rank() == root) pack_k_range(buf, src, k0, by_cols);
  if (lookahead == 0) {
    comm.broadcast(buf.data(), buf.numel(), root);
    return {};
  }
  return comm.ibroadcast(buf.data(), buf.numel(), root);
}

void k_step_args(obs::Span& span, int l, int lookahead) {
  if (!span.armed()) return;
  span.arg("l", l);
  if (lookahead > 0) span.arg("pipelined", 1);
}

/// Tree-reduces the per-depth C partials to depth layer 0, applies the
/// accumulate semantics there, and broadcasts the finished block back down the
/// depth group so every replica ends bitwise identical. Reuses the chunked
/// non-blocking collectives (issue + immediate wait ≡ the blocking forms).
template <typename T>
void depth_fold(mesh::Mesh2D& mesh, TensorT<T>& partial, TensorT<T>& C, TensorT<T>& scratch,
                bool accumulate) {
  comm::Communicator& dc = mesh.depth_comm();
  comm::Request red = dc.ireduce(partial.data(), partial.numel(), /*root=*/0, scratch.data());
  red.wait();
  if (mesh.depth_idx() == 0) {
    if (accumulate) {
      ops::add_(C, partial);
    } else {
      C.copy_from(partial);
    }
  }
  comm::Request bc = dc.ibroadcast(C.data(), C.numel(), /*root=*/0);
  bc.wait();
}

/// Broadcast–broadcast loop (summa_ab, Algorithm 1): step l row-broadcasts
/// mesh column l's A panel, column-broadcasts mesh row l's B panel (paper
/// Fig. 3) and accumulates their product.
template <typename T>
void ab_loop(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
             bool accumulate, int lookahead, Arena* workspace) {
  const int q = mesh.q();
  const int d = mesh.depth();
  const int nbuf = lookahead + 1;
  const index_t ks = A.size(1) / d;
  const index_t k0 = static_cast<index_t>(mesh.depth_idx()) * ks;
  TensorT<T> c_part, fold_scratch;
  if (d > 1) {
    c_part = make_temp<T>(workspace, C.shape());
    fold_scratch = make_temp<T>(workspace, C.shape());
  }
  TensorT<T>& target = d > 1 ? c_part : C;
  const bool acc = d == 1 && accumulate;  // the depth fold applies it at d > 1
  TensorT<T> a_buf[2], b_buf[2];
  for (int s = 0; s < nbuf; ++s) a_buf[s] = make_temp<T>(workspace, k_range_shape(A, ks, true));
  for (int s = 0; s < nbuf; ++s) b_buf[s] = make_temp<T>(workspace, k_range_shape(B, ks, false));
  comm::Request a_req[2], b_req[2];
  const auto issue = [&](int l) {
    const int s = l % nbuf;
    a_req[s] = broadcast_panel(mesh.row_comm(), l, a_buf[s], A, k0, true, lookahead);
    b_req[s] = broadcast_panel(mesh.col_comm(), l, b_buf[s], B, k0, false, lookahead);
  };
  for (int l = 0; l < lookahead; ++l) issue(l);
  for (int l = 0; l < q; ++l) {
    obs::Span step_span("summa", "k_step");
    k_step_args(step_span, l, lookahead);
    if (l + lookahead < q) issue(l + lookahead);
    const int s = l % nbuf;
    a_req[s].wait();
    b_req[s].wait();
    const T beta = (l == 0 && !acc) ? T{0} : T{1};
    ops::gemm(target, a_buf[s], b_buf[s], ops::Trans::No, ops::Trans::No, T{1}, beta);
  }
  if (d > 1) depth_fold(mesh, c_part, C, fold_scratch, accumulate);
}

/// Broadcast–reduce loop shared by summa_abt (Algorithm 2) and summa_atb
/// (Algorithm 3), mirror images across the mesh diagonal. abt keeps A fixed,
/// broadcasts mesh row l's B panel down the columns and reduces the C
/// partials A·Bᵀ across each row to column l; atb keeps B fixed, broadcasts
/// mesh column l's A panel across the rows and reduces Aᵀ·B down each column
/// to row l. Both contract over the dimension the fixed and moving blocks
/// share: columns for abt, rows for atb.
template <typename T>
void reduce_loop(mesh::Mesh2D& mesh, const TensorT<T>& fixed, const TensorT<T>& moving,
                 TensorT<T>& C, bool accumulate, bool abt, int lookahead, Arena* workspace) {
  const int q = mesh.q();
  const int d = mesh.depth();
  const int nbuf = lookahead + 1;
  comm::Communicator& bcast = abt ? mesh.col_comm() : mesh.row_comm();
  comm::Communicator& reduce = abt ? mesh.row_comm() : mesh.col_comm();
  const index_t ks = (abt ? fixed.size(1) : fixed.size(0)) / d;
  const index_t k0 = static_cast<index_t>(mesh.depth_idx()) * ks;
  TensorT<T> fixed_sub, c_part;
  if (d > 1) {
    // The local fixed sub-panel is the same in every step: pack it once.
    fixed_sub = make_temp<T>(workspace, k_range_shape(fixed, ks, abt));
    pack_k_range(fixed_sub, fixed, k0, abt);
    c_part = make_temp<T>(workspace, C.shape());
  }
  const TensorT<T>& fix = d > 1 ? fixed_sub : fixed;
  TensorT<T>& target = d > 1 ? c_part : C;
  const bool acc = d == 1 && accumulate;  // the depth fold applies it at d > 1
  TensorT<T> m_buf[2], c_tmp[2];
  for (int s = 0; s < nbuf; ++s) m_buf[s] = make_temp<T>(workspace, k_range_shape(moving, ks, abt));
  for (int s = 0; s < nbuf; ++s) c_tmp[s] = make_temp<T>(workspace, C.shape());
  // Receive buffer of every in-loop reduce (and of the depth fold). At most
  // one reduce is in flight, so a step's partial is never overwritten before
  // its reduce retires.
  TensorT<T> r_scratch = make_temp<T>(workspace, C.shape());
  comm::Request m_req[2], r_req;
  int r_step = -1;  // step whose reduce awaits retirement
  const auto issue = [&](int l) {
    m_req[l % nbuf] = broadcast_panel(bcast, l, m_buf[l % nbuf], moving, k0, abt, lookahead);
  };
  // Retire = wait + capture of the reduced partial at the step's owner.
  const auto retire = [&] {
    if (r_step < 0) return;
    r_req.wait();
    if (reduce.rank() == r_step) {
      if (acc) {
        ops::add_(target, c_tmp[r_step % nbuf]);
      } else {
        target.copy_from(c_tmp[r_step % nbuf]);
      }
    }
    r_step = -1;
  };
  for (int l = 0; l < lookahead; ++l) issue(l);
  for (int l = 0; l < q; ++l) {
    obs::Span step_span("summa", "k_step");
    k_step_args(step_span, l, lookahead);
    if (l + lookahead < q) issue(l + lookahead);
    const int s = l % nbuf;
    m_req[s].wait();
    ops::gemm(c_tmp[s], abt ? fix : m_buf[s], abt ? m_buf[s] : fix,
              abt ? ops::Trans::No : ops::Trans::Yes, abt ? ops::Trans::Yes : ops::Trans::No,
              T{1}, T{0});
    // The capture's position relative to the next collective decides which
    // side of its clock alignment the capture drains on: step l−1's reduce
    // retires before step l's is issued, and a blocking reduce retires at once.
    if (lookahead > 0) retire();
    if (lookahead == 0) {
      reduce.reduce(c_tmp[s].data(), c_tmp[s].numel(), l, r_scratch.data());
    } else {
      r_req = reduce.ireduce(c_tmp[s].data(), c_tmp[s].numel(), l, r_scratch.data());
    }
    r_step = l;
    if (lookahead == 0) retire();
  }
  retire();
  if (d > 1) depth_fold(mesh, c_part, C, r_scratch, accumulate);
}

/// Shared entry of the three SUMMA forms: op span, workspace scope and the
/// depth-divisibility check, then `loop(lookahead)`.
template <typename Loop>
void run_summa(const char* name, mesh::Mesh2D& mesh, index_t k_extent, Arena* workspace,
               const Loop& loop) {
  const int q = mesh.q();
  const int d = mesh.depth();
  obs::Span op_span("summa", name);
  const int lookahead = (q > 1 && pipeline_enabled()) ? 1 : 0;
  if (op_span.armed()) {
    op_span.arg("q", q);
    if (d > 1) op_span.arg("d", d);
    if (lookahead > 0) op_span.arg("pipelined", 1);
  }
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  OPT_CHECK(k_extent % d == 0,
            name << " contraction block " << k_extent << " not divisible by mesh depth " << d);
  loop(lookahead);
}

}  // namespace

template <typename T>
void summa_ab(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
              bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_ab needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && B.size(1) == C.size(1) && A.size(1) == B.size(0),
            "summa_ab block shapes: A " << A.shape().to_string() << " B "
                                        << B.shape().to_string() << " C "
                                        << C.shape().to_string());
  run_summa("summa_ab", mesh, A.size(1), workspace, [&](int lookahead) {
    ab_loop(mesh, A, B, C, accumulate, lookahead, workspace);
  });
}

template <typename T>
void summa_abt(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_abt needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && A.size(1) == B.size(1) && B.size(0) == C.size(1),
            "summa_abt block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  run_summa("summa_abt", mesh, A.size(1), workspace, [&](int lookahead) {
    reduce_loop(mesh, A, B, C, accumulate, /*abt=*/true, lookahead, workspace);
  });
}

template <typename T>
void summa_atb(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_atb needs 2-D blocks");
  OPT_CHECK(A.size(1) == C.size(0) && B.size(1) == C.size(1) && A.size(0) == B.size(0),
            "summa_atb block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  run_summa("summa_atb", mesh, A.size(0), workspace, [&](int lookahead) {
    reduce_loop(mesh, B, A, C, accumulate, /*abt=*/false, lookahead, workspace);
  });
}

template <typename T>
void cannon_ab(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  const int q = mesh.q();
  OPT_CHECK(mesh.depth() == 1, "cannon_ab supports depth-1 meshes only");
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "cannon_ab needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && B.size(1) == C.size(1) && A.size(1) == B.size(0),
            "cannon_ab block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  if (q == 1) {
    ops::gemm(C, A, B, ops::Trans::No, ops::Trans::No, T{1},
              accumulate ? T{1} : T{0});
    return;
  }
  obs::Span op_span("summa", "cannon_ab");
  if (op_span.armed()) op_span.arg("q", q);
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  TensorT<T> a_buf = make_temp<T>(workspace, A.shape());
  TensorT<T> b_buf = make_temp<T>(workspace, B.shape());
  a_buf.copy_from(A);
  b_buf.copy_from(B);

  const int i = mesh.row();
  const int j = mesh.col();
  comm::Communicator& row = mesh.row_comm();
  comm::Communicator& col = mesh.col_comm();
  // Tags: 0/1 alignment, 2/3 shifting rounds. FIFO matching per (src, tag)
  // makes reuse across calls and rounds safe.
  const auto shift_left = [&](TensorT<T>& buf, int steps, int tag) {
    if (steps % q == 0) return;
    const int dst = ((j - steps) % q + q) % q;
    const int src = (j + steps) % q;
    row.send(dst, tag, buf.data(), buf.numel());   // payload copied at send
    row.recv(src, tag, buf.data(), buf.numel());
  };
  const auto shift_up = [&](TensorT<T>& buf, int steps, int tag) {
    if (steps % q == 0) return;
    const int dst = ((i - steps) % q + q) % q;
    const int src = (i + steps) % q;
    col.send(dst, tag, buf.data(), buf.numel());
    col.recv(src, tag, buf.data(), buf.numel());
  };

  // Initial alignment: A_ij moves i steps left, B_ij moves j steps up, so
  // device (i, j) starts with A_{i,(i+j) mod q} · B_{(i+j) mod q, j}.
  shift_left(a_buf, i, /*tag=*/0);
  shift_up(b_buf, j, /*tag=*/1);

  for (int l = 0; l < q; ++l) {
    obs::Span step_span("summa", "k_step");
    if (step_span.armed()) step_span.arg("l", l);
    const T beta = (l == 0 && !accumulate) ? T{0} : T{1};
    ops::gemm(C, a_buf, b_buf, ops::Trans::No, ops::Trans::No, T{1}, beta);
    if (l + 1 < q) {
      shift_left(a_buf, 1, /*tag=*/2);
      shift_up(b_buf, 1, /*tag=*/3);
    }
  }
}

std::uint64_t workspace_bytes(std::uint64_t a_block_elems, std::uint64_t b_block_elems,
                              std::uint64_t c_block_elems, std::size_t elem_size,
                              int depth) {
  const auto align = [](std::uint64_t n) { return (n + 63) & ~std::uint64_t{63}; };
  const std::uint64_t c = align(c_block_elems * elem_size);
  if (depth > 1) {
    // 2.5D schedules broadcast /d sub-panels but add a captured C partial and
    // a depth-fold scratch (the reduce forms reuse their row/column reduce
    // scratch for the fold). Pipelined worst case per form:
    //   summa_ab  : 2·A/d + 2·B/d sub-panels + C partial + depth scratch
    //   summa_abt : A/d + 2·B/d sub-panels + 2 in-flight partials + scratch
    //               + captured partial
    //   summa_atb : 2·A/d + B/d sub-panels + 2 in-flight partials + scratch
    //               + captured partial
    const std::uint64_t d = static_cast<std::uint64_t>(depth);
    const std::uint64_t as = align(a_block_elems / d * elem_size);
    const std::uint64_t bs = align(b_block_elems / d * elem_size);
    const std::uint64_t ab = 2 * as + 2 * bs + 2 * c;
    const std::uint64_t bc = as + 2 * bs + 4 * c;
    const std::uint64_t ac = 2 * as + bs + 4 * c;
    return std::max({ab, bc, ac});
  }
  const std::uint64_t a = align(a_block_elems * elem_size);
  const std::uint64_t b = align(b_block_elems * elem_size);
  // Pipelined worst case across the three forms on these roles: summa_ab
  // double-buffers both panels; the reduce forms double-buffer one panel and
  // the C partial and keep a persistent reduce scratch. The blocking paths
  // fit inside the same envelope.
  const std::uint64_t ab = 2 * a + 2 * b;
  const std::uint64_t bc = 2 * b + 3 * c;
  const std::uint64_t ac = 2 * a + 3 * c;
  return std::max({ab, bc, ac});
}

#define OPTIMUS_INSTANTIATE_SUMMA(T)                                                     \
  template void summa_ab<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,         \
                            TensorT<T>&, bool, Arena*);                                  \
  template void summa_abt<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);                                 \
  template void summa_atb<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);                                 \
  template void cannon_ab<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);

OPTIMUS_INSTANTIATE_SUMMA(float)
OPTIMUS_INSTANTIATE_SUMMA(double)

#undef OPTIMUS_INSTANTIATE_SUMMA

}  // namespace optimus::summa
