#include "kernel/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <new>
#include <utility>

#include "kernel/elementwise.hpp"
#include "kernel/simd.hpp"
#include "kernel/thread_pool.hpp"

namespace optimus::kernel {

namespace {

// The microkernel is written once against simd::Vec<T>, a vector of W
// elements, using plain operators: the compiler forms a fused multiply-add for
// `acc += a * b` exactly where it would for the scalar expression, so every
// ISA runs the same fold as its scalar reference (one multiply-add per k).
// Only the vector width, the tile height kMR and the partial (first n lanes)
// loads and stores differ per ISA. The tile is kMR rows of two vectors: its
// 2·kMR accumulators, the two B vectors of a k step and the broadcast A
// element fit the register file without spilling.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr index_t kMR = 12;  // zmm: 24 of the 32 registers accumulate
#else
constexpr index_t kMR = 6;  // ymm (12 of the 16 registers accumulate), xmm, NEON q
#endif
#else
constexpr index_t kMR = 4;  // portable scalar fallback: one-lane "vectors"
#endif

using simd::kLanes;
using simd::load;
using simd::load_n;
using simd::store;
using simd::store_n;
using simd::Vec;

// The microkernel's tile loops have compile-time trip counts; unrolling them
// fully lets the compiler keep every accumulator in a register.
#if defined(__GNUC__) || defined(__clang__)
#define OPTIMUS_UNROLL _Pragma("GCC unroll 16")
#else
#define OPTIMUS_UNROLL
#endif

// Register tile: MR rows × NV vectors of accumulators, NR = NV·W columns —
// f32 12×32 and f64 12×16 under AVX-512, f32 6×16 and f64 6×8 under AVX2.
template <typename T>
struct Tile {
  static constexpr int NV = 2;
  static constexpr index_t MR = kMR;
  static constexpr index_t NR = NV * kLanes<T>;
};

// Cache blocking: the packed A panel (MC×KC) targets L2, the packed B panel
// (KC×NC) L3, and one B strip (KC×NR) stays L1-resident across an MC sweep.
constexpr index_t kMC = 96;
constexpr index_t kKC = 256;
constexpr index_t kNC = 1024;
static_assert(kMC % kMR == 0 && kNC % Tile<float>::NR == 0);

// Cap on the M extent packed per cooperative stage, so the shared packed-A
// buffer stays bounded (kMOuter×KC elements) for arbitrarily tall inputs.
// Must be a multiple of kMC.
constexpr index_t kMOuter = 24 * kMC;

// Packs op(A)[i0:i0+mc, k0:k0+kc], scaled by alpha, into MR-row strips:
// strip s holds columns k in order, its rows consecutive per column. The last
// strip keeps only its live rows (mc − s·MR < MR), which is the row count its
// microkernel is specialised on, so no row is ever padded.
template <typename T>
void pack_a(const T* A, index_t lda, Trans ta, index_t i0, index_t k0, index_t mc, index_t kc,
            T alpha, T* Ap) {
  constexpr index_t MR = Tile<T>::MR;
  for (index_t is = 0; is < mc; is += MR) {
    const index_t mr = std::min(MR, mc - is);
    if (ta == Trans::Yes) {
      // op(A)(i, k) = A[k, i]: rows of the stored matrix are contiguous in i.
      for (index_t l = 0; l < kc; ++l) {
        const T* src = A + (k0 + l) * lda + i0 + is;
        for (index_t i = 0; i < mr; ++i) Ap[i] = alpha * src[i];
        Ap += mr;
      }
    } else {
      for (index_t l = 0; l < kc; ++l) {
        const T* src = A + (i0 + is) * lda + k0 + l;
        for (index_t i = 0; i < mr; ++i) Ap[i] = alpha * src[i * lda];
        Ap += mr;
      }
    }
  }
}

// Packs op(B)[k0:k0+kc, j0:j0+nc] into NR-column strips: strip s holds rows k
// in order, its columns consecutive per row. The last strip is only as wide as
// the whole vectors its live columns need (nv·W), zero-filled past nc.
template <typename T>
void pack_b(const T* B, index_t ldb, Trans tb, index_t k0, index_t j0, index_t kc, index_t nc,
            T* Bp) {
  constexpr index_t NR = Tile<T>::NR;
  constexpr index_t W = kLanes<T>;
  for (index_t js = 0; js < nc; js += NR) {
    const index_t nr = std::min(NR, nc - js);
    const index_t nv = (nr + W - 1) / W;
    const index_t width = nv * W;
    if (tb == Trans::No) {
      // Whole vectors per row; lanes past nr load as zeros.
      for (index_t l = 0; l < kc; ++l) {
        const T* src = B + (k0 + l) * ldb + j0 + js;
        for (index_t v = 0; v < nv; ++v) {
          store(Bp + v * W, load_n(src + v * W, static_cast<int>(std::min(W, nr - v * W))));
        }
        Bp += width;
      }
    } else {
      // op(B)(k, j) = B[j, k]: W stored rows j × W columns k at a time are
      // loaded as W vectors, transposed in registers and stored as W packed
      // rows. Rows past nr load as zeros; a short k block loads and stores
      // only its live k.
      for (index_t v = 0; v < nv; ++v) {
        const index_t live_j = std::min(W, nr - v * W);
        const T* src = B + (j0 + js + v * W) * ldb + k0;
        for (index_t l = 0; l < kc; l += W) {
          const index_t live_k = std::min(W, kc - l);
          Vec<T> rows[W];
          for (index_t r = 0; r < W; ++r) {
            rows[r] = r < live_j ? load_n(src + r * ldb + l, static_cast<int>(live_k)) : Vec<T>{};
          }
          simd::transpose<T>(rows);
          for (index_t t = 0; t < live_k; ++t) store(Bp + (l + t) * width + v * W, rows[t]);
        }
      }
      Bp += kc * width;
    }
  }
}

// The register-tiled core on an R×nr tile of C (row stride ldc), read and
// written in place: R (1 ≤ R ≤ MR) is the live row count and NV the live
// vector count, both compile-time, so an edge tile is just a smaller kernel;
// the last vector's first nr − (NV−1)·W lanes are live and move through
// partial loads and stores. B's rows are ldb apart: a packed strip's width,
// or the caller's row stride when B is read in place. A short last B vector
// loads its live lanes only and zeros past them, as a zero-filled strip
// would give, so an in-place row is never read past its end. The accumulators start from beta·C (zeros when beta == 0,
// never scaled — NaN/Inf in C must not survive), then take one multiply-add
// acc[i][v] += Ap[l][i]·B[l][v] per l in order, and are stored back.
template <typename T, int R, int NV>
void micro_kernel(index_t kc, const T* __restrict Ap, const T* __restrict Bp, index_t ldb,
                  T* __restrict c, index_t ldc, index_t nr, T beta) {
  constexpr int W = kLanes<T>;
  const int tail = static_cast<int>(nr) - (NV - 1) * W;
  Vec<T> acc[R][NV];
  OPTIMUS_UNROLL for (int i = 0; i < R; ++i) {
    OPTIMUS_UNROLL for (int v = 0; v < NV; ++v) acc[i][v] = Vec<T>{};
  }
  if (beta != T{0}) {
    OPTIMUS_UNROLL for (int i = 0; i < R; ++i) {
      OPTIMUS_UNROLL for (int v = 0; v < NV - 1; ++v) acc[i][v] = load(c + i * ldc + v * W);
      acc[i][NV - 1] = load_n(c + i * ldc + (NV - 1) * W, tail);
    }
    if (beta != T{1}) {
      OPTIMUS_UNROLL for (int i = 0; i < R; ++i) {
        OPTIMUS_UNROLL for (int v = 0; v < NV; ++v) acc[i][v] *= beta;
      }
    }
  }
  for (index_t l = 0; l < kc; ++l) {
    Vec<T> b[NV];
    OPTIMUS_UNROLL for (int v = 0; v < NV - 1; ++v) b[v] = load(Bp + v * W);
    // A masked load costs more than a plain one: only a short vector takes it.
    b[NV - 1] = tail < W ? load_n(Bp + (NV - 1) * W, tail) : load(Bp + (NV - 1) * W);
    OPTIMUS_UNROLL for (int i = 0; i < R; ++i) {
      OPTIMUS_UNROLL for (int v = 0; v < NV; ++v) acc[i][v] += Ap[i] * b[v];
    }
    Ap += R;
    Bp += ldb;
  }
  OPTIMUS_UNROLL for (int i = 0; i < R; ++i) {
    T* ci = c + i * ldc;
    OPTIMUS_UNROLL for (int v = 0; v < NV - 1; ++v) store(ci + v * W, acc[i][v]);
    store_n(ci + (NV - 1) * W, acc[i][NV - 1], tail);
  }
}

// Every (R, NV) specialisation, so any mr×nr tile — interior or edge — runs a
// kernel of exactly its live extent.
template <typename T>
using MicroKernel = void (*)(index_t, const T*, const T*, index_t, T*, index_t, index_t, T);

template <typename T, int R, std::size_t... Vs>
constexpr std::array<MicroKernel<T>, sizeof...(Vs)> kernel_row(std::index_sequence<Vs...>) {
  return {&micro_kernel<T, R, static_cast<int>(Vs) + 1>...};
}

template <typename T, std::size_t... Rs>
constexpr auto kernel_table(std::index_sequence<Rs...>) {
  return std::array{
      kernel_row<T, static_cast<int>(Rs) + 1>(std::make_index_sequence<Tile<T>::NV>{})...};
}

template <typename T>
constexpr auto kKernels = kernel_table<T>(std::make_index_sequence<Tile<T>::MR>{});

// Runs the kernel for the mr×nr tile at c (1 ≤ mr ≤ MR, 1 ≤ nr ≤ NR) on B
// rows ldb apart.
template <typename T>
inline void run_tile(index_t kc, const T* Ap, const T* Bp, index_t ldb, T* c, index_t ldc,
                     index_t mr, index_t nr, T beta) {
  const index_t nv = (nr + kLanes<T> - 1) / kLanes<T>;
  kKernels<T>[mr - 1][nv - 1](kc, Ap, Bp, ldb, c, ldc, nr, beta);
}

// C = beta·C (beta == 0 stores zeros) — the k == 0 / alpha == 0 degenerate.
template <typename T>
void scale_c(T* C, index_t ldc, index_t m, index_t n, T beta) {
  for (index_t i = 0; i < m; ++i) {
    T* c = C + i * ldc;
    if (beta == T{0}) {
      std::fill(c, c + n, T{0});
    } else if (beta != T{1}) {
      for (index_t j = 0; j < n; ++j) c[j] *= beta;
    }
  }
}

// Applies a fused epilogue to the mr×nr block of C whose top-left element is
// C(gi, gj) globally. Each case performs the same scalar operations in the
// same order as the unfused two-pass reference (gemm, then the elementwise
// pass over C) — that is the bitwise-identity contract.
template <typename T>
void apply_epilogue_block(const EpilogueArgs<T>& ep, T* C, index_t ldc, index_t gi, index_t gj,
                          index_t mr, index_t nr) {
  switch (ep.op) {
    case Epilogue::None:
      return;
    case Epilogue::BiasAdd: {
      const T* bias = ep.bias + gj;
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        for (index_t j = 0; j < nr; ++j) c[j] += bias[j];
      }
      return;
    }
    case Epilogue::BiasGelu: {
      const T* bias = ep.bias + gj;
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        T* pre = ep.pre != nullptr ? ep.pre + (gi + i) * ep.ldp + gj : nullptr;
        for (index_t j = 0; j < nr; ++j) {
          const T v = c[j] + bias[j];
          if (pre != nullptr) pre[j] = v;
          c[j] = v;
        }
        gelu(c, c, nr);
      }
      return;
    }
    case Epilogue::ResidualAdd: {
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        const T* res = ep.residual + (gi + i) * ep.ldr + gj;
        if (ep.bias != nullptr) {
          const T* bias = ep.bias + gj;
          for (index_t j = 0; j < nr; ++j) c[j] = (c[j] + bias[j]) + res[j];
        } else {
          for (index_t j = 0; j < nr; ++j) c[j] += res[j];
        }
      }
      return;
    }
  }
}

// One thread's packing workspace: two 64-byte-aligned buffers reserved once
// at their largest size (packed A: kMOuter×KC, packed B: KC×NC), so a call
// derives no sizes and never reallocates. They are left uninitialised —
// packing writes every element a kernel later reads — so only the pages a
// GEMM actually packs into are ever touched.
template <typename T>
class Workspace {
 public:
  Workspace() : a_(allocate(kMOuter * kKC)), b_(allocate(kKC * kNC)) {}
  T* a() const { return a_.get(); }
  T* b() const { return b_.get(); }

  static Workspace& local() {
    thread_local Workspace ws;
    return ws;
  }

 private:
  struct Free {
    void operator()(T* p) const { ::operator delete(p, std::align_val_t{64}); }
  };
  using Buffer = std::unique_ptr<T, Free>;
  static Buffer allocate(index_t n) {
    return Buffer(static_cast<T*>(
        ::operator new(static_cast<std::size_t>(n) * sizeof(T), std::align_val_t{64})));
  }
  Buffer a_;
  Buffer b_;
};

// One cache line per claim counter so concurrent fetch_adds on different
// stages never false-share.
struct alignas(64) ClaimCell {
  std::atomic<index_t> v{0};
};

struct ClaimCells {
  std::unique_ptr<ClaimCell[]> cells;
  index_t cap = 0;
  ClaimCell* get(index_t n) {
    if (n > cap) {
      cells = std::make_unique<ClaimCell[]>(static_cast<std::size_t>(n));
      cap = n;
    } else {
      for (index_t i = 0; i < n; ++i) cells[i].v.store(0, std::memory_order_relaxed);
    }
    return cells.get();
  }
};

ClaimCells& claim_cells() {
  thread_local ClaimCells cells;
  return cells;
}

// Hands out the task indices 0, 1, 2, … of one stage: from the team's shared
// atomic counter, or — when a single thread runs the whole GEMM and there are
// no counters — from a plain local count, with no atomics or resets.
class Claim {
 public:
  explicit Claim(ClaimCell* cell) : shared_(cell != nullptr ? &cell->v : nullptr) {}
  index_t next() {
    return shared_ != nullptr ? shared_->fetch_add(1, std::memory_order_relaxed) : local_++;
  }

 private:
  std::atomic<index_t>* shared_;
  index_t local_ = 0;
};

// Everything a GEMM region needs, owned by the submitting thread. `apack`/
// `bpack` are shared across the whole team; `counters` holds two fresh claim
// counters per (jc, pc, mo) stage (pack tasks, then C tiles), so no counter is
// ever reset mid-flight, and is null on the single-thread path.
template <typename T>
struct CoopCtx {
  T* C;
  const T* A;
  const T* B;
  index_t m, n, k, lda, ldb, ldc;
  Trans ta, tb;
  T alpha, beta;
  EpilogueArgs<T> ep;
  T* apack;
  T* bpack;
  ClaimCell* counters;
};

// The cooperative schedule, executed SPMD by every thread of a region (a
// serial Region reduces it to the classic single-thread packed loop nest).
//
// Per (jc, pc) panel, per M chunk `mo`:
//   1. pack stage — tasks [0, a_blocks) pack one MC×KC block of A each;
//      on the first M chunk, tasks [a_blocks, a_blocks+n_strips) pack one
//      KC×NR strip of B each. Claimed dynamically from the stage counter.
//   2. barrier — publishes the shared panels.
//   3. tile stage — units of one MC×NR block of C (an MC sweep over one B
//      strip), claimed dynamically; each unit runs the microkernel over its
//      C tiles, and applies the fused epilogue after the final K panel while
//      the block is register/L1-hot.
//   4. barrier — the next stage may repack the shared buffers.
//
// When op(A) is one register strip tall (m ≤ MR) and B is not transposed,
// each B element is used exactly once, so packing it would only copy it: the
// pack stage packs A alone and the microkernel reads B in place, its rows ldb
// apart. Decode's SUMMA k-steps and per-head P·V are all this shape.
//
// Every C element is produced by exactly one claimed unit as one running
// fold — beta·C, then one multiply-add per k in ascending order — so its
// value depends on neither the thread count nor m, n, the register tile or
// the blocking constants.
template <typename T>
void coop_body(Region& r, const CoopCtx<T>& cx) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  constexpr index_t W = kLanes<T>;
  const index_t m = cx.m, n = cx.n, k = cx.k;
  const bool b_in_place = m <= MR && cx.tb == Trans::No;
  index_t stage = 0;
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t n_strips = (nc + NR - 1) / NR;
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      const bool first_panel = pc == 0;
      const bool last_panel = pc + kc >= k;
      // Later K panels continue C's running value.
      const T beta = first_panel ? cx.beta : T{1};
      for (index_t mo = 0; mo < m; mo += kMOuter, ++stage) {
        const index_t mlen = std::min(kMOuter, m - mo);
        const index_t a_blocks = (mlen + kMC - 1) / kMC;
        // B belongs to the whole (jc, pc) panel: packed on the first M chunk.
        const index_t pack_tasks = a_blocks + (mo == 0 && !b_in_place ? n_strips : 0);
        const bool shared = cx.counters != nullptr;
        Claim pack(shared ? &cx.counters[2 * stage] : nullptr);
        Claim tile(shared ? &cx.counters[2 * stage + 1] : nullptr);

        for (index_t t = pack.next(); t < pack_tasks; t = pack.next()) {
          if (t < a_blocks) {
            const index_t ic = mo + t * kMC;
            pack_a(cx.A, cx.lda, cx.ta, ic, pc, std::min(kMC, m - ic), kc, cx.alpha,
                   cx.apack + t * kMC * kc);
          } else {
            const index_t js = t - a_blocks;
            const index_t jr = js * NR;
            pack_b(cx.B, cx.ldb, cx.tb, pc, jc + jr, kc, std::min(NR, nc - jr),
                   cx.bpack + js * kc * NR);
          }
        }
        r.barrier();

        const index_t units = a_blocks * n_strips;
        for (index_t t = tile.next(); t < units; t = tile.next()) {
          const index_t ic = mo + (t / n_strips) * kMC;
          const index_t mc = std::min(kMC, m - ic);
          const index_t js = t % n_strips;
          const index_t jr = js * NR;
          const index_t nr = std::min(NR, nc - jr);
          const T* bp = b_in_place ? cx.B + pc * cx.ldb + jc + jr : cx.bpack + js * kc * NR;
          const index_t ldbp = b_in_place ? cx.ldb : (nr + W - 1) / W * W;
          const T* ablock = cx.apack + (t / n_strips) * kMC * kc;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min(MR, mc - ir);
            T* ct = cx.C + (ic + ir) * cx.ldc + jc + jr;
            run_tile<T>(kc, ablock + ir * kc, bp, ldbp, ct, cx.ldc, mr, nr, beta);
            if (last_panel) apply_epilogue_block(cx.ep, ct, cx.ldc, ic + ir, jc + jr, mr, nr);
          }
        }
        // The next stage overwrites the shared packed buffers; nobody may
        // still be reading them.
        r.barrier();
      }
    }
  }
}

// Runs the body on the submitting thread's workspace, with `threads`
// cooperating threads. The buffers live in the submitting thread's
// thread_locals (workers only see raw pointers), so concurrent device
// threads never share workspace.
template <typename T>
void gemm_ex_impl(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                  index_t ldb, index_t ldc, Trans ta, Trans tb, T alpha, T beta,
                  const EpilogueArgs<T>& ep, int threads) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == T{0}) {
    scale_c(C, ldc, m, n, beta);
    apply_epilogue_block(ep, C, ldc, 0, 0, m, n);
    return;
  }

  const Workspace<T>& ws = Workspace<T>::local();
  CoopCtx<T> cx{C, A, B, m, n, k, lda, ldb, ldc, ta, tb, alpha, beta, ep, ws.a(), ws.b(),
                nullptr};
  if (threads <= 1 || ThreadPool::on_worker_thread()) {
    Region r = Region::serial();
    coop_body(r, cx);
    return;
  }
  const index_t n_stages = ((n + kNC - 1) / kNC) * ((k + kKC - 1) / kKC) *
                           ((m + kMOuter - 1) / kMOuter);
  cx.counters = claim_cells().get(2 * n_stages);
  ThreadPool::global().parallel_region(threads, [&](Region& r) { coop_body(r, cx); });
}

}  // namespace

template <typename T>
void gemm_packed(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                 index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  gemm_ex_impl(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta,
               EpilogueArgs<T>{}, /*threads=*/1);
}

template <typename T>
void gemm_ex(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
             index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta,
             const EpilogueArgs<T>& epilogue) {
  // Below ~two MC sweeps of work per thread the region overhead dominates.
  constexpr double kMinWorkPerThread = 64.0 * 64.0 * 64.0;
  const double work = static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  int threads = effective_threads();
  if (threads > 1) {
    threads = static_cast<int>(
        std::min<double>(threads, std::max(1.0, work / kMinWorkPerThread)));
  }
  gemm_ex_impl(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta, epilogue,
               threads);
}

template <typename T>
void gemm(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
          index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  gemm_ex(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta, EpilogueArgs<T>{});
}

template <typename T>
index_t gemm_tile_rows() {
  return Tile<T>::MR;
}

template <typename T>
index_t gemm_tile_cols() {
  return Tile<T>::NR;
}

#define OPTIMUS_INSTANTIATE_KERNEL_GEMM(T)                                                   \
  template void gemm<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t, index_t, \
                        index_t, Trans, Trans, T, T);                                        \
  template void gemm_ex<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,       \
                           index_t, index_t, Trans, Trans, T, T, const EpilogueArgs<T>&);    \
  template void gemm_packed<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,   \
                               index_t, index_t, Trans, Trans, T, T);                     \
  template index_t gemm_tile_rows<T>();                                                      \
  template index_t gemm_tile_cols<T>();

OPTIMUS_INSTANTIATE_KERNEL_GEMM(float)
OPTIMUS_INSTANTIATE_KERNEL_GEMM(double)

#undef OPTIMUS_INSTANTIATE_KERNEL_GEMM

}  // namespace optimus::kernel
