#include "kernel/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "kernel/thread_pool.hpp"

namespace optimus::kernel {

namespace {

// Register tile: MR×NR accumulators. NR spans one 64-byte cache line so the
// inner loop is a whole-line FMA; 4×NR accumulators fit the vector register
// file for both AVX2 and AVX-512 without spilling.
template <typename T>
struct Tile;
template <>
struct Tile<float> {
  static constexpr index_t MR = 4;
  static constexpr index_t NR = 16;
};
template <>
struct Tile<double> {
  static constexpr index_t MR = 4;
  static constexpr index_t NR = 8;
};

// Cache blocking: the packed A panel (MC×KC) targets L2, the packed B panel
// (KC×NC) L3, and one B strip (KC×NR) stays L1-resident across an MC sweep.
constexpr index_t kMC = 64;
constexpr index_t kKC = 256;
constexpr index_t kNC = 1024;

// Cap on the M extent packed per cooperative stage, so the shared packed-A
// buffer stays bounded (kMOuter×KC elements) for arbitrarily tall inputs.
// Must be a multiple of kMC.
constexpr index_t kMOuter = 2048;
static_assert(kMOuter % kMC == 0);

template <typename T>
inline T load_a(const T* A, index_t lda, Trans ta, index_t i, index_t kk) {
  return ta == Trans::No ? A[i * lda + kk] : A[kk * lda + i];
}

template <typename T>
inline T load_b(const T* B, index_t ldb, Trans tb, index_t kk, index_t j) {
  return tb == Trans::No ? B[kk * ldb + j] : B[j * ldb + kk];
}

// Packs op(A)[i0:i0+mc, k0:k0+kc], scaled by alpha, into MR-row strips:
// strip s holds columns k in order, MR consecutive rows per column, rows past
// mc zero-padded so the microkernel never branches on the edge.
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
        for (index_t i = mr; i < MR; ++i) Ap[i] = T{0};
        Ap += MR;
      }
    } else {
      for (index_t l = 0; l < kc; ++l) {
        const T* src = A + (i0 + is) * lda + k0 + l;
        for (index_t i = 0; i < mr; ++i) Ap[i] = src[i * lda];
        for (index_t i = 0; i < mr; ++i) Ap[i] *= alpha;
        for (index_t i = mr; i < MR; ++i) Ap[i] = T{0};
        Ap += MR;
      }
    }
  }
}

// Packs op(B)[k0:k0+kc, j0:j0+nc] into NR-column strips: strip s holds rows k
// in order, NR consecutive columns per row, columns past nc zero-padded.
template <typename T>
void pack_b(const T* B, index_t ldb, Trans tb, index_t k0, index_t j0, index_t kc, index_t nc,
            T* Bp) {
  constexpr index_t NR = Tile<T>::NR;
  for (index_t js = 0; js < nc; js += NR) {
    const index_t nr = std::min(NR, nc - js);
    if (tb == Trans::No) {
      for (index_t l = 0; l < kc; ++l) {
        const T* src = B + (k0 + l) * ldb + j0 + js;
        for (index_t j = 0; j < nr; ++j) Bp[j] = src[j];
        for (index_t j = nr; j < NR; ++j) Bp[j] = T{0};
        Bp += NR;
      }
    } else {
      // op(B)(k, j) = B[j, k]: gather one stored row per packed column.
      for (index_t l = 0; l < kc; ++l) {
        const T* src = B + (j0 + js) * ldb + k0 + l;
        for (index_t j = 0; j < nr; ++j) Bp[j] = src[j * ldb];
        for (index_t j = nr; j < NR; ++j) Bp[j] = T{0};
        Bp += NR;
      }
    }
  }
}

// The register-tiled core on one MR×NR tile of C (row stride ldc): the
// accumulators start from beta·C (zeros when beta == 0, never scaled —
// NaN/Inf in C must not survive), then take one multiply-add
// acc[i][j] += Ap[l][i]·Bp[l][j] per l in order, and are stored back.
//
// Written with GNU vector extensions (GCC/Clang): one NR-wide accumulator row
// is exactly 64 bytes for both element types, so each row is a single vector
// the compiler maps onto whatever the target has (1 zmm, 2 ymm, 4 xmm, or
// plain scalars elsewhere). Auto-vectorization of the equivalent scalar loop
// is not reliable across types — GCC 12 vectorizes the f64 instantiation but
// leaves f32 scalar — so the vector form is spelled out, with a scalar
// fallback for other compilers.
#if defined(__GNUC__) || defined(__clang__)
#define OPTIMUS_KERNEL_VECTOR_EXT 1
#endif

#ifdef OPTIMUS_KERNEL_VECTOR_EXT
// aligned(alignof(T)): the packed buffers and C rows are only
// element-aligned; may_alias because these lvalues access plain T arrays.
typedef float vec_f32 __attribute__((vector_size(64), aligned(4), may_alias));
typedef double vec_f64 __attribute__((vector_size(64), aligned(8), may_alias));
template <typename T>
struct VecOf;
template <>
struct VecOf<float> {
  using type = vec_f32;
};
template <>
struct VecOf<double> {
  using type = vec_f64;
};

template <typename T>
inline void micro_kernel(index_t kc, const T* __restrict Ap, const T* __restrict Bp,
                         T* __restrict c, index_t ldc, T beta) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  using vec = typename VecOf<T>::type;
  static_assert(sizeof(vec) == NR * sizeof(T));
  vec vacc[MR];
  for (index_t i = 0; i < MR; ++i) {
    vacc[i] = beta == T{0} ? vec{} : *reinterpret_cast<const vec*>(c + i * ldc);
  }
  if (beta != T{0} && beta != T{1}) {
    for (index_t i = 0; i < MR; ++i) vacc[i] *= beta;
  }
  for (index_t l = 0; l < kc; ++l) {
    const vec b = *reinterpret_cast<const vec*>(Bp + l * NR);
    const T* a = Ap + l * MR;
    for (index_t i = 0; i < MR; ++i) vacc[i] += a[i] * b;
  }
  for (index_t i = 0; i < MR; ++i) *reinterpret_cast<vec*>(c + i * ldc) = vacc[i];
}
#else
template <typename T>
inline void micro_kernel(index_t kc, const T* __restrict Ap, const T* __restrict Bp,
                         T* __restrict c, index_t ldc, T beta) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  T acc[MR * NR];
  for (index_t i = 0; i < MR; ++i) {
    for (index_t j = 0; j < NR; ++j) {
      acc[i * NR + j] = beta == T{0} ? T{0} : c[i * ldc + j];
      if (beta != T{0} && beta != T{1}) acc[i * NR + j] *= beta;
    }
  }
  for (index_t l = 0; l < kc; ++l) {
    const T* a = Ap + l * MR;
    const T* b = Bp + l * NR;
    for (index_t i = 0; i < MR; ++i) {
      const T ai = a[i];
      for (index_t j = 0; j < NR; ++j) acc[i * NR + j] += ai * b[j];
    }
  }
  for (index_t i = 0; i < MR; ++i) {
    for (index_t j = 0; j < NR; ++j) c[i * ldc + j] = acc[i * NR + j];
  }
}
#endif

// An edge tile (mr < MR or nr < NR) runs the same microkernel on a
// zero-padded copy of its mr×nr corner of C, so edge elements round exactly
// like interior ones.
template <typename T>
void edge_tile(index_t kc, const T* Ap, const T* Bp, T* C, index_t ldc, index_t mr, index_t nr,
               T beta) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  alignas(64) T acc[MR * NR] = {};
  if (beta != T{0}) {
    for (index_t i = 0; i < mr; ++i) std::copy_n(C + i * ldc, nr, acc + i * NR);
  }
  micro_kernel<T>(kc, Ap, Bp, acc, NR, beta);
  for (index_t i = 0; i < mr; ++i) std::copy_n(acc + i * NR, nr, C + i * ldc);
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
          c[j] = gelu_scalar(v);
        }
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

template <typename T>
std::vector<T>& pack_buffer_a() {
  thread_local std::vector<T> buf;
  return buf;
}

template <typename T>
std::vector<T>& pack_buffer_b() {
  thread_local std::vector<T> buf;
  return buf;
}

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

// Everything a cooperative GEMM region needs, owned by the submitting thread.
// `apack`/`bpack` are shared across the whole team; `counters` holds two
// fresh claim counters per (jc, pc, mo) stage (pack tasks, then C tiles), so
// no counter is ever reset mid-flight.
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
// Every C element is produced by exactly one claimed unit as one running
// fold — beta·C, then one multiply-add per k in ascending order — so its
// value depends on neither the thread count nor m, n or the blocking
// constants.
template <typename T>
void coop_body(Region& r, const CoopCtx<T>& cx) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  const index_t m = cx.m, n = cx.n, k = cx.k;
  index_t stage = 0;
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t n_strips = (nc + NR - 1) / NR;
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      const bool first_panel = pc == 0;
      const bool last_panel = pc + kc >= k;
      for (index_t mo = 0; mo < m; mo += kMOuter, ++stage) {
        const index_t mlen = std::min(kMOuter, m - mo);
        const index_t a_blocks = (mlen + kMC - 1) / kMC;
        // B belongs to the whole (jc, pc) panel: packed on the first M chunk.
        const index_t pack_tasks = a_blocks + (mo == 0 ? n_strips : 0);
        std::atomic<index_t>& pack_ctr = cx.counters[2 * stage].v;
        std::atomic<index_t>& tile_ctr = cx.counters[2 * stage + 1].v;

        for (;;) {
          const index_t t = pack_ctr.fetch_add(1, std::memory_order_relaxed);
          if (t >= pack_tasks) break;
          if (t < a_blocks) {
            const index_t ic = mo + t * kMC;
            const index_t mc = std::min(kMC, m - ic);
            pack_a(cx.A, cx.lda, cx.ta, ic, pc, mc, kc, cx.alpha,
                   cx.apack + (t * kMC / MR) * kc * MR);
          } else {
            const index_t js = t - a_blocks;
            const index_t jr = js * NR;
            pack_b(cx.B, cx.ldb, cx.tb, pc, jc + jr, kc, std::min(NR, nc - jr),
                   cx.bpack + js * kc * NR);
          }
        }
        r.barrier();

        const index_t units = a_blocks * n_strips;
        for (;;) {
          const index_t t = tile_ctr.fetch_add(1, std::memory_order_relaxed);
          if (t >= units) break;
          const index_t ic = mo + (t / n_strips) * kMC;
          const index_t mc = std::min(kMC, m - ic);
          const index_t js = t % n_strips;
          const index_t jr = js * NR;
          const index_t nr = std::min(NR, nc - jr);
          const T* bp = cx.bpack + js * kc * NR;
          const T* ablock = cx.apack + ((t / n_strips) * kMC / MR) * kc * MR;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min(MR, mc - ir);
            const T* ap = ablock + (ir / MR) * kc * MR;
            T* ct = cx.C + (ic + ir) * cx.ldc + jc + jr;
            // Later K panels continue C's running value.
            const T beta = first_panel ? cx.beta : T{1};
            if (mr == MR && nr == NR) {
              micro_kernel<T>(kc, ap, bp, ct, cx.ldc, beta);
            } else {
              edge_tile<T>(kc, ap, bp, ct, cx.ldc, mr, nr, beta);
            }
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

// Builds the shared workspace + per-stage counters and runs the body with
// `threads` cooperating threads. The buffers live in the submitting thread's
// thread_locals (workers only see raw pointers), so concurrent device
// threads never share workspace.
template <typename T>
void gemm_ex_impl(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                  index_t ldb, index_t ldc, Trans ta, Trans tb, T alpha, T beta,
                  const EpilogueArgs<T>& ep, int threads) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == T{0}) {
    scale_c(C, ldc, m, n, beta);
    apply_epilogue_block(ep, C, ldc, 0, 0, m, n);
    return;
  }

  const index_t n_jc = (n + kNC - 1) / kNC;
  const index_t n_pc = (k + kKC - 1) / kKC;
  const index_t n_mo = (m + kMOuter - 1) / kMOuter;
  const index_t n_stages = n_jc * n_pc * n_mo;

  // Workspace sized to this problem and only ever grown: growing a vector
  // zero-fills the new tail, which a shrink-then-grow would pay again on
  // every small GEMM that follows a large one.
  const auto grow = [](std::vector<T>& buf, index_t size) {
    if (buf.size() < static_cast<std::size_t>(size)) buf.resize(static_cast<std::size_t>(size));
  };
  const index_t kc_max = std::min(k, kKC);
  const index_t a_rows = ((std::min(m, kMOuter) + MR - 1) / MR) * MR;
  const index_t b_cols = ((std::min(n, kNC) + NR - 1) / NR) * NR;
  std::vector<T>& abuf = pack_buffer_a<T>();
  std::vector<T>& bbuf = pack_buffer_b<T>();
  grow(abuf, a_rows * kc_max);
  grow(bbuf, kc_max * b_cols);

  CoopCtx<T> cx{C,  A,  B,     m,     n,  k,           lda,         ldb, ldc, ta, tb,
                alpha, beta, ep, abuf.data(), bbuf.data(), claim_cells().get(2 * n_stages)};

  if (threads <= 1 || ThreadPool::on_worker_thread()) {
    Region r = Region::serial();
    coop_body(r, cx);
    return;
  }
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

// Single non-inlinable definition of the GELU scalar (see gemm.hpp): keeps
// every caller — this TU's fused epilogue included — on one bit pattern even
// though this TU is built with -march=native FP contraction.
namespace {
template <typename T>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
T gelu_scalar_impl(T x) {
  const T c = T{0.7978845608028654};  // sqrt(2/pi)
  const T inner = c * (x + T{0.044715} * x * x * x);
  return T{0.5} * x * (T{1} + std::tanh(inner));
}
}  // namespace

float gelu_scalar(float x) { return gelu_scalar_impl(x); }
double gelu_scalar(double x) { return gelu_scalar_impl(x); }

#define OPTIMUS_INSTANTIATE_KERNEL_GEMM(T)                                                   \
  template void gemm<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t, index_t, \
                        index_t, Trans, Trans, T, T);                                        \
  template void gemm_ex<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,       \
                           index_t, index_t, Trans, Trans, T, T, const EpilogueArgs<T>&);    \
  template void gemm_packed<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,   \
                               index_t, index_t, Trans, Trans, T, T);

OPTIMUS_INSTANTIATE_KERNEL_GEMM(float)
OPTIMUS_INSTANTIATE_KERNEL_GEMM(double)

#undef OPTIMUS_INSTANTIATE_KERNEL_GEMM

}  // namespace optimus::kernel
