#pragma once

// Cache-blocked, panel-packed GEMM with a register-tiled microkernel.
//
// This is the dense-compute floor under every engine in the repo: the BLIS
// decomposition (NC → KC → MC panels, packed A/B, an MR×NR register tile).
// The microkernel is written once against a SIMD vector type sized to the
// ISA the compiler targets (12×32 f32 tiles under AVX-512, 6×16 under AVX2),
// and instantiated for every live edge extent so edge tiles read and write C
// in place. All four transpose forms are handled in the packing routines, so
// one microkernel serves NN/NT/TN/TT. A transposed B is packed W×W blocks at a
// time through an in-register transpose (W the vector width), not gathered
// element by element.
//
// B read in place: when op(A) is one register strip tall (m ≤ MR, 12 under
// AVX-512) and B is not transposed, each B element is used exactly once, so
// only A is packed and the microkernel reads B's rows where they are (its B
// row stride is a parameter: a packed strip's width, or ldb). A short last
// vector loads only its live lanes, so nothing is read past a row's end.
// Decode's SUMMA k-steps (4 slot rows per rank) and per-head P·V take this
// path; the fold, and so every bit, is the packed path's.
//
// Threading (gemm / gemm_ex): one GEMM is computed *cooperatively* by a
// single parallel region. For each (jc, pc) panel the packed A blocks and
// packed B strips are produced once into shared buffers (packing itself is
// claimed in parallel), a barrier publishes them, and then workers claim
// MC×NR tile blocks of C dynamically from an atomic counter. Tile ownership
// is dynamic but every output element is produced by exactly one claim.
//
// Rounding contract: each output element is one fold in k-order. The
// accumulator tile starts from beta·C (zeros when beta == 0) and adds
// (alpha·op(A)(i,k))·op(B)(k,j) for k = 0, 1, …, K−1, one multiply-add
// each; between K panels the running value lives in C. Its value therefore
// depends on neither m, n, the register tile, the blocking constants nor the
// thread count: row i of an m×n product equals the 1×n product of row i, and
// splitting K into beta = 1 calls equals one call, bit for bit.
//
// Semantics: C = alpha·op(A)·op(B) + beta·C on row-major buffers with row
// strides lda/ldb/ldc (of the *stored* matrices, pre-transpose). beta == 0
// *stores* — C may hold NaN/Inf garbage (e.g. an uninitialised Arena slab)
// and must still come out clean.
//
// Epilogues (gemm_ex): an optional fused elementwise tail applied to each
// C tile right after its last K panel is accumulated, while the tile is
// register/L1-hot, instead of a separate full-tensor pass. The contract is
// *bitwise identity with the unfused reference*: each epilogue applies the
// same scalar operations in the same order as the two-pass formulation
// (gemm, then the elementwise op over C), so fused and unfused paths — and
// any thread count — agree to 0 ULPs. BiasGelu runs kernel::gelu
// (kernel/elementwise.hpp) over each tile row's nr columns; that routine's
// result for an element does not depend on the extent it is called on, so
// the tile-sized calls equal the unfused full-row call bit for bit.

#include <cstdint>

namespace optimus::kernel {

using index_t = std::int64_t;

enum class Trans : std::uint8_t { No, Yes };

/// Fused elementwise tails applied per C tile after its final K panel.
enum class Epilogue : std::uint8_t {
  None,         ///< plain GEMM
  BiasAdd,      ///< C[i,j] += bias[j]
  BiasGelu,     ///< v = C[i,j] + bias[j]; pre[i,j] = v (if given); C[i,j] = gelu(v)
  ResidualAdd,  ///< C[i,j] = (C[i,j] + bias[j]) + residual[i,j]  (bias optional)
};

/// Operands for the fused epilogue. `bias` is a length-n row vector
/// broadcast over rows; `residual` is an m×n matrix with row stride ldr;
/// `pre` (BiasGelu only) receives the biased pre-activation A·B+bias with row
/// stride ldp — the backward pass needs it, and writing it here replaces the
/// separate bias pass over the pre-activation tensor.
template <typename T>
struct EpilogueArgs {
  Epilogue op = Epilogue::None;
  const T* bias = nullptr;
  const T* residual = nullptr;
  index_t ldr = 0;
  T* pre = nullptr;
  index_t ldp = 0;
};

/// Threaded entry point: cooperative packed GEMM over up to
/// effective_threads() workers. Bitwise identical to gemm_packed.
template <typename T>
void gemm(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
          index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta);

/// gemm plus a fused epilogue (see Epilogue). The epilogue is applied to each
/// C tile immediately after its last K panel, in unfused reference order.
template <typename T>
void gemm_ex(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
             index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta,
             const EpilogueArgs<T>& epilogue);

/// Single-thread packed path (the serial reference schedule). Exposed for the
/// bench harness and the kernel tests.
template <typename T>
void gemm_packed(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                 index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta);

/// The packed kernel's register tile for T on the ISA this library was built
/// for: MR rows × NR columns of C. No result depends on it; tests use it to
/// sweep every edge-tile shape.
template <typename T>
index_t gemm_tile_rows();
template <typename T>
index_t gemm_tile_cols();

}  // namespace optimus::kernel
