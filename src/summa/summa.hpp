#pragma once

// SUMMA: Scalable Universal Matrix Multiplication Algorithm over a q×q mesh
// (van de Geijn & Watts 1997), in the three product forms the paper uses,
// which form a closed set under differentiation (paper eqs. 1–3):
//
//   summa_ab  :  C = A·B    (Algorithm 1 — forward products)
//   summa_abt :  C = A·Bᵀ   (Algorithm 2 — dA = dC·Bᵀ, lm-head logits)
//   summa_atb :  C = Aᵀ·B   (Algorithm 3 — dB = Aᵀ·dC)
//
// Every global operand is split into q×q blocks; each device passes only its
// own block. Global shapes (with per-device blocks 1/q of each dimension):
//
//   summa_ab  : A [M, K] · B [K, N] → C [M, N]
//   summa_abt : A [M, N] · Bᵀ, B [K, N] → C [M, K]
//   summa_atb : Aᵀ, A [M, N] · B [M, K] → C [N, K]
//
// Communication per device per call (the Table-1 terms):
//   summa_ab  : q row-broadcasts of A blocks + q column-broadcasts of B blocks
//   summa_abt : q column-broadcasts of B blocks + q row-reduces of C blocks
//   summa_atb : q row-broadcasts of A blocks + q column-reduces of C blocks
//
// Each form is one k-loop — summa_ab a broadcast–broadcast loop, summa_abt
// and summa_atb one shared broadcast–reduce loop (they are mirror images
// across the mesh diagonal) — parameterized by two numbers:
//
//   lookahead  0 runs every step's collectives as blocking calls; 1 (the
//              pipelined schedule, below) double-buffers the panels and
//              issues step l+1's broadcasts before step l's GEMM.
//   depth d    on a depth-d mesh (Tesseract-style 2.5D, arXiv:2105.14500)
//              operands are replicated across the d depth layers and every
//              contraction block splits into d sub-panels of extent k_b/d:
//              layer z broadcasts and multiplies only sub-range z (broadcast
//              volume and per-step GEMM work both /d), then a depth-d tree
//              reduction of the C partials to layer 0, the accumulate
//              epilogue, and a replica broadcast finish the call with all
//              depth replicas bitwise identical. At d = 1 the loop works on
//              the caller's blocks directly (the 2D schedule): each step's
//              root broadcasts its own block, unpacked, and multiplies it
//              in place; the other members receive into the panel buffer.
//
// If `workspace` is non-null the broadcast/reduce temporaries are carved from
// it (and released on return), implementing the paper's §3.2.3 pre-allocated
// workspace buffer; otherwise plain allocations are used.

#include "mesh/mesh.hpp"
#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

namespace optimus::summa {

// -- pipelining switch -------------------------------------------------------
//
// When enabled (the default), the SUMMA k-loops run at lookahead 1: they
// double-buffer their panels and issue the broadcasts/reduces for step l+1
// asynchronously while the GEMM for step l runs, so a steady-state step costs
// max(comm, compute) instead of comm + compute. Results are bitwise identical
// to the blocking schedule (identical payloads, identical reduction order).
// The process-wide default comes from OPTIMUS_SUMMA_PIPELINE (unset or any
// value but "0" → on), read once on first use; set_pipeline_enabled()/
// PipelineGuard override it.

bool pipeline_enabled();
void set_pipeline_enabled(bool enabled);

/// RAII override of the pipeline mode (tests, benches, fuzz configs). The mode
/// is process-wide, so build the guard on the thread that launches the
/// cluster: every rank of one run must see the same mode, and ranks
/// restoring it in their own order would leak their override past the
/// run. Throws CheckError naming the rank when built inside a rank body.
class PipelineGuard {
 public:
  explicit PipelineGuard(bool enabled);
  ~PipelineGuard() { set_pipeline_enabled(prev_); }
  PipelineGuard(const PipelineGuard&) = delete;
  PipelineGuard& operator=(const PipelineGuard&) = delete;

 private:
  bool prev_;
};

/// C (+)= A·B. Blocks: A [m_b, k_b], B [k_b, n_b], C [m_b, n_b].
template <typename T>
void summa_ab(mesh::Mesh2D& mesh, const tensor::TensorT<T>& A, const tensor::TensorT<T>& B,
              tensor::TensorT<T>& C, bool accumulate = false,
              tensor::Arena* workspace = nullptr);

/// C (+)= A·Bᵀ. Blocks: A [m_b, n_b], B [k_b, n_b], C [m_b, k_b].
template <typename T>
void summa_abt(mesh::Mesh2D& mesh, const tensor::TensorT<T>& A, const tensor::TensorT<T>& B,
               tensor::TensorT<T>& C, bool accumulate = false,
               tensor::Arena* workspace = nullptr);

/// C (+)= Aᵀ·B. Blocks: A [m_b, n_b], B [m_b, k_b], C [n_b, k_b].
template <typename T>
void summa_atb(mesh::Mesh2D& mesh, const tensor::TensorT<T>& A, const tensor::TensorT<T>& B,
               tensor::TensorT<T>& C, bool accumulate = false,
               tensor::Arena* workspace = nullptr);

/// Cannon's algorithm (1969) for C (+)= A·B — the other classic 2D matmul the
/// paper cites (§1, §2.4). After an initial alignment (A's blocks shift left
/// by their row index, B's shift up by their column index), q rounds of
/// local-multiply + single-step shifts complete the product using only
/// point-to-point transfers — no broadcasts at all. Per device it moves
/// 2(q−1)·(|A_block| + |B_block|) scalars (alignment + shifts), versus
/// SUMMA's q·log₂(q)-weighted broadcast volume; bench_summa compares them.
/// Blocks as in summa_ab: A [m_b, k_b], B [k_b, n_b], C [m_b, n_b].
template <typename T>
void cannon_ab(mesh::Mesh2D& mesh, const tensor::TensorT<T>& A, const tensor::TensorT<T>& B,
               tensor::TensorT<T>& C, bool accumulate = false,
               tensor::Arena* workspace = nullptr);

/// Bytes of workspace one summa_* call needs for blocks of the given sizes
/// (64-byte-aligned temporaries), sized for the pipelined schedule's worst
/// case across the three forms on these roles: double-buffered panels plus,
/// for the reduce forms, two in-flight C partials. Engines size their
/// workspace arenas as the max over the calls they make — matmuls run
/// sequentially, so one workspace serves all of them (paper §3.2.3). On a
/// depth-d mesh pass `depth` so the envelope covers the 2.5D schedule
/// instead: /d sub-panels plus the captured C partial. depth = 1 reproduces
/// the 2D envelope exactly.
std::uint64_t workspace_bytes(std::uint64_t a_block_elems, std::uint64_t b_block_elems,
                              std::uint64_t c_block_elems, std::size_t elem_size,
                              int depth = 1);

}  // namespace optimus::summa
