#pragma once

// Dense kernels and their hand-derived backward passes.
//
// Everything operates on contiguous row-major TensorT<T>. Matmul flops (in the
// paper's unit, scalar multiplications) are charged to the current
// DeviceContext; elementwise work is not counted, matching the paper's
// Table-1 accounting which only tracks matrix-product terms.
//
// All templates are instantiated for float and double in ops.cpp.

#include <cstdint>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace optimus::tensor {
namespace ops {

enum class Trans { No, Yes };

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C on raw row-major buffers.
/// op(A) is m×k, op(B) is k×n, C is m×n. ld* are the row strides of the
/// *stored* matrices (pre-transpose). Charges m·n·k mults to the current
/// DeviceContext, then runs the kernel layer's packed GEMM (src/kernel/:
/// packed panels, register tiling, intra-op threading) whatever the shape,
/// so every product rounds the same way: each C element is one fold in
/// k-order (see kernel/gemm.hpp). beta == 0 *stores* into C — uninitialised
/// (NaN/Inf) output buffers are safe.
template <typename T>
void gemm_raw(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
              index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta);

/// C = alpha * op(A) * op(B) + beta * C. A, B, C must be 2-D; shapes checked.
template <typename T>
void gemm(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B, Trans trans_a = Trans::No,
          Trans trans_b = Trans::No, T alpha = T{1}, T beta = T{0});

/// Returns op(A)*op(B) as a new tensor.
template <typename T>
TensorT<T> matmul(const TensorT<T>& A, const TensorT<T>& B, Trans trans_a = Trans::No,
                  Trans trans_b = Trans::No);

// ---------------------------------------------------------------------------
// Fused GEMM epilogues
// ---------------------------------------------------------------------------
//
// These route through kernel::gemm_ex, which applies the elementwise tail to
// each C tile right after its last K panel is accumulated — while the tile
// is register/L1-hot — instead of in a separate full-tensor pass. The fused
// results are bitwise identical to the unfused sequences they replace: the
// kernel applies the same scalar operations in the same order, so engines
// can mix fused and unfused paths and still agree to 0 ULPs (the fuzz
// harness relies on this). Flop accounting is unchanged — the epilogue is
// elementwise and the paper's Table-1 unit only counts matrix products.

/// C = op(A)·op(B) + bias (bias[j] broadcast over rows).
/// Bitwise identical to { gemm(C, A, B); add_bias_(C, bias); }.
template <typename T>
void gemm_bias(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B, const TensorT<T>& bias,
               Trans trans_a = Trans::No, Trans trans_b = Trans::No);

/// pre = op(A)·op(B) + bias; gelu_out = gelu(pre). `pre` keeps the biased
/// pre-activation the backward pass needs. Bitwise identical to
/// { gemm(pre, A, B); add_bias_(pre, bias); gelu_forward(pre, gelu_out); }.
template <typename T>
void gemm_bias_gelu(TensorT<T>& gelu_out, TensorT<T>& pre, const TensorT<T>& A,
                    const TensorT<T>& B, const TensorT<T>& bias, Trans trans_a = Trans::No,
                    Trans trans_b = Trans::No);

/// C = (op(A)·op(B) + bias) + residual.
/// Bitwise identical to { gemm(C, A, B); add_bias_(C, bias); add_(C, residual); }.
template <typename T>
void gemm_bias_residual(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B,
                        const TensorT<T>& bias, const TensorT<T>& residual,
                        Trans trans_a = Trans::No, Trans trans_b = Trans::No);

/// Views a tensor of ndim >= 2 as a 2-D matrix [prod(leading dims), last dim].
template <typename T>
TensorT<T> as_matrix(const TensorT<T>& t);

// ---------------------------------------------------------------------------
// Elementwise and broadcasting
// ---------------------------------------------------------------------------

template <typename T>
void add_(TensorT<T>& y, const TensorT<T>& x);  // y += x

template <typename T>
void sub_(TensorT<T>& y, const TensorT<T>& x);  // y -= x

template <typename T>
void axpy_(TensorT<T>& y, T alpha, const TensorT<T>& x);  // y += alpha * x

template <typename T>
void scale_(TensorT<T>& y, T alpha);  // y *= alpha

template <typename T>
TensorT<T> add(const TensorT<T>& a, const TensorT<T>& b);

/// y[..., j] += bias[j] — bias broadcast over the last dimension.
template <typename T>
void add_bias_(TensorT<T>& y, const TensorT<T>& bias);

/// dbias[j] (+)= sum over leading dims of dy[..., j].
template <typename T>
void bias_grad(const TensorT<T>& dy, TensorT<T>& dbias, bool accumulate);

/// y[r, j] = (y[r, j] + bias[j]) + residual[r, j] in one pass — for
/// projections whose bias must apply *after* a distributed reduce (SUMMA /
/// row-parallel outputs), where it cannot fuse into the local GEMM. Bitwise
/// identical to { add_bias_(y, bias); add_(y, residual); }.
template <typename T>
void bias_residual_(TensorT<T>& y, const TensorT<T>& bias, const TensorT<T>& residual);

/// x[r, j] += bias[j]; y[r, j] = gelu(x[r, j]) in one pass (x keeps the
/// biased pre-activation for backward). Bitwise identical to
/// { add_bias_(x, bias); gelu_forward(x, y); }.
template <typename T>
void bias_gelu_(TensorT<T>& x, const TensorT<T>& bias, TensorT<T>& y);

// ---------------------------------------------------------------------------
// GELU (tanh approximation, as in GPT/Megatron). Both directions run the
// kernel layer's vectorized routines (kernel/elementwise.hpp), as do
// bias_gelu_ and the fused BiasGelu epilogue.
// ---------------------------------------------------------------------------

template <typename T>
void gelu_forward(const TensorT<T>& x, TensorT<T>& y);

/// dx (+)= gelu'(x) * dy.
template <typename T>
void gelu_backward(const TensorT<T>& x, const TensorT<T>& dy, TensorT<T>& dx, bool accumulate);

// ---------------------------------------------------------------------------
// Softmax over the last dimension
// ---------------------------------------------------------------------------

template <typename T>
void softmax_lastdim(const TensorT<T>& x, TensorT<T>& y);

/// dx = y ⊙ (dy − Σ_last(dy ⊙ y)) given y = softmax(x).
template <typename T>
void softmax_backward_lastdim(const TensorT<T>& y, const TensorT<T>& dy, TensorT<T>& dx);

// ---------------------------------------------------------------------------
// LayerNorm over the last dimension (serial, full-width form; the 2D-parallel
// variant in core/ composes the same math from partial sums)
// ---------------------------------------------------------------------------

/// y = gamma ⊙ xhat + beta with xhat = (x − E[x]) / sqrt(Var[x] + eps).
/// Saves xhat and 1/sqrt(Var+eps) for backward, as §3.2.2 of the paper does.
template <typename T>
void layernorm_forward(const TensorT<T>& x, const TensorT<T>& gamma, const TensorT<T>& beta,
                       T eps, TensorT<T>& y, TensorT<T>& xhat, TensorT<T>& inv_std);

template <typename T>
void layernorm_backward(const TensorT<T>& xhat, const TensorT<T>& inv_std,
                        const TensorT<T>& gamma, const TensorT<T>& dy, TensorT<T>& dx,
                        TensorT<T>& dgamma, TensorT<T>& dbeta, bool accumulate_params);

// ---------------------------------------------------------------------------
// Cross entropy with integer labels over the last dimension
// ---------------------------------------------------------------------------

/// Returns mean over rows of −log softmax(logits)[label]; fills probs
/// (softmax of logits) for the backward pass. A label < 0 masks that row out.
template <typename T>
T cross_entropy_forward(const TensorT<T>& logits, const ITensor& labels, TensorT<T>& probs);

/// dlogits = scale * (probs − onehot(labels)); masked rows get zero gradient.
/// scale is typically 1/#unmasked rows to match the mean reduction.
template <typename T>
void cross_entropy_backward(const TensorT<T>& probs, const ITensor& labels, T scale,
                            TensorT<T>& dlogits);

// ---------------------------------------------------------------------------
// Embedding lookup
// ---------------------------------------------------------------------------

/// y[r, :] = table[tokens[r] − v_begin, :]. `table` may be a vocab slice
/// holding ids [v_begin, v_begin + rows): out-of-slice rows of y are untouched.
template <typename T>
void embedding_forward(const TensorT<T>& table, const ITensor& tokens, TensorT<T>& y,
                       index_t v_begin = 0);

/// dtable[tokens[r] − v_begin, :] += dy[r, :] in row order, for in-slice
/// tokens only (dtable must be pre-initialised).
template <typename T>
void embedding_backward(const ITensor& tokens, const TensorT<T>& dy, TensorT<T>& dtable,
                        index_t v_begin = 0);

// ---------------------------------------------------------------------------
// Reductions / diagnostics
// ---------------------------------------------------------------------------

template <typename T>
T sum_all(const TensorT<T>& x);

template <typename T>
T max_abs(const TensorT<T>& x);

template <typename T>
T max_abs_diff(const TensorT<T>& a, const TensorT<T>& b);

template <typename T>
T l2_norm(const TensorT<T>& x);

template <typename T>
TensorT<T> transpose2d(const TensorT<T>& x);

// ---------------------------------------------------------------------------
// Counter-based initialisation (identical across serial and distributed
// engines — see util::CounterRng)
// ---------------------------------------------------------------------------

/// Fills a [rows, cols] block whose global top-left corner is (row0, col0) in
/// a global matrix with `global_cols` columns, with values uniform in
/// [−scale, scale] drawn from `rng` stream `stream`.
template <typename T>
void fill_counter_uniform(TensorT<T>& block, const util::CounterRng& rng, std::uint64_t stream,
                          T scale, index_t row0, index_t col0, index_t global_cols);

/// Casts every element of `src` into a tensor of U (float↔double bridges).
template <typename T, typename U>
TensorT<U> cast(const TensorT<T>& src);

}  // namespace ops
}  // namespace optimus::tensor
