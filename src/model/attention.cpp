#include "model/attention.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "model/kv_cache.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace optimus::model {

namespace {

using tensor::index_t;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;

template <typename T>
void apply_causal_mask(T* scores, index_t s) {
  // Row t may attend to columns 0..t. Use a large negative value rather than
  // −inf so exp() underflows cleanly to zero.
  const T neg = T{-1e9};
  for (index_t t = 0; t < s; ++t) {
    T* row = scores + t * s;
    for (index_t u = t + 1; u < s; ++u) row[u] = neg;
  }
}

/// One (sequence, head) forward: P[rows, L] = softmax(mask(scale·Q·Kᵀ)), then
/// C = P·V unless C is null (backward's recompute wants P only). Q rows are
/// `ldq` apart, K/V rows `ldkv`, C rows `ldc`. Prefill runs rows = L = s with
/// the causal mask; decode runs one query row over L cached keys.
template <typename T>
void head_forward(const T* Q, const T* K, const T* V, index_t rows, index_t L, index_t d,
                  index_t ldq, index_t ldkv, bool causal, T* P, T* C, index_t ldc) {
  const T scale = T{1} / static_cast<T>(std::sqrt(static_cast<double>(d)));
  ops::gemm_raw(P, Q, K, rows, L, d, ldq, ldkv, L, ops::Trans::No, ops::Trans::Yes, scale,
                T{0});
  if (causal) apply_causal_mask(P, rows);
  TensorT<T> p_view = TensorT<T>::wrap(P, Shape{rows, L}, nullptr);
  ops::softmax_lastdim(p_view, p_view);
  if (C != nullptr) {
    ops::gemm_raw(C, P, V, rows, d, L, L, ldkv, ldc, ops::Trans::No, ops::Trans::No, T{1},
                  T{0});
  }
}

/// Forward over every (sequence, head): pair w's P lives at P + w·p_stride.
/// p_stride = 0 streams every pair through one shared s² scratch (fusion), so
/// the pairs run serially; otherwise they are the intra-op parallel axis
/// (disjoint P and C slices, no allocation in the body).
template <typename T>
void forward_heads(const TensorT<T>& qkv, index_t b, index_t s, index_t heads, index_t d,
                   bool causal, TensorT<T>& ctx, T* P, index_t p_stride) {
  const index_t qkv_cols = heads * 3 * d;
  const index_t ctx_cols = heads * d;
  OPT_CHECK(qkv.numel() == b * s * qkv_cols, "qkv shape mismatch: " << qkv.shape().to_string());
  OPT_CHECK(ctx.numel() == b * s * ctx_cols, "ctx shape mismatch");
  const auto run = [&](index_t w0, index_t w1) {
    for (index_t w = w0; w < w1; ++w) {
      const index_t bi = w / heads;
      const index_t hi = w % heads;
      const T* base = qkv.data() + bi * s * qkv_cols + hi * 3 * d;
      head_forward(base, base + d, base + 2 * d, s, s, d, qkv_cols, qkv_cols, causal,
                   P + w * p_stride, ctx.data() + bi * s * ctx_cols + hi * d, ctx_cols);
    }
  };
  if (p_stride == 0) {
    run(0, b * heads);
  } else {
    tensor::parallel_for(b * heads, /*grain=*/1, run);
  }
}

/// Backward over every (sequence, head), serially through one [s, s] dS
/// scratch. Pair w's probabilities are at P + w·p_stride; p_stride = 0 means
/// none were saved, so each pair first recomputes its P into the shared
/// scratch (the fusion trade: bs²h extra multiplies instead of a b·n·s²
/// resident tensor).
template <typename T>
void backward_heads(const TensorT<T>& qkv, const TensorT<T>& dctx, index_t b, index_t s,
                    index_t heads, index_t d, bool causal, TensorT<T>& dqkv, T* P,
                    index_t p_stride, T* dS) {
  const index_t qkv_cols = heads * 3 * d;
  const index_t ctx_cols = heads * d;
  OPT_CHECK(dqkv.numel() == qkv.numel(), "dqkv shape mismatch");
  OPT_CHECK(dctx.numel() == b * s * ctx_cols, "dctx shape mismatch");
  const T scale = T{1} / static_cast<T>(std::sqrt(static_cast<double>(d)));
  for (index_t w = 0; w < b * heads; ++w) {
    const index_t bi = w / heads;
    const index_t hi = w % heads;
    const T* Q = qkv.data() + bi * s * qkv_cols + hi * 3 * d;
    const T* K = Q + d;
    const T* V = Q + 2 * d;
    T* dQ = dqkv.data() + bi * s * qkv_cols + hi * 3 * d;
    T* dK = dQ + d;
    T* dV = dQ + 2 * d;
    const T* dC = dctx.data() + bi * s * ctx_cols + hi * d;
    T* Pw = P + w * p_stride;
    if (p_stride == 0) {
      head_forward<T>(Q, K, V, s, s, d, qkv_cols, qkv_cols, causal, Pw, nullptr, 0);
    }

    // dV = Pᵀ·dC   [s, d]
    ops::gemm_raw(dV, Pw, dC, s, d, s, s, ctx_cols, qkv_cols, ops::Trans::Yes, ops::Trans::No,
                  T{1}, T{0});
    // dP = dC·Vᵀ   [s, s]
    ops::gemm_raw(dS, dC, V, s, s, d, ctx_cols, qkv_cols, s, ops::Trans::No, ops::Trans::Yes,
                  T{1}, T{0});
    // dscores = softmax backward through P (in place on dS). Masked positions
    // have P = 0, which softmax_backward maps to 0 — no explicit re-mask.
    TensorT<T> p_view = TensorT<T>::wrap(Pw, Shape{s, s}, nullptr);
    TensorT<T> ds_view = TensorT<T>::wrap(dS, Shape{s, s}, nullptr);
    ops::softmax_backward_lastdim(p_view, ds_view, ds_view);
    // dQ = scale·dscores·K   [s, d]
    ops::gemm_raw(dQ, dS, K, s, d, s, s, qkv_cols, qkv_cols, ops::Trans::No, ops::Trans::No,
                  scale, T{0});
    // dK = scale·dscoresᵀ·Q  [s, d]
    ops::gemm_raw(dK, dS, Q, s, d, s, s, qkv_cols, qkv_cols, ops::Trans::Yes, ops::Trans::No,
                  scale, T{0});
  }
}

}  // namespace

template <typename T>
void attention_forward(const TensorT<T>& qkv, index_t b, index_t s, index_t heads, index_t d,
                       bool causal, TensorT<T>& ctx, TensorT<T>& probs) {
  OPT_CHECK(probs.numel() == b * heads * s * s, "probs buffer mismatch");
  forward_heads(qkv, b, s, heads, d, causal, ctx, probs.data(), s * s);
}

template <typename T>
void attention_backward(const TensorT<T>& qkv, const TensorT<T>& probs,
                        const TensorT<T>& dctx, index_t b, index_t s, index_t heads, index_t d,
                        TensorT<T>& dqkv) {
  TensorT<T> dscores(Shape{s, s});
  // Saved probabilities are never recomputed, so the mask flag is unused.
  backward_heads(qkv, dctx, b, s, heads, d, /*causal=*/false, dqkv,
                 const_cast<T*>(probs.data()), s * s, dscores.data());
}

template <typename T>
void attention_forward_fused(const TensorT<T>& qkv, index_t b, index_t s, index_t heads,
                             index_t d, bool causal, TensorT<T>& ctx, TensorT<T>& scratch) {
  OPT_CHECK(scratch.numel() >= attention_fused_forward_scratch_elems(s),
            "fused scratch needs >= s*s elements");
  forward_heads(qkv, b, s, heads, d, causal, ctx, scratch.data(), 0);
}

template <typename T>
void attention_backward_fused(const TensorT<T>& qkv, const TensorT<T>& dctx, index_t b,
                              index_t s, index_t heads, index_t d, bool causal,
                              TensorT<T>& dqkv, TensorT<T>& scratch) {
  OPT_CHECK(scratch.numel() >= attention_fused_backward_scratch_elems(s),
            "fused scratch needs >= 2*s*s elements");
  backward_heads(qkv, dctx, b, s, heads, d, causal, dqkv, scratch.data(), 0,
                 scratch.data() + s * s);
}

template <typename T>
void attention_decode(const TensorT<T>& qkv, index_t slots, index_t heads, index_t d,
                      KvCacheT<T>& cache, index_t layer, TensorT<T>& ctx) {
  const index_t qkv_cols = heads * 3 * d;
  const index_t ctx_cols = heads * d;
  const index_t cap = cache.capacity();
  OPT_CHECK(qkv.numel() == slots * qkv_cols, "decode qkv shape mismatch");
  OPT_CHECK(ctx.numel() == slots * ctx_cols, "decode ctx shape mismatch");
  OPT_CHECK(slots == cache.slots() && heads == cache.heads() && d == cache.head_dim(),
            "cache shard mismatch: [" << cache.slots() << ", " << cache.heads() << "x"
                                      << cache.head_dim() << "] vs [" << slots << ", "
                                      << heads << "x" << d << "]");
  T* kc = cache.k_data(layer);
  T* vc = cache.v_data(layer);

  // (slot, head) pairs touch disjoint cache and ctx slices, so they are the
  // intra-op parallel axis exactly as in the prefill path.
  tensor::parallel_for(slots * heads, /*grain=*/1, [&](index_t w0, index_t w1) {
    std::vector<T> probs;
    for (index_t w = w0; w < w1; ++w) {
      const index_t bi = w / heads;
      const index_t hi = w % heads;
      const index_t len = cache.len(bi);
      OPT_CHECK(len < cap, "kv cache slot " << bi << " full");
      const T* base = qkv.data() + bi * qkv_cols + hi * 3 * d;
      // Append this step's K/V at position `len` (head-major inner layout),
      // then run the prefill head body on the one new query row against the
      // len+1 cached rows (row stride heads·d).
      T* K = kc + bi * cap * ctx_cols + hi * d;
      T* V = vc + bi * cap * ctx_cols + hi * d;
      std::memcpy(K + len * ctx_cols, base + d, static_cast<std::size_t>(d) * sizeof(T));
      std::memcpy(V + len * ctx_cols, base + 2 * d, static_cast<std::size_t>(d) * sizeof(T));
      probs.resize(static_cast<std::size_t>(len + 1));
      head_forward(base, K, V, 1, len + 1, d, qkv_cols, ctx_cols, /*causal=*/false,
                   probs.data(), ctx.data() + bi * ctx_cols + hi * d, ctx_cols);
    }
  });
}
#define OPTIMUS_INSTANTIATE_ATTENTION(T)                                                   \
  template void attention_forward<T>(const TensorT<T>&, index_t, index_t, index_t,        \
                                     index_t, bool, TensorT<T>&, TensorT<T>&);             \
  template void attention_backward<T>(const TensorT<T>&, const TensorT<T>&,               \
                                      const TensorT<T>&, index_t, index_t, index_t,       \
                                      index_t, TensorT<T>&);                               \
  template void attention_forward_fused<T>(const TensorT<T>&, index_t, index_t, index_t,  \
                                           index_t, bool, TensorT<T>&, TensorT<T>&);      \
  template void attention_backward_fused<T>(const TensorT<T>&, const TensorT<T>&,         \
                                            index_t, index_t, index_t, index_t, bool,     \
                                            TensorT<T>&, TensorT<T>&);                     \
  template void attention_decode<T>(const TensorT<T>&, index_t, index_t, index_t,         \
                                    KvCacheT<T>&, index_t, TensorT<T>&);

OPTIMUS_INSTANTIATE_ATTENTION(float)
OPTIMUS_INSTANTIATE_ATTENTION(double)

#undef OPTIMUS_INSTANTIATE_ATTENTION

}  // namespace optimus::model
