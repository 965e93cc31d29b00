#pragma once

// Device-local multi-head attention core, shared by every engine.
//
// The fused QKV activations are laid out [b_local, s, heads_local·3·d]
// head-major (see param_init.hpp), with the full sequence present — exactly
// the Optimus layout (§3.2.1: "a whole s is partitioned to one device", each
// device owning b/q sequences and n/q heads), of which the serial model
// (b, n) and Megatron (b, n/p) are special cases.
//
// Nonlinear(Q·Kᵀ)·V is computed entirely locally — no communication. Every
// entry point below runs one per-(sequence, head) body: scale·Q·Kᵀ, the
// causal mask, softmax, then P·V, over `rows` queries and L keys. Prefill
// runs it with rows = L = s; KV-cached decode runs one query row over the
// len+1 cached keys. Its backward is likewise one per-head body. The
// materialised and fused variants differ only in where P lives: saved for
// backward in a [b·heads, s, s] tensor, or streamed through one [s, s]
// scratch and recomputed in backward (the paper's §6 fusion discussion).

#include <vector>

#include "tensor/tensor.hpp"

namespace optimus::model {

/// scores = softmax(mask(Q·Kᵀ/√d)); ctx = scores·V.
/// qkv: [b·s, heads·3·d] (head-major), ctx out: [b·s, heads·d],
/// probs out: [b·heads·s·s] (saved for backward).
template <typename T>
void attention_forward(const tensor::TensorT<T>& qkv, tensor::index_t b, tensor::index_t s,
                       tensor::index_t heads, tensor::index_t d, bool causal,
                       tensor::TensorT<T>& ctx, tensor::TensorT<T>& probs);

/// Backward of attention_forward. dqkv is written (not accumulated).
template <typename T>
void attention_backward(const tensor::TensorT<T>& qkv, const tensor::TensorT<T>& probs,
                        const tensor::TensorT<T>& dctx, tensor::index_t b, tensor::index_t s,
                        tensor::index_t heads, tensor::index_t d, tensor::TensorT<T>& dqkv);

/// Elements the probs buffer needs: b·heads·s·s.
inline tensor::index_t attention_probs_elems(tensor::index_t b, tensor::index_t s,
                                             tensor::index_t heads) {
  return b * heads * s * s;
}

// ---------------------------------------------------------------------------
// Incremental (KV-cached) decode
// ---------------------------------------------------------------------------

template <typename T>
class KvCacheT;

/// One decode step against the cache: qkv holds ONE new position per slot
/// ([slots, heads·3·d], head-major). For each (slot, head) the K/V slices are
/// appended to layer `layer` of the cache at position len(slot), and the new
/// query attends over the len(slot)+1 cached positions — O(len·d) instead of
/// the O(s²·d) full-prefix recompute. Causality is inherent (the cache only
/// holds the prefix), and the result row is bitwise identical to the matching
/// row of attention_forward on the full prefix: the masked prefill columns
/// are exact +0 probabilities appended *after* the prefix in every fold.
/// Slot lengths are NOT advanced here — the engine advances the cache once
/// all layers appended.
template <typename T>
void attention_decode(const tensor::TensorT<T>& qkv, tensor::index_t slots,
                      tensor::index_t heads, tensor::index_t d, KvCacheT<T>& cache,
                      tensor::index_t layer, tensor::TensorT<T>& ctx);

/// Multiply-accumulates attention_decode charges: 2·(len+1)·d per (slot, head).
inline std::uint64_t attention_decode_mults(const std::vector<tensor::index_t>& lens,
                                            tensor::index_t heads, tensor::index_t d) {
  std::uint64_t total = 0;
  for (const tensor::index_t len : lens) {
    total += static_cast<std::uint64_t>(heads) * 2u * static_cast<std::uint64_t>(len + 1) * d;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Fused attention (paper §6, "operation fusion")
// ---------------------------------------------------------------------------
//
// The paper observes that the attention scores occupy a [b, n, s, s] tensor —
// up to 8× the activation footprint at its Table-3 scaling — while their
// computation is cheap (bs²h multiplies vs. the MLP's 8bsh²), so fusing the
// score computation into the surrounding products removes the allocation
// entirely. The fused variants below stream one (batch, head) pair at a time
// through a single [s, s] scratch: forward saves nothing, backward recomputes
// the probabilities per head (extra bs²h multiplies, exactly the paper's
// "computationally cheap intermediate" trade).

/// Forward without saving probabilities. `scratch` must hold
/// ≥ attention_fused_forward_scratch_elems(s) = s·s elements.
template <typename T>
void attention_forward_fused(const tensor::TensorT<T>& qkv, tensor::index_t b,
                             tensor::index_t s, tensor::index_t heads, tensor::index_t d,
                             bool causal, tensor::TensorT<T>& ctx,
                             tensor::TensorT<T>& scratch);

/// Backward that recomputes the probabilities per head. `scratch` must hold
/// ≥ attention_fused_backward_scratch_elems(s) = 2·s·s elements (probs +
/// dscores).
template <typename T>
void attention_backward_fused(const tensor::TensorT<T>& qkv, const tensor::TensorT<T>& dctx,
                              tensor::index_t b, tensor::index_t s, tensor::index_t heads,
                              tensor::index_t d, bool causal, tensor::TensorT<T>& dqkv,
                              tensor::TensorT<T>& scratch);

/// Scratch elements the fused forward and the fused backward need.
inline tensor::index_t attention_fused_forward_scratch_elems(tensor::index_t s) { return s * s; }
inline tensor::index_t attention_fused_backward_scratch_elems(tensor::index_t s) {
  return 2 * s * s;
}

}  // namespace optimus::model
