#pragma once

// Single-device reference Transformer (the correctness oracle).
//
// Structure per Figure 1 of the paper, with the common pre-LN residual
// arrangement:
//
//   tokens → embedding (+ learned positional embedding)
//          → N × [ LN → attention → +residual → LN → MLP(GELU) → +residual ]
//          → final LN
//          → either lm-head (logits = X·Eᵀ, weight-tied) + token-wise
//            cross-entropy, or a classification head over the first token.
//
// Forward/backward are hand-written (no autograd), matching the paper's
// manually-managed execution, and every parameter is initialised from
// util::CounterRng streams (param_init.hpp) so the distributed engines can
// materialise bit-identical blocks independently.
//
// Instantiated for float and double; the double instantiation is what the
// finite-difference tests drive.

#include <string>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace optimus::model {

/// Parameters of one transformer layer (global shapes).
template <typename T>
struct LayerParams {
  tensor::TensorT<T> ln1_g, ln1_b;          // [h]
  tensor::TensorT<T> qkv_w;                 // [h, 3h] head-major (param_init.hpp)
  tensor::TensorT<T> qkv_b;                 // [3h]
  tensor::TensorT<T> proj_w;                // [h, h]
  tensor::TensorT<T> proj_b;                // [h]
  tensor::TensorT<T> ln2_g, ln2_b;          // [h]
  tensor::TensorT<T> fc1_w;                 // [h, 4h]
  tensor::TensorT<T> fc1_b;                 // [4h]
  tensor::TensorT<T> fc2_w;                 // [4h, h]
  tensor::TensorT<T> fc2_b;                 // [h]
};

template <typename T>
class SerialTransformer {
 public:
  explicit SerialTransformer(const TransformerConfig& cfg);

  const TransformerConfig& config() const { return cfg_; }

  /// Runs the stem on tokens [b, s]; returns final hidden states [b·s, h]
  /// (after the final layernorm). Activations are retained for backward.
  const tensor::TensorT<T>& forward(const tensor::ITensor& tokens);

  /// Language-model branch: mean token cross-entropy of the tied-weight
  /// lm-head against labels [b, s] (label < 0 masks a position). Must follow
  /// forward() on the same tokens.
  T lm_loss(const tensor::ITensor& labels);

  /// Backward of lm_loss through the whole model; gradients accumulate.
  void backward_lm();

  /// Classification branch: mean cross-entropy of the first-token pooled
  /// classifier against labels [b].
  T cls_loss(const tensor::ITensor& labels);
  void backward_cls();

  /// Classifier logits [b, num_classes] from the last forward().
  tensor::TensorT<T> cls_logits();

  /// lm-head logits [b·s, v] from the last forward() (allocates).
  tensor::TensorT<T> lm_logits();

  // -- incremental decode ----------------------------------------------------

  /// Allocates a dense KV cache sized for this model: one slot per requested
  /// batch lane, `seq_len` capacity.
  KvCacheT<T> make_kv_cache(tensor::index_t slots) const {
    return KvCacheT<T>(cfg_.layers, slots, cfg_.seq_len, cfg_.heads, cfg_.head_dim());
  }

  /// One decode step: tokens [slots], one new token per cache slot, entering
  /// at position cache.len(slot). Attends against the cache (O(len) per
  /// token instead of the O(s²) full-prefix recompute), appends this step's
  /// K/V, advances every active slot (null = all), and returns the hidden
  /// states [slots, h] after the final layernorm — bitwise identical to the
  /// matching rows of forward() on the full prefix. No activations are
  /// retained; decode never feeds backward.
  const tensor::TensorT<T>& forward_decode(const tensor::ITensor& tokens, KvCacheT<T>& cache,
                                           const std::vector<std::uint8_t>* active = nullptr);

  /// lm-head logits [slots, v] from the last forward_decode() (allocates).
  tensor::TensorT<T> lm_logits_decode();

  void zero_grads();

  // -- parameter access ------------------------------------------------------

  /// Flat views over all parameters / their gradients, in a fixed order
  /// shared with parameter_names(). Pointers remain valid for the model's
  /// lifetime.
  std::vector<tensor::TensorT<T>*> parameters();
  std::vector<tensor::TensorT<T>*> gradients();
  std::vector<std::string> parameter_names() const;

  tensor::TensorT<T>& embedding() { return embedding_; }
  tensor::TensorT<T>& embedding_grad() { return d_embedding_; }
  LayerParams<T>& layer(tensor::index_t i) { return layers_[i]; }
  LayerParams<T>& layer_grad(tensor::index_t i) { return grads_[i]; }

  /// Input gradient [b·s, h] w.r.t. the embedding output — used by tests to
  /// compare against the distributed engines.
  const tensor::TensorT<T>& input_grad() const { return d_x0_; }

 private:
  struct LayerActs {
    tensor::TensorT<T> input;                    // [bs, h]
    tensor::TensorT<T> ln1_xhat, ln1_istd, ln1_out;
    tensor::TensorT<T> qkv;                      // [bs, 3h]
    tensor::TensorT<T> probs;                    // [b·n, s, s]
    tensor::TensorT<T> ctx;                      // [bs, h]
    tensor::TensorT<T> x1;                       // [bs, h]
    tensor::TensorT<T> ln2_xhat, ln2_istd, ln2_out;
    tensor::TensorT<T> fc1_out;                  // [bs, 4h] pre-GELU
    tensor::TensorT<T> gelu_out;                 // [bs, 4h]
  };

  void init_parameters();
  /// Token + positional embedding of `tokens`, one row each. Row r sits at
  /// position r mod s in prefill, or at cache->len(r) in decode.
  tensor::TensorT<T> embed(const tensor::ITensor& tokens, const KvCacheT<T>* cache) const;
  /// Layer l on a.input [rows, h]: fills `a` and returns the layer output.
  /// With a cache, attention runs KV-cached decode and no probs are kept.
  tensor::TensorT<T> layer_forward(tensor::index_t l, LayerActs& a,
                                   KvCacheT<T>* cache = nullptr);
  /// Stem backward from d(final hidden) [bs, h]; accumulates all gradients
  /// and leaves d_x0_ (grad at embedding output), then scatters into the
  /// embedding tables.
  void backward_stem(tensor::TensorT<T> d_hidden);

  TransformerConfig cfg_;

  // Parameters and gradients.
  tensor::TensorT<T> embedding_, d_embedding_;      // [v, h]
  tensor::TensorT<T> pos_embedding_, d_pos_embedding_;  // [s, h]
  std::vector<LayerParams<T>> layers_;
  std::vector<LayerParams<T>> grads_;
  tensor::TensorT<T> final_ln_g_, final_ln_b_, d_final_ln_g_, d_final_ln_b_;  // [h]
  tensor::TensorT<T> cls_w_, cls_b_, d_cls_w_, d_cls_b_;  // [h, c], [c]

  // Activations of the last forward().
  tensor::ITensor tokens_;
  tensor::TensorT<T> x0_;  // embedding output [bs, h]
  std::vector<LayerActs> acts_;
  tensor::TensorT<T> stem_out_;  // last layer output (pre final LN)
  tensor::TensorT<T> final_xhat_, final_istd_, hidden_;  // final LN state
  tensor::TensorT<T> d_x0_;
  tensor::TensorT<T> decode_hidden_;  // [slots, h], last forward_decode()

  // Branch state for backward.
  tensor::TensorT<T> lm_probs_;   // [bs, v]
  tensor::ITensor lm_labels_;
  tensor::index_t lm_active_ = 0;
  tensor::TensorT<T> cls_probs_;  // [b, c]
  tensor::ITensor cls_labels_;
  tensor::TensorT<T> cls_pooled_;  // [b, h]
};

}  // namespace optimus::model
