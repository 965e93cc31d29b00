#pragma once

// Megatron-style 1D tensor-parallel Transformer (the paper's baseline, §2.2).
//
// Every one of the p devices holds the *full* activations [b·s, h]; weight
// matrices are split one-dimensionally:
//
//   W_qkv [h, 3h]   column-split → each device computes its n/p heads locally
//   W_proj [h, h]   row-split    → partial outputs, summed by all-reduce
//   W_fc1 [h, 4h]   column-split
//   W_fc2 [4h, h]   row-split    → partial outputs, summed by all-reduce
//   embedding [v,h] vocab-split (rows) with an all-reduce to assemble
//   layernorms, biases after all-reduce, positional embedding, classifier —
//   replicated (their gradients are computed from replicated activations and
//   stay bit-identical across devices in this deterministic runtime).
//
// Communication per layer: 2 all-reduces of b·s·h in forward (one per block
// output) and 2 in backward (one per block input), exactly the Table-1
// 4(p−1)/p·bsh and 8(p−1)/p·bsh terms once checkpoint recomputation is
// counted. Activation checkpointing (store layer inputs, recompute in
// backward) is on by default to match the paper's setting.
//
// The lm-head is weight-tied to the vocab-parallel embedding; the token-wise
// loss is a vocab-parallel cross-entropy (max / sum-exp / label-term
// all-reduces), mirroring Megatron-LM's implementation.

#include <vector>

#include "comm/communicator.hpp"
#include "model/config.hpp"
#include "model/head.hpp"
#include "model/kv_cache.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace optimus::megatron {

template <typename T>
class MegatronTransformer {
 public:
  /// Collective: all ranks of `comm` construct together. `checkpoint` selects
  /// activation checkpointing (recompute in backward).
  MegatronTransformer(const model::TransformerConfig& cfg, comm::Communicator& comm,
                      bool checkpoint = true);

  const model::TransformerConfig& config() const { return cfg_; }
  int p() const { return comm_->size(); }

  /// Stem forward on tokens [b, s]; returns the (replicated) final hidden
  /// states [b·s, h] after the final layernorm.
  const tensor::TensorT<T>& forward(const tensor::ITensor& tokens);

  /// Vocab-parallel LM loss (identical on every rank). Labels [b, s].
  T lm_loss(const tensor::ITensor& labels);
  void backward_lm();

  /// Classification branch (replicated head over the first token).
  T cls_loss(const tensor::ITensor& labels);
  void backward_cls();

  void zero_grads();

  /// Local parameter / gradient tensors, fixed order (same as names()).
  std::vector<tensor::TensorT<T>*> parameters();
  std::vector<tensor::TensorT<T>*> gradients();

  /// Gradient w.r.t. the embedding output [b·s, h] (replicated).
  const tensor::TensorT<T>& input_grad() const { return d_x0_; }

  /// This rank's slice bounds of the vocab dimension.
  tensor::index_t vocab_begin() const { return comm_->rank() * cfg_.vocab / p(); }
  tensor::index_t vocab_per_rank() const { return cfg_.vocab / p(); }
  tensor::index_t heads_local() const { return heads_local_; }

  // -- incremental decode ----------------------------------------------------

  /// This rank's KV-cache shard: column-sharded heads (n/p per rank), all
  /// slots present, `seq_len` capacity.
  model::KvCacheT<T> make_kv_cache(tensor::index_t slots) const {
    return model::KvCacheT<T>(cfg_.layers, slots, cfg_.seq_len, heads_local_, cfg_.head_dim());
  }

  /// One decode step (collective): tokens [slots] replicated across ranks,
  /// one new token per cache slot at position cache.len(slot). Reuses the
  /// layer all-reduces (ordered fold, so the result is bitwise identical to
  /// the matching rows of forward() on the full prefix), appends this step's
  /// K/V, advances active slots (null = all), and returns the replicated
  /// hidden states [slots, h].
  const tensor::TensorT<T>& forward_decode(const tensor::ITensor& tokens,
                                           model::KvCacheT<T>& cache,
                                           const std::vector<std::uint8_t>* active = nullptr);

  /// This rank's vocab slice of the lm-head logits [slots, v/p] from the last
  /// forward_decode() (allocates). Column j is global vocab vocab_begin()+j.
  tensor::TensorT<T> lm_logits_decode_local();

  // Local parameter access for equivalence tests.
  struct Layer {
    tensor::TensorT<T> ln1_g, ln1_b, ln2_g, ln2_b;  // [h] replicated
    tensor::TensorT<T> qkv_w, qkv_b;                // [h, 3h/p], [3h/p]
    tensor::TensorT<T> proj_w;                      // [h/p, h]
    tensor::TensorT<T> proj_b;                      // [h] replicated
    tensor::TensorT<T> fc1_w, fc1_b;                // [h, 4h/p], [4h/p]
    tensor::TensorT<T> fc2_w;                       // [4h/p, h]
    tensor::TensorT<T> fc2_b;                       // [h] replicated
  };
  Layer& layer(tensor::index_t i) { return layers_[i]; }
  Layer& layer_grad(tensor::index_t i) { return grads_[i]; }
  tensor::TensorT<T>& embedding() { return embedding_; }          // [v/p, h]
  tensor::TensorT<T>& embedding_grad() { return d_embedding_; }

 private:
  struct LayerActs {
    tensor::TensorT<T> input;  // [bs, h] — always kept (checkpoint)
    // The rest is populated in forward (no checkpointing) or recomputed.
    tensor::TensorT<T> ln1_xhat, ln1_istd, ln1_out;
    tensor::TensorT<T> qkv;    // [bs, 3h/p]
    tensor::TensorT<T> probs;  // [b·n/p, s, s]
    tensor::TensorT<T> ctx;    // [bs, h/p]
    tensor::TensorT<T> x1;     // [bs, h]
    tensor::TensorT<T> ln2_xhat, ln2_istd, ln2_out;
    tensor::TensorT<T> fc1_out, gelu_out;  // [bs, 4h/p]
    bool full = false;  // whether the non-checkpoint fields are valid
  };

  void init_parameters();
  /// Computes everything after a.input [rows, h] for layer l into `a` and
  /// returns the layer output. With a cache, attention runs KV-cached decode
  /// and no probs are kept.
  tensor::TensorT<T> layer_forward(tensor::index_t l, LayerActs& a,
                                   model::KvCacheT<T>* cache = nullptr);
  /// Backward through layer l; returns grad w.r.t. the layer input.
  tensor::TensorT<T> layer_backward(tensor::index_t l, LayerActs& a,
                                    const tensor::TensorT<T>& dout);
  void backward_stem(tensor::TensorT<T> d_hidden);
  /// Vocab-parallel token + positional embedding, one row per token. Row r
  /// sits at position r mod s in prefill, or at cache->len(r) in decode.
  tensor::TensorT<T> embed(const tensor::ITensor& tokens, const model::KvCacheT<T>* cache);

  model::TransformerConfig cfg_;
  comm::Communicator* comm_;
  bool checkpoint_;
  tensor::index_t heads_local_;
  tensor::index_t qkv_cols_;  // 3h/p
  tensor::index_t ffn_local_;

  // Parameters and grads.
  tensor::TensorT<T> embedding_, d_embedding_;           // [v/p, h]
  tensor::TensorT<T> pos_embedding_, d_pos_embedding_;   // [s, h] replicated
  std::vector<Layer> layers_, grads_;
  tensor::TensorT<T> final_ln_g_, final_ln_b_, d_final_ln_g_, d_final_ln_b_;
  tensor::TensorT<T> cls_w_, cls_b_, d_cls_w_, d_cls_b_;  // replicated

  // Forward state.
  tensor::ITensor tokens_;
  tensor::TensorT<T> x0_;
  std::vector<LayerActs> acts_;
  tensor::TensorT<T> stem_out_, final_xhat_, final_istd_, hidden_;
  tensor::TensorT<T> d_x0_;
  tensor::TensorT<T> decode_hidden_;  // [slots, h], last forward_decode()

  // Loss state.
  model::VocabParallelCrossEntropy<T> lm_ce_;  // over comm_, all b·s rows
  tensor::index_t lm_active_ = 0;
  tensor::TensorT<T> cls_probs_, cls_pooled_;
  tensor::ITensor cls_labels_;
};

}  // namespace optimus::megatron
