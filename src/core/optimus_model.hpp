#pragma once

// Optimus: the paper's 2D tensor-parallel Transformer (§3.2).
//
// The p = q×q devices form a mesh; *both* parameters and activations are
// partitioned into q×q blocks — nothing is replicated:
//
//   activations [b·s, h]  → device (i, j) holds batch block i, hidden slice j
//                           with the whole sequence present ([b/q, s, h/q])
//   weights     [h, h']   → q×q SUMMA blocks
//   embedding   [v, h]    → q×q blocks; lm-head is Algorithm 2 on the same
//                           blocks (tied weights)
//   biases, layernorm γ/β, positional embedding, classifier — h/q (or full
//     small) slices hosted by mesh row 0, broadcast down columns in forward,
//     gradients reduced back to row 0 (Fig. 5)
//
// Every big matmul is a SUMMA call: Algorithm 1 (C=AB) in forward,
// Algorithm 2 (dX = dC·Wᵀ) and Algorithm 3 (dW = Xᵀ·dC) in backward — the
// closed differentiation set of eqs. 1–3. Attention itself is entirely local:
// device (i, j) owns b/q sequences and n/q heads (§3.2.1).
//
// Memory management implements §3.2.3: a `workspace` arena for SUMMA
// broadcast/reduce temporaries, a `forward` arena for intra-layer
// activations, a `backward` arena for intra-layer gradients, persistent
// parameter-gradient tensors, and persistent per-layer checkpoint inputs
// (the conjunction buffer is the dx tensor handed between layers). With
// activation checkpointing (default), forward keeps only each layer's input
// block and recomputes the rest during backward, so both arenas are sized for
// a single layer regardless of N.

#include <memory>
#include <vector>

#include "mesh/mesh.hpp"
#include "model/config.hpp"
#include "model/head.hpp"
#include "model/kv_cache.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace optimus::core {

enum class BufferMode {
  kPooled,  // §3.2.3 pre-allocated arenas (default)
  kHeap,    // plain per-op allocation — the E8 ablation baseline
};

struct OptimusOptions {
  bool checkpoint = true;
  BufferMode buffers = BufferMode::kPooled;
  // Paper §6 "operation fusion": stream attention one (batch, head) at a
  // time through a 2s² scratch instead of materialising the [b/q, n/q, s, s]
  // probabilities (recomputed per head in backward).
  bool fuse_attention = false;
  // Paper §3.2.3 method (2): "update the parameters immediately after the
  // backward pass of a Transformer layer, then reset the parameter gradient
  // buffer". All layers share ONE set of weight-gradient tensors; training
  // must go through backward_lm_fused_update (plain SGD), and gradients()
  // is unavailable. Parameter-gradient memory becomes one layer deep.
  bool fused_update = false;
};

template <typename T>
class OptimusTransformer {
 public:
  /// Collective: all p ranks construct together over an existing mesh.
  OptimusTransformer(const model::TransformerConfig& cfg, mesh::Mesh2D& mesh,
                     OptimusOptions options = {});

  const model::TransformerConfig& config() const { return cfg_; }
  mesh::Mesh2D& mesh() { return *mesh_; }
  int q() const { return mesh_->q(); }
  bool on_row0() const { return mesh_->row() == 0; }

  /// Local rows of the activation matrix: (b/q)·s.
  tensor::index_t rows_local() const { return cfg_.batch / q() * cfg_.seq_len; }
  /// Local hidden columns: h/q.
  tensor::index_t h_local() const { return cfg_.hidden / q(); }
  tensor::index_t vocab_local() const { return cfg_.vocab / q(); }
  tensor::index_t heads_local() const { return cfg_.heads / q(); }
  tensor::index_t batch_local() const { return cfg_.batch / q(); }

  /// Stem forward. `tokens` is the *global* [b, s] tensor (every rank passes
  /// the same; each slices its own batch block — input distribution is out of
  /// scope, as in the paper). Returns this device's final hidden block
  /// [rows_local, h/q].
  const tensor::TensorT<T>& forward(const tensor::ITensor& tokens);

  /// Distributed LM loss (identical on every rank). Labels are global [b, s].
  T lm_loss(const tensor::ITensor& labels);
  void backward_lm();

  /// §3.2.3 method (2): backward through the LM branch, applying an SGD step
  /// (param -= lr·grad) to each layer's parameters immediately after that
  /// layer's backward and resetting the shared gradient buffer. The
  /// embedding, positional and final-layernorm parameters are updated at the
  /// end (their gradients accumulate across the whole pass). Requires
  /// options.fused_update.
  void backward_lm_fused_update(double lr);

  /// Classification branch; labels global [b].
  T cls_loss(const tensor::ITensor& labels);
  void backward_cls();

  /// This device's block of the lm-head logits [rows_local, v/q] from the
  /// last forward() (runs Algorithm 2; allocates).
  tensor::TensorT<T> lm_logits_block();

  // -- incremental decode ----------------------------------------------------

  /// Local cache slots when `slots_global` sequences are in flight: the slot
  /// (= batch) dimension is row-split like activations.
  tensor::index_t slots_local(tensor::index_t slots_global) const {
    return slots_global / q();
  }

  /// This device's KV-cache shard for `slots_global` in-flight sequences:
  /// 2D-sharded exactly like activations — row-split slots, column-split
  /// heads — with `seq_len` capacity. slots_global must divide by q.
  model::KvCacheT<T> make_kv_cache(tensor::index_t slots_global) const {
    OPT_CHECK(slots_global >= q() && slots_global % q() == 0,
              "decode slots " << slots_global << " must be a positive multiple of q=" << q());
    return model::KvCacheT<T>(cfg_.layers, slots_local(slots_global), cfg_.seq_len,
                              heads_local(), cfg_.head_dim());
  }

  /// One decode step (collective): `tokens` is the *global* [slots] vector
  /// (every rank passes the same); this device processes its row block of
  /// slots against its cache shard. Reuses the SUMMA collectives and the
  /// ordered-fold layernorm reduction, so each returned row is bitwise
  /// identical to the matching row of forward() on the full prefix. Appends
  /// this step's K/V, advances active slots (`active` is the global mask;
  /// null = all), and returns this device's hidden block [slots/q, h/q].
  /// Hosted slices (biases, LN γ/β, positional rows) are broadcast down
  /// columns once and cached across steps — call invalidate_decode_params()
  /// if parameters change between a training step and decode.
  const tensor::TensorT<T>& forward_decode(const tensor::ITensor& tokens,
                                           model::KvCacheT<T>& cache,
                                           const std::vector<std::uint8_t>* active = nullptr);

  /// This device's block of the lm-head logits [slots/q, v/q] from the last
  /// forward_decode() (Algorithm 2; allocates).
  tensor::TensorT<T> lm_logits_decode_block();

  void invalidate_decode_params() { decode_params_ready_ = false; }

  /// Classifier logits for this device's batch block [b/q, num_classes]
  /// (replicated across the mesh row). Collective; must follow forward().
  tensor::TensorT<T> cls_logits_block();

  void zero_grads();

  /// Parameters *owned* by this device (row-0 devices own the hosted slices
  /// in addition to their weight blocks), paired with gradients().
  std::vector<tensor::TensorT<T>*> parameters();
  std::vector<tensor::TensorT<T>*> gradients();

  /// Gradient w.r.t. this device's block of the embedding output.
  const tensor::TensorT<T>& input_grad() const { return d_x0_; }

  // Structured access for equivalence tests.
  struct Layer {
    // q×q weight blocks (every device).
    tensor::TensorT<T> qkv_w;   // [h/q, 3h/q]
    tensor::TensorT<T> proj_w;  // [h/q, h/q]
    tensor::TensorT<T> fc1_w;   // [h/q, 4h/q]
    tensor::TensorT<T> fc2_w;   // [4h/q, h/q]
    // Row-0-hosted slices (defined only where mesh row == 0).
    tensor::TensorT<T> ln1_g, ln1_b, ln2_g, ln2_b;  // [h/q]
    tensor::TensorT<T> qkv_b;                       // [3h/q]
    tensor::TensorT<T> proj_b;                      // [h/q]
    tensor::TensorT<T> fc1_b;                       // [4h/q]
    tensor::TensorT<T> fc2_b;                       // [h/q]
  };
  Layer& layer(tensor::index_t i) { return layers_[i]; }
  Layer& layer_grad(tensor::index_t i) { return grads_[i]; }
  tensor::TensorT<T>& embedding_block() { return embedding_; }
  tensor::TensorT<T>& embedding_block_grad() { return d_embedding_; }
  tensor::TensorT<T>& pos_embedding_slice() { return pos_embedding_; }
  tensor::TensorT<T>& pos_embedding_slice_grad() { return d_pos_embedding_; }
  tensor::TensorT<T>& final_ln_g() { return final_ln_g_; }
  tensor::TensorT<T>& final_ln_g_grad() { return d_final_ln_g_; }
  tensor::TensorT<T>& cls_w_slice_grad() { return d_cls_w_; }
  const tensor::TensorT<T>& hidden_block() const { return hidden_; }

  /// High-water marks of the three arenas (pooled mode), for the E8 ablation.
  std::uint64_t workspace_high_water() const { return ws_ ? ws_->high_water() : 0; }
  std::uint64_t forward_high_water() const { return fwd_ ? fwd_->high_water() : 0; }
  std::uint64_t backward_high_water() const { return bwd_ ? bwd_->high_water() : 0; }

 private:
  struct LayerActs {
    tensor::TensorT<T> input;  // [rows, h/q] — the checkpoint
    // Arena-backed (or heap) intra-layer activations.
    tensor::TensorT<T> ln1_out, ln1_xhat, ln1_istd;
    tensor::TensorT<T> ln1_g_bcast, ln1_b_bcast, ln2_g_bcast, ln2_b_bcast;
    tensor::TensorT<T> qkv, probs, ctx, x1;
    tensor::TensorT<T> ln2_out, ln2_xhat, ln2_istd;
    tensor::TensorT<T> fc1_out, gelu_out;
    bool full = false;
  };

  tensor::TensorT<T> alloc_bwd(tensor::Shape s) {
    return bwd_ ? bwd_->template alloc<T>(s) : tensor::TensorT<T>(s);
  }
  tensor::Arena* ws() { return ws_.get(); }

  void init_parameters();
  void init_arenas();

  /// Broadcasts a row-0-hosted slice down this device's column into `buf`
  /// (row 0 copies it in first) and returns `buf`.
  tensor::TensorT<T> bcast_from_row0(const tensor::TensorT<T>& hosted, tensor::TensorT<T> buf);
  /// Reduces a local partial gradient down the column; row 0 accumulates it
  /// into `grad_slot`.
  void reduce_to_row0(tensor::TensorT<T>& partial, tensor::TensorT<T>& grad_slot);

  tensor::TensorT<T> embed(const tensor::ITensor& tokens);
  /// Broadcasts the row-0/col-hosted slices decode needs (biases, LN γ/β,
  /// positional table) down the columns once; cached until invalidated.
  void ensure_decode_params();
  /// Computes everything after a.input [rows, h/q] for layer l into `a` and
  /// returns the layer output. Hosted slices are broadcast where they are
  /// used, or read from the decode copies when a cache is given; with a
  /// cache, attention runs KV-cached decode and no probs are kept. Up to
  /// rows_local() rows carve from the forward and workspace arenas (pooled
  /// mode); larger decode batches use the heap.
  tensor::TensorT<T> layer_forward(tensor::index_t l, LayerActs& a,
                                   model::KvCacheT<T>* cache = nullptr);
  tensor::TensorT<T> layer_backward(tensor::index_t l, LayerActs& a,
                                    const tensor::TensorT<T>& dout);
  void backward_stem(tensor::TensorT<T> d_hidden);
  void release_layer(LayerActs& a);
  /// Applies param -= lr·grad to layer l's owned tensors and zeroes the
  /// (shared) gradient slots. Only used in fused_update mode.
  void apply_layer_update(tensor::index_t l, double lr);

  model::TransformerConfig cfg_;
  mesh::Mesh2D* mesh_;
  OptimusOptions options_;

  std::unique_ptr<tensor::Arena> ws_, fwd_, bwd_;

  // Parameters / gradients.
  tensor::TensorT<T> embedding_, d_embedding_;          // [v/q, h/q]
  tensor::TensorT<T> pos_embedding_, d_pos_embedding_;  // [s, h/q] (row 0)
  std::vector<Layer> layers_, grads_;
  tensor::TensorT<T> final_ln_g_, final_ln_b_, d_final_ln_g_, d_final_ln_b_;  // [h/q] (row 0)
  tensor::TensorT<T> cls_w_, cls_b_, d_cls_w_, d_cls_b_;  // [h/q, c], [c] (row 0)

  // Forward state.
  tensor::ITensor tokens_local_;  // [b/q, s]
  tensor::TensorT<T> x0_;        // [rows, h/q]
  std::vector<LayerActs> acts_;
  tensor::TensorT<T> stem_out_;
  tensor::TensorT<T> final_xhat_, final_istd_, hidden_;
  tensor::TensorT<T> final_g_bcast_, final_b_bcast_;
  tensor::TensorT<T> d_x0_;

  // Decode state: column-broadcast copies of the hosted slices (persistent
  // across steps; only the hosted fields of each Layer are set) and the last
  // step's hidden block.
  std::vector<Layer> decode_hosted_;
  tensor::TensorT<T> decode_pos_;                      // [s, h/q]
  tensor::TensorT<T> decode_final_g_, decode_final_b_;  // [h/q]
  bool decode_params_ready_ = false;
  tensor::TensorT<T> decode_hidden_;  // [slots/q, h/q], last forward_decode()

  // Fused-update state: lr applied per layer during backward_stem (< 0 when
  // not in a fused-update pass).
  double fused_lr_ = -1.0;

  // Loss state.
  model::VocabParallelCrossEntropy<T> lm_ce_;  // over the mesh row, this row block
  tensor::index_t lm_active_ = 0;
  tensor::TensorT<T> cls_probs_, cls_pooled_, cls_w_bcast_;
  tensor::ITensor cls_labels_local_;
};

}  // namespace optimus::core
