#include "core/optimus_model.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "core/layernorm2d.hpp"
#include "model/attention.hpp"
#include "model/head.hpp"
#include "model/param_init.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"

namespace optimus::core {

namespace {

using tensor::Arena;
using tensor::ArenaScope;
using tensor::index_t;
using tensor::ITensor;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;
using model::LayerWeight;

std::uint64_t align64(std::uint64_t bytes) { return (bytes + 63) & ~std::uint64_t{63}; }

}  // namespace

template <typename T>
OptimusTransformer<T>::OptimusTransformer(const model::TransformerConfig& cfg,
                                          mesh::Mesh2D& mesh, OptimusOptions options)
    : cfg_(cfg), mesh_(&mesh), options_(options) {
  cfg_.validate_for_mesh(mesh.q(), mesh.depth());
  OPT_CHECK(options_.buffers == BufferMode::kHeap || options_.checkpoint,
            "pooled buffers require activation checkpointing (the forward arena is "
            "recycled per layer)");
  init_parameters();
  if (options_.buffers == BufferMode::kPooled) init_arenas();
}

template <typename T>
void OptimusTransformer<T>::init_parameters() {
  const int q = mesh_->q();
  const int row = mesh_->row();
  const int col = mesh_->col();
  const index_t h = cfg_.hidden;
  const index_t hq = h_local();
  const index_t f = cfg_.ffn_hidden();
  const index_t fq = f / q;
  const index_t tq = 3 * hq;
  const index_t vq = vocab_local();
  const index_t c = cfg_.num_classes;
  const util::CounterRng rng(cfg_.seed);
  const T scale = static_cast<T>(cfg_.init_scale);

  // Embedding block (v/q × h/q): global offsets (row·v/q, col·h/q).
  embedding_ = TensorT<T>(Shape{vq, hq});
  ops::fill_counter_uniform(embedding_, rng, model::kEmbeddingStream, scale, row * vq,
                            col * hq, h);
  d_embedding_ = TensorT<T>::zeros(embedding_.shape());

  if (row == 0) {
    pos_embedding_ = TensorT<T>(Shape{cfg_.seq_len, hq});
    ops::fill_counter_uniform(pos_embedding_, rng, model::kPosEmbeddingStream, scale, 0,
                              col * hq, h);
    d_pos_embedding_ = TensorT<T>::zeros(pos_embedding_.shape());
  }

  layers_.resize(cfg_.layers);
  grads_.resize(cfg_.layers);
  for (index_t l = 0; l < cfg_.layers; ++l) {
    Layer& lp = layers_[l];
    lp.qkv_w = TensorT<T>(Shape{hq, tq});
    ops::fill_counter_uniform(lp.qkv_w, rng, model::layer_weight_stream(l, LayerWeight::kQkv),
                              scale, row * hq, col * tq, 3 * h);
    lp.proj_w = TensorT<T>(Shape{hq, hq});
    ops::fill_counter_uniform(lp.proj_w, rng,
                              model::layer_weight_stream(l, LayerWeight::kProj), scale,
                              row * hq, col * hq, h);
    lp.fc1_w = TensorT<T>(Shape{hq, fq});
    ops::fill_counter_uniform(lp.fc1_w, rng, model::layer_weight_stream(l, LayerWeight::kFc1),
                              scale, row * hq, col * fq, f);
    lp.fc2_w = TensorT<T>(Shape{fq, hq});
    ops::fill_counter_uniform(lp.fc2_w, rng, model::layer_weight_stream(l, LayerWeight::kFc2),
                              scale, row * fq, col * hq, h);

    Layer& lg = grads_[l];
    if (options_.fused_update && l > 0) {
      // §3.2.3 method (2): one shared gradient buffer for every layer —
      // handles alias layer 0's tensors.
      lg.qkv_w = grads_[0].qkv_w;
      lg.proj_w = grads_[0].proj_w;
      lg.fc1_w = grads_[0].fc1_w;
      lg.fc2_w = grads_[0].fc2_w;
    } else {
      lg.qkv_w = TensorT<T>::zeros(lp.qkv_w.shape());
      lg.proj_w = TensorT<T>::zeros(lp.proj_w.shape());
      lg.fc1_w = TensorT<T>::zeros(lp.fc1_w.shape());
      lg.fc2_w = TensorT<T>::zeros(lp.fc2_w.shape());
    }

    if (row == 0) {
      // Hosted slices for this mesh column (Fig. 5).
      lp.ln1_g = TensorT<T>::full(Shape{hq}, T{1});
      lp.ln1_b = TensorT<T>::zeros(Shape{hq});
      lp.ln2_g = TensorT<T>::full(Shape{hq}, T{1});
      lp.ln2_b = TensorT<T>::zeros(Shape{hq});
      lp.qkv_b = TensorT<T>::zeros(Shape{tq});
      lp.proj_b = TensorT<T>::zeros(Shape{hq});
      lp.fc1_b = TensorT<T>::zeros(Shape{fq});
      lp.fc2_b = TensorT<T>::zeros(Shape{hq});
      if (options_.fused_update && l > 0) {
        lg.ln1_g = grads_[0].ln1_g;
        lg.ln1_b = grads_[0].ln1_b;
        lg.ln2_g = grads_[0].ln2_g;
        lg.ln2_b = grads_[0].ln2_b;
        lg.qkv_b = grads_[0].qkv_b;
        lg.proj_b = grads_[0].proj_b;
        lg.fc1_b = grads_[0].fc1_b;
        lg.fc2_b = grads_[0].fc2_b;
      } else {
        lg.ln1_g = TensorT<T>::zeros(Shape{hq});
        lg.ln1_b = TensorT<T>::zeros(Shape{hq});
        lg.ln2_g = TensorT<T>::zeros(Shape{hq});
        lg.ln2_b = TensorT<T>::zeros(Shape{hq});
        lg.qkv_b = TensorT<T>::zeros(Shape{tq});
        lg.proj_b = TensorT<T>::zeros(Shape{hq});
        lg.fc1_b = TensorT<T>::zeros(Shape{fq});
        lg.fc2_b = TensorT<T>::zeros(Shape{hq});
      }
    }
  }

  if (row == 0) {
    final_ln_g_ = TensorT<T>::full(Shape{hq}, T{1});
    final_ln_b_ = TensorT<T>::zeros(Shape{hq});
    d_final_ln_g_ = TensorT<T>::zeros(Shape{hq});
    d_final_ln_b_ = TensorT<T>::zeros(Shape{hq});
    // Classifier: row-slice of [h, c] for this column, plus a replicated
    // bias (one copy per column, updated identically).
    cls_w_ = TensorT<T>(Shape{hq, c});
    ops::fill_counter_uniform(cls_w_, rng, model::kClsHeadStream, scale, col * hq, 0, c);
    cls_b_ = TensorT<T>::zeros(Shape{c});
    d_cls_w_ = TensorT<T>::zeros(Shape{hq, c});
    d_cls_b_ = TensorT<T>::zeros(Shape{c});
  }
}

template <typename T>
void OptimusTransformer<T>::init_arenas() {
  const int q = mesh_->q();
  const index_t rows = rows_local();
  const index_t hq = h_local();
  const index_t fq = cfg_.ffn_hidden() / q;
  const index_t tq = 3 * hq;
  const index_t vq = vocab_local();
  const index_t s = cfg_.seq_len;
  const index_t probs_elems =
      model::attention_probs_elems(batch_local(), s, heads_local());
  const index_t attn_fwd_elems =
      options_.fuse_attention ? model::attention_fused_forward_scratch_elems(s) : probs_elems;
  const auto bytes = [](index_t elems) {
    return align64(static_cast<std::uint64_t>(elems) * sizeof(T));
  };
  // Workspace: max footprint of any single SUMMA call (they run one at a
  // time, §3.2.3) or of the embedding scatter/gather scope. Each call is
  // sized by workspace_bytes on its exact (A, B, C) block roles, which
  // covers the pipelined schedule's double-buffered panels and reduce
  // scratch.
  const int depth = mesh_->depth();
  const auto ws3 = [depth](index_t a, index_t b, index_t c) {
    return summa::workspace_bytes(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b),
                                  static_cast<std::uint64_t>(c), sizeof(T), depth);
  };
  std::uint64_t ws = 0;
  const auto take = [&ws](std::uint64_t v) { ws = std::max(ws, v); };
  take(ws3(rows * hq, hq * tq, rows * tq));  // qkv forward (Alg 1)
  take(ws3(rows * tq, hq * tq, rows * hq));  // qkv dX (Alg 2)
  take(ws3(rows * hq, rows * tq, hq * tq));  // qkv dW (Alg 3)
  take(ws3(rows * hq, hq * hq, rows * hq));  // proj forward + dX
  take(ws3(rows * hq, rows * hq, hq * hq));  // proj dW
  take(ws3(rows * hq, hq * fq, rows * fq));  // fc1 forward
  take(ws3(rows * fq, hq * fq, rows * hq));  // fc1 dX
  take(ws3(rows * hq, rows * fq, hq * fq));  // fc1 dW
  take(ws3(rows * fq, fq * hq, rows * hq));  // fc2 forward
  take(ws3(rows * hq, fq * hq, rows * fq));  // fc2 dX
  take(ws3(rows * fq, rows * hq, fq * hq));  // fc2 dW
  take(ws3(rows * hq, vq * hq, rows * vq));  // lm-head logits (Alg 2)
  take(ws3(rows * vq, vq * hq, rows * hq));  // lm-head d_hidden (Alg 1)
  take(ws3(rows * vq, rows * hq, vq * hq));  // lm-head d_embedding (Alg 3)
  take(bytes(vq * hq) + bytes(s * hq));  // embedding forward/backward scope
  ws_ = std::make_unique<Arena>("workspace", ws);

  // Forward arena: one layer's intra-layer activations (checkpointing keeps
  // only the layer inputs outside).
  std::uint64_t fwd = 0;
  fwd += 2 * bytes(hq);            // ln1 γ/β broadcast
  fwd += 2 * bytes(rows * hq);     // ln1_out, ln1_xhat
  fwd += bytes(rows);              // ln1_istd
  fwd += bytes(rows * tq);         // qkv
  fwd += bytes(tq);                // qkv bias broadcast
  fwd += bytes(attn_fwd_elems);    // attention probabilities (or fused scratch)
  fwd += bytes(rows * hq);         // ctx
  fwd += bytes(rows * hq);         // x1
  fwd += bytes(hq);                // proj bias broadcast
  fwd += 2 * bytes(hq);            // ln2 γ/β broadcast
  fwd += 2 * bytes(rows * hq);     // ln2_out, ln2_xhat
  fwd += bytes(rows);              // ln2_istd
  fwd += bytes(rows * fq);         // fc1_out
  fwd += bytes(fq);                // fc1 bias broadcast
  fwd += bytes(rows * fq);         // gelu_out
  fwd += bytes(hq);                // fc2 bias broadcast
  fwd_ = std::make_unique<Arena>("forward", fwd);

  // Backward arena: one layer's intra-layer gradients.
  std::uint64_t bwd = 0;
  bwd += bytes(rows * fq);  // dgelu
  bwd += bytes(hq);         // fc2 bias partial
  bwd += bytes(rows * fq);  // dm1
  bwd += bytes(fq);         // fc1 bias partial
  bwd += bytes(rows * hq);  // dln2
  bwd += bytes(rows * hq);  // dx1
  bwd += 2 * bytes(hq);     // ln2 γ/β partials
  bwd += bytes(rows * hq);  // dctx
  bwd += bytes(hq);         // proj bias partial
  bwd += bytes(rows * tq);  // dqkv
  bwd += bytes(tq);         // qkv bias partial
  bwd += bytes(rows * hq);  // dln1
  bwd += bytes(rows * hq);  // din
  bwd += 2 * bytes(hq);     // ln1 γ/β partials
  if (options_.fuse_attention) {
    bwd += bytes(model::attention_fused_backward_scratch_elems(s));  // recompute scratch
  }
  bwd_ = std::make_unique<Arena>("backward", bwd);
}

template <typename T>
TensorT<T> OptimusTransformer<T>::bcast_from_row0(const TensorT<T>& hosted, TensorT<T> buf) {
  if (on_row0()) {
    OPT_CHECK(hosted.defined() && hosted.numel() == buf.numel(), "hosted slice mismatch");
    buf.copy_from(hosted.reshape(buf.shape()));
  }
  mesh_->col_comm().broadcast(buf, /*root=*/0);
  return buf;
}

template <typename T>
void OptimusTransformer<T>::reduce_to_row0(TensorT<T>& partial, TensorT<T>& grad_slot) {
  mesh_->col_comm().reduce(partial, /*root=*/0);
  if (on_row0()) {
    OPT_CHECK(grad_slot.defined(), "row-0 gradient slot missing");
    ops::add_(grad_slot, partial.reshape(grad_slot.shape()));
  }
}

template <typename T>
TensorT<T> OptimusTransformer<T>::embed(const ITensor& tokens) {
  const int q = mesh_->q();
  const index_t rows = rows_local();
  const index_t hq = h_local();
  const index_t vq = vocab_local();
  const index_t s = cfg_.seq_len;
  cfg_.check_vocab_ids(tokens, /*labels=*/false, "embedding");
  tokens_local_ = tensor::row_block(tokens.reshape(Shape{cfg_.batch, s}), q, mesh_->row());

  TensorT<T> x0 = TensorT<T>::zeros(Shape{rows, hq});
  {
    // One-hot × table via Algorithm 1: the one-hot blocks are constructible
    // locally (tokens are replicated across the mesh row), so only the table
    // blocks are broadcast — down columns, q rounds.
    std::optional<ArenaScope> scope;
    if (ws_) scope.emplace(*ws_);
    TensorT<T> buf = ws_ ? ws_->template alloc<T>(Shape{vq, hq}) : TensorT<T>(Shape{vq, hq});
    for (int l = 0; l < q; ++l) {
      if (mesh_->row() == l) buf.copy_from(embedding_);
      mesh_->col_comm().broadcast(buf, /*root=*/l);
      const index_t v_begin = l * vq;
      for (index_t r = 0; r < rows; ++r) {
        const index_t tok = tokens_local_[r];
        if (tok >= v_begin && tok < v_begin + vq) {
          const T* src = buf.data() + (tok - v_begin) * hq;
          T* dst = x0.data() + r * hq;
          for (index_t j = 0; j < hq; ++j) dst[j] += src[j];
        }
      }
    }
    // Positional slice, hosted on row 0.
    const TensorT<T> pos = bcast_from_row0(
        pos_embedding_, ws_ ? ws_->template alloc<T>(Shape{s, hq}) : TensorT<T>(Shape{s, hq}));
    model::add_positions<T>(x0, pos, nullptr);
  }
  return x0;
}

template <typename T>
TensorT<T> OptimusTransformer<T>::layer_forward(index_t l, LayerActs& a,
                                                model::KvCacheT<T>* cache) {
  const int q = mesh_->q();
  const index_t rows = a.input.size(0);
  const index_t hq = h_local();
  const index_t fq = cfg_.ffn_hidden() / q;
  const index_t tq = 3 * hq;
  const index_t s = cfg_.seq_len;
  const T eps = static_cast<T>(cfg_.layernorm_eps);
  Layer& p = layers_[l];
  comm::Communicator& row = mesh_->row_comm();
  // Training blocks, and decode blocks up to one training batch, fit the
  // §3.2.3 arenas; a larger decode batch falls back to the heap.
  const bool fits = rows <= rows_local();
  Arena* fwd = fits ? fwd_.get() : nullptr;
  Arena* wsa = fits ? ws() : nullptr;
  const auto alloc = [fwd](Shape shape) {
    return fwd != nullptr ? fwd->template alloc<T>(shape) : TensorT<T>(shape);
  };
  // A row-0-hosted slice of this layer: broadcast down the column at its
  // point of use in training; decode reads the copy cached at its first step.
  const auto hosted = [&](TensorT<T> Layer::*field, index_t n) {
    return cache != nullptr ? decode_hosted_[static_cast<std::size_t>(l)].*field
                            : bcast_from_row0(p.*field, alloc(Shape{n}));
  };

  a.ln1_g_bcast = hosted(&Layer::ln1_g, hq);
  a.ln1_b_bcast = hosted(&Layer::ln1_b, hq);
  a.ln1_out = alloc(Shape{rows, hq});
  a.ln1_xhat = alloc(Shape{rows, hq});
  a.ln1_istd = alloc(Shape{rows});
  layernorm2d_forward(row, a.input, a.ln1_g_bcast, a.ln1_b_bcast, eps, cfg_.hidden, a.ln1_out,
                      a.ln1_xhat, a.ln1_istd);

  a.qkv = alloc(Shape{rows, tq});
  summa::summa_ab(*mesh_, a.ln1_out, p.qkv_w, a.qkv, false, wsa);
  ops::add_bias_(a.qkv, hosted(&Layer::qkv_b, tq));

  a.ctx = alloc(Shape{rows, hq});
  if (cache != nullptr) {
    model::attention_decode(a.qkv, rows, heads_local(), cfg_.head_dim(), *cache, l, a.ctx);
  } else if (options_.fuse_attention) {
    TensorT<T> scratch = alloc(Shape{model::attention_fused_forward_scratch_elems(s)});
    model::attention_forward_fused(a.qkv, batch_local(), s, heads_local(), cfg_.head_dim(),
                                   cfg_.causal, a.ctx, scratch);
  } else {
    a.probs = alloc(Shape{model::attention_probs_elems(batch_local(), s, heads_local())});
    model::attention_forward(a.qkv, batch_local(), s, heads_local(), cfg_.head_dim(),
                             cfg_.causal, a.ctx, a.probs);
  }

  // SUMMA reduces over the mesh before the bias may apply, so the bias
  // cannot fuse into the local GEMMs — bias+residual fuse into one pass.
  a.x1 = alloc(Shape{rows, hq});
  summa::summa_ab(*mesh_, a.ctx, p.proj_w, a.x1, false, wsa);
  ops::bias_residual_(a.x1, hosted(&Layer::proj_b, hq), a.input);

  a.ln2_g_bcast = hosted(&Layer::ln2_g, hq);
  a.ln2_b_bcast = hosted(&Layer::ln2_b, hq);
  a.ln2_out = alloc(Shape{rows, hq});
  a.ln2_xhat = alloc(Shape{rows, hq});
  a.ln2_istd = alloc(Shape{rows});
  layernorm2d_forward(row, a.x1, a.ln2_g_bcast, a.ln2_b_bcast, eps, cfg_.hidden, a.ln2_out,
                      a.ln2_xhat, a.ln2_istd);

  // fc1 bias+GELU in one fused pass (fc1_out keeps the biased
  // pre-activation for backward).
  a.fc1_out = alloc(Shape{rows, fq});
  summa::summa_ab(*mesh_, a.ln2_out, p.fc1_w, a.fc1_out, false, wsa);
  a.gelu_out = alloc(Shape{rows, fq});
  ops::bias_gelu_(a.fc1_out, hosted(&Layer::fc1_b, fq), a.gelu_out);

  // The layer output is the next layer's checkpointed input: persistent.
  TensorT<T> out(Shape{rows, hq});
  summa::summa_ab(*mesh_, a.gelu_out, p.fc2_w, out, false, wsa);
  ops::bias_residual_(out, hosted(&Layer::fc2_b, hq), a.x1);
  a.full = true;
  return out;
}

template <typename T>
TensorT<T> OptimusTransformer<T>::layer_backward(index_t l, LayerActs& a,
                                                 const TensorT<T>& dout) {
  const int q = mesh_->q();
  const index_t rows = rows_local();
  const index_t hq = h_local();
  const index_t fq = cfg_.ffn_hidden() / q;
  const index_t tq = 3 * hq;
  Layer& p = layers_[l];
  Layer& g = grads_[l];
  comm::Communicator& row = mesh_->row_comm();

  // MLP block: out = x1 + fc2(gelu(fc1(ln2(x1)))).
  TensorT<T> dgelu = alloc_bwd(Shape{rows, fq});
  summa::summa_abt(*mesh_, dout, p.fc2_w, dgelu, false, ws());     // eq. 1: dA = dC·Bᵀ
  summa::summa_atb(*mesh_, a.gelu_out, dout, g.fc2_w, true, ws()); // eq. 1: dB = Aᵀ·dC
  {
    TensorT<T> part = alloc_bwd(Shape{hq});
    ops::bias_grad(dout, part, /*accumulate=*/false);
    reduce_to_row0(part, g.fc2_b);
  }
  TensorT<T> dm1 = alloc_bwd(Shape{rows, fq});
  ops::gelu_backward(a.fc1_out, dgelu, dm1, /*accumulate=*/false);
  {
    TensorT<T> part = alloc_bwd(Shape{fq});
    ops::bias_grad(dm1, part, false);
    reduce_to_row0(part, g.fc1_b);
  }
  TensorT<T> dln2 = alloc_bwd(Shape{rows, hq});
  summa::summa_abt(*mesh_, dm1, p.fc1_w, dln2, false, ws());
  summa::summa_atb(*mesh_, a.ln2_out, dm1, g.fc1_w, true, ws());
  TensorT<T> dx1 = alloc_bwd(Shape{rows, hq});
  {
    TensorT<T> dgp = alloc_bwd(Shape{hq});
    TensorT<T> dbp = alloc_bwd(Shape{hq});
    dgp.zero();
    dbp.zero();
    layernorm2d_backward(row, a.ln2_xhat, a.ln2_istd, a.ln2_g_bcast, dln2, cfg_.hidden, dx1,
                         dgp, dbp);
    reduce_to_row0(dgp, g.ln2_g);
    reduce_to_row0(dbp, g.ln2_b);
  }
  ops::add_(dx1, dout);  // residual

  // Attention block: x1 = x0 + proj(attn(qkv(ln1(x0)))).
  TensorT<T> dctx = alloc_bwd(Shape{rows, hq});
  summa::summa_abt(*mesh_, dx1, p.proj_w, dctx, false, ws());
  summa::summa_atb(*mesh_, a.ctx, dx1, g.proj_w, true, ws());
  {
    TensorT<T> part = alloc_bwd(Shape{hq});
    ops::bias_grad(dx1, part, false);
    reduce_to_row0(part, g.proj_b);
  }
  TensorT<T> dqkv = alloc_bwd(Shape{rows, tq});
  if (options_.fuse_attention) {
    TensorT<T> scratch =
        alloc_bwd(Shape{model::attention_fused_backward_scratch_elems(cfg_.seq_len)});
    model::attention_backward_fused(a.qkv, dctx, batch_local(), cfg_.seq_len, heads_local(),
                                    cfg_.head_dim(), cfg_.causal, dqkv, scratch);
  } else {
    model::attention_backward(a.qkv, a.probs, dctx, batch_local(), cfg_.seq_len,
                              heads_local(), cfg_.head_dim(), dqkv);
  }
  {
    TensorT<T> part = alloc_bwd(Shape{tq});
    ops::bias_grad(dqkv, part, false);
    reduce_to_row0(part, g.qkv_b);
  }
  TensorT<T> dln1 = alloc_bwd(Shape{rows, hq});
  summa::summa_abt(*mesh_, dqkv, p.qkv_w, dln1, false, ws());
  summa::summa_atb(*mesh_, a.ln1_out, dqkv, g.qkv_w, true, ws());
  TensorT<T> din = alloc_bwd(Shape{rows, hq});
  {
    TensorT<T> dgp = alloc_bwd(Shape{hq});
    TensorT<T> dbp = alloc_bwd(Shape{hq});
    dgp.zero();
    dbp.zero();
    layernorm2d_backward(row, a.ln1_xhat, a.ln1_istd, a.ln1_g_bcast, dln1, cfg_.hidden, din,
                         dgp, dbp);
    reduce_to_row0(dgp, g.ln1_g);
    reduce_to_row0(dbp, g.ln1_b);
  }
  ops::add_(din, dx1);  // residual
  return din;
}

template <typename T>
void OptimusTransformer<T>::release_layer(LayerActs& a) {
  TensorT<T> input = a.input;
  a = LayerActs{};
  a.input = input;
}

template <typename T>
const TensorT<T>& OptimusTransformer<T>::forward(const ITensor& tokens) {
  OPT_CHECK(tokens.numel() == cfg_.tokens_per_batch(), "tokens must be the global [b, s]");
  const index_t rows = rows_local();
  const index_t hq = h_local();
  const T eps = static_cast<T>(cfg_.layernorm_eps);

  x0_ = embed(tokens);

  acts_.clear();
  acts_.resize(cfg_.layers);
  TensorT<T> x = x0_;
  for (index_t l = 0; l < cfg_.layers; ++l) {
    acts_[l].input = x;
    if (fwd_) fwd_->reset();
    x = layer_forward(l, acts_[l]);
    if (options_.checkpoint) release_layer(acts_[l]);
  }
  stem_out_ = x;

  final_g_bcast_ = bcast_from_row0(final_ln_g_, TensorT<T>(Shape{hq}));
  final_b_bcast_ = bcast_from_row0(final_ln_b_, TensorT<T>(Shape{hq}));
  hidden_ = TensorT<T>(Shape{rows, hq});
  final_xhat_ = TensorT<T>(Shape{rows, hq});
  final_istd_ = TensorT<T>(Shape{rows});
  layernorm2d_forward(mesh_->row_comm(), stem_out_, final_g_bcast_, final_b_bcast_, eps,
                      cfg_.hidden, hidden_, final_xhat_, final_istd_);
  return hidden_;
}

template <typename T>
TensorT<T> OptimusTransformer<T>::lm_logits_block() {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  TensorT<T> logits(Shape{rows_local(), vocab_local()});
  summa::summa_abt(*mesh_, hidden_, embedding_, logits, false, ws());  // Algorithm 2
  return logits;
}

template <typename T>
void OptimusTransformer<T>::ensure_decode_params() {
  if (decode_params_ready_) return;
  const index_t hq = h_local();
  const index_t fq = cfg_.ffn_hidden() / q();
  const index_t tq = 3 * hq;
  // Persistent heap copies: the forward arena is per-layer scratch, these
  // live across decode steps. Each layer's slices go in layer_forward's order.
  const auto fetch = [&](const TensorT<T>& hosted, index_t n) {
    return bcast_from_row0(hosted, TensorT<T>(Shape{n}));
  };
  decode_hosted_.assign(static_cast<std::size_t>(cfg_.layers), Layer{});
  for (index_t l = 0; l < cfg_.layers; ++l) {
    const Layer& p = layers_[l];
    Layer& c = decode_hosted_[static_cast<std::size_t>(l)];
    c.ln1_g = fetch(p.ln1_g, hq);
    c.ln1_b = fetch(p.ln1_b, hq);
    c.qkv_b = fetch(p.qkv_b, tq);
    c.proj_b = fetch(p.proj_b, hq);
    c.ln2_g = fetch(p.ln2_g, hq);
    c.ln2_b = fetch(p.ln2_b, hq);
    c.fc1_b = fetch(p.fc1_b, fq);
    c.fc2_b = fetch(p.fc2_b, hq);
  }
  decode_pos_ = bcast_from_row0(pos_embedding_, TensorT<T>(Shape{cfg_.seq_len, hq}));
  decode_final_g_ = fetch(final_ln_g_, hq);
  decode_final_b_ = fetch(final_ln_b_, hq);
  decode_params_ready_ = true;
}

template <typename T>
const TensorT<T>& OptimusTransformer<T>::forward_decode(
    const ITensor& tokens, model::KvCacheT<T>& cache,
    const std::vector<std::uint8_t>* active) {
  const int q = mesh_->q();
  const index_t n_global = tokens.numel();
  const index_t nl = cache.slots();  // this row's slot block
  const index_t hq = h_local();
  const index_t vq = vocab_local();
  OPT_CHECK(n_global == nl * q, "decode tokens must be the global slot vector");
  OPT_CHECK(active == nullptr || static_cast<index_t>(active->size()) == n_global,
            "active mask must be the global slot vector");
  OPT_CHECK(cache.layers() == cfg_.layers && cache.heads() == heads_local() &&
                cache.head_dim() == cfg_.head_dim(),
            "kv cache does not match this device's shard");
  cfg_.check_vocab_ids(tokens, /*labels=*/false, "embedding");
  ensure_decode_params();
  const index_t slot0 = static_cast<index_t>(mesh_->row()) * nl;

  // Embedding lookup, Algorithm-1 style but packed: instead of shipping the
  // [v/q, h/q] table block each round, mesh row l packs the rows the current
  // tokens actually need — one [slots, h/q] buffer — and broadcasts that down
  // the column. Each device accumulates only its own slot block, adding
  // exactly one contribution per slot like the prefill embed.
  TensorT<T> x = TensorT<T>::zeros(Shape{nl, hq});
  {
    TensorT<T> buf(Shape{n_global, hq});
    for (int l = 0; l < q; ++l) {
      const index_t v_begin = static_cast<index_t>(l) * vq;
      if (mesh_->row() == l) {
        buf.zero();
        ops::embedding_forward(embedding_, tokens, buf, v_begin);
      }
      mesh_->col_comm().broadcast(buf, /*root=*/l);
      for (index_t r = 0; r < nl; ++r) {
        const index_t tok = tokens[slot0 + r];
        if (tok >= v_begin && tok < v_begin + vq) {
          const T* src = buf.data() + (slot0 + r) * hq;
          T* dst = x.data() + r * hq;
          for (index_t j = 0; j < hq; ++j) dst[j] += src[j];
        }
      }
    }
    model::add_positions(x, decode_pos_, &cache);
  }

  // forward()'s layer body on one row per slot. The SUMMA calls and the
  // ordered-fold layernorm reduction are row-decomposable, so these rows
  // match the full-prefix rows bitwise. Decode never feeds backward.
  for (index_t l = 0; l < cfg_.layers; ++l) {
    if (fwd_) fwd_->reset();
    LayerActs a;
    a.input = x;
    x = layer_forward(l, a, &cache);
  }
  decode_hidden_ = TensorT<T>(Shape{nl, hq});
  TensorT<T> xhat(Shape{nl, hq}), istd(Shape{nl});
  layernorm2d_forward(mesh_->row_comm(), x, decode_final_g_, decode_final_b_,
                      static_cast<T>(cfg_.layernorm_eps), cfg_.hidden, decode_hidden_, xhat,
                      istd);

  if (active == nullptr) {
    cache.advance(nullptr);
  } else {
    std::vector<std::uint8_t> local(active->begin() + slot0, active->begin() + slot0 + nl);
    cache.advance(&local);
  }
  return decode_hidden_;
}

template <typename T>
TensorT<T> OptimusTransformer<T>::lm_logits_decode_block() {
  OPT_CHECK(decode_hidden_.defined(), "call forward_decode() first");
  const index_t nl = decode_hidden_.shape()[0];
  TensorT<T> logits(Shape{nl, vocab_local()});
  tensor::Arena* wsd = nl <= rows_local() ? ws() : nullptr;
  summa::summa_abt(*mesh_, decode_hidden_, embedding_, logits, false, wsd);  // Algorithm 2
  return logits;
}

template <typename T>
T OptimusTransformer<T>::lm_loss(const ITensor& labels) {
  OPT_CHECK(labels.numel() == cfg_.tokens_per_batch(), "labels must be the global [b, s]");
  cfg_.check_vocab_ids(labels, /*labels=*/true, "lm_loss");
  lm_ce_.set_labels(tensor::row_block(labels.reshape(Shape{cfg_.batch, cfg_.seq_len}),
                                      mesh_->q(), mesh_->row()));
  lm_active_ = model::count_labels(labels);

  // Distributed softmax + cross-entropy (§3.2.2): the vocab axis spans a
  // mesh row, the batch axis spans a mesh column.
  const TensorT<T> logits = lm_logits_block();
  T partial = lm_ce_.forward(logits, mesh_->col() * vocab_local(), mesh_->row_comm());
  // Sum the per-batch-block partials down the column (every device in a mesh
  // row already agrees on its row's partial).
  mesh_->col_comm().all_reduce(&partial, 1);
  return lm_active_ > 0 ? partial / static_cast<T>(lm_active_) : T{0};
}

template <typename T>
void OptimusTransformer<T>::backward_lm_fused_update(double lr) {
  OPT_CHECK(options_.fused_update, "engine was not built with options.fused_update");
  OPT_CHECK(lr > 0, "learning rate must be positive");
  fused_lr_ = lr;
  zero_grads();
  backward_lm();
  // Layer weights were updated inside backward_stem; apply the accumulated
  // embedding / hosted-global gradients now.
  const T step = static_cast<T>(lr);
  ops::axpy_(embedding_, -step, d_embedding_);
  d_embedding_.zero();
  if (on_row0()) {
    ops::axpy_(pos_embedding_, -step, d_pos_embedding_);
    d_pos_embedding_.zero();
    ops::axpy_(final_ln_g_, -step, d_final_ln_g_);
    ops::axpy_(final_ln_b_, -step, d_final_ln_b_);
    d_final_ln_g_.zero();
    d_final_ln_b_.zero();
  }
  fused_lr_ = -1.0;
}

template <typename T>
void OptimusTransformer<T>::apply_layer_update(index_t l, double lr) {
  const T step = static_cast<T>(lr);
  Layer& p = layers_[l];
  Layer& g = grads_[l];
  ops::axpy_(p.qkv_w, -step, g.qkv_w);
  ops::axpy_(p.proj_w, -step, g.proj_w);
  ops::axpy_(p.fc1_w, -step, g.fc1_w);
  ops::axpy_(p.fc2_w, -step, g.fc2_w);
  g.qkv_w.zero();
  g.proj_w.zero();
  g.fc1_w.zero();
  g.fc2_w.zero();
  if (on_row0()) {
    const std::initializer_list<std::pair<TensorT<T>*, TensorT<T>*>> hosted = {
        {&p.ln1_g, &g.ln1_g}, {&p.ln1_b, &g.ln1_b}, {&p.ln2_g, &g.ln2_g},
        {&p.ln2_b, &g.ln2_b}, {&p.qkv_b, &g.qkv_b}, {&p.proj_b, &g.proj_b},
        {&p.fc1_b, &g.fc1_b}, {&p.fc2_b, &g.fc2_b}};
    for (const auto& [param, grad] : hosted) {
      ops::axpy_(*param, -step, *grad);
      grad->zero();
    }
  }
}

template <typename T>
void OptimusTransformer<T>::backward_lm() {
  OPT_CHECK(lm_ce_.ready(), "call lm_loss() first");
  OPT_CHECK(!options_.fused_update || fused_lr_ > 0,
            "fused_update engines must train via backward_lm_fused_update()");
  const T scale = lm_active_ > 0 ? T{1} / static_cast<T>(lm_active_) : T{0};
  TensorT<T> dlogits(Shape{rows_local(), vocab_local()});
  lm_ce_.dlogits(scale, dlogits);
  TensorT<T> d_hidden(Shape{rows_local(), h_local()});
  summa::summa_ab(*mesh_, dlogits, embedding_, d_hidden, false, ws());      // Algorithm 1
  summa::summa_atb(*mesh_, dlogits, hidden_, d_embedding_, true, ws());     // Algorithm 3
  backward_stem(std::move(d_hidden));
}

template <typename T>
TensorT<T> OptimusTransformer<T>::cls_logits_block() {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  const index_t bq = batch_local();
  const index_t hq = h_local();
  const index_t c = cfg_.num_classes;
  cls_pooled_ = model::pool_first_tokens(hidden_, cfg_.seq_len);
  cls_w_bcast_ = bcast_from_row0(cls_w_, TensorT<T>(Shape{hq, c}));
  TensorT<T> logits(Shape{bq, c});
  ops::gemm(logits, cls_pooled_, cls_w_bcast_);
  mesh_->row_comm().all_reduce(logits);  // sum the h/q partial products
  ops::add_bias_(logits, bcast_from_row0(cls_b_, TensorT<T>(Shape{c})));
  return logits;
}

template <typename T>
T OptimusTransformer<T>::cls_loss(const ITensor& labels) {
  OPT_CHECK(labels.numel() == cfg_.batch, "cls labels must be the global [b]");
  const index_t bq = batch_local();
  cls_labels_local_ = tensor::row_block(labels, mesh_->q(), mesh_->row());
  TensorT<T> logits = cls_logits_block();
  cls_probs_ = TensorT<T>(logits.shape());
  T partial{0};
  {
    // Sum (not mean) over the local batch block, then sum blocks down the
    // column and normalise by the global batch.
    TensorT<T> probs(logits.shape());
    partial = ops::cross_entropy_forward(logits, cls_labels_local_, probs) *
              static_cast<T>(bq);
    cls_probs_ = probs;
  }
  mesh_->col_comm().all_reduce(&partial, 1);
  return partial / static_cast<T>(cfg_.batch);
}

template <typename T>
void OptimusTransformer<T>::backward_cls() {
  OPT_CHECK(cls_probs_.defined(), "call cls_loss() first");
  OPT_CHECK(!options_.fused_update,
            "fused-update mode supports the LM branch only (backward_lm_fused_update)");
  const index_t bq = batch_local();
  const index_t hq = h_local();
  const index_t c = cfg_.num_classes;
  TensorT<T> dlogits(cls_probs_.shape());
  ops::cross_entropy_backward(cls_probs_, cls_labels_local_,
                              T{1} / static_cast<T>(cfg_.batch), dlogits);
  // Weight slice gradient: sum over all batch blocks → column reduce.
  TensorT<T> dw_part(Shape{hq, c});
  ops::gemm(dw_part, cls_pooled_, dlogits, ops::Trans::Yes, ops::Trans::No, T{1}, T{0});
  reduce_to_row0(dw_part, d_cls_w_);
  TensorT<T> db_part(Shape{c});
  ops::bias_grad(dlogits, db_part, false);
  reduce_to_row0(db_part, d_cls_b_);

  TensorT<T> d_pooled(Shape{bq, hq});
  ops::gemm(d_pooled, dlogits, cls_w_bcast_, ops::Trans::No, ops::Trans::Yes);
  backward_stem(model::scatter_first_tokens(d_pooled, cfg_.seq_len));
}

template <typename T>
void OptimusTransformer<T>::backward_stem(TensorT<T> d_hidden) {
  const index_t rows = rows_local();
  const index_t hq = h_local();

  // Final layernorm backward (conjunction buffer holds dx between layers).
  TensorT<T> conjunction(Shape{rows, hq});
  {
    TensorT<T> dgp = TensorT<T>::zeros(Shape{hq});
    TensorT<T> dbp = TensorT<T>::zeros(Shape{hq});
    layernorm2d_backward(mesh_->row_comm(), final_xhat_, final_istd_, final_g_bcast_,
                         d_hidden, cfg_.hidden, conjunction, dgp, dbp);
    reduce_to_row0(dgp, d_final_ln_g_);
    reduce_to_row0(dbp, d_final_ln_b_);
  }

  for (index_t l = cfg_.layers - 1; l >= 0; --l) {
    if (fwd_) fwd_->reset();
    if (bwd_) bwd_->reset();
    if (!acts_[l].full) {
      // Activation checkpointing: recompute this layer's forward, including
      // its SUMMA communication (the paper's 3× backward/forward comm ratio).
      (void)layer_forward(l, acts_[l]);
    }
    TensorT<T> din = layer_backward(l, acts_[l], conjunction);
    conjunction.copy_from(din);  // §3.2.3: copy out before the buffers reset
    if (fused_lr_ > 0) apply_layer_update(l, fused_lr_);  // §3.2.3 method (2)
    if (options_.checkpoint) release_layer(acts_[l]);
  }
  if (fwd_) fwd_->reset();
  if (bwd_) bwd_->reset();
  d_x0_ = conjunction;

  // Embedding backward: one-hotᵀ × dX0 via Algorithm 3, with the one-hot
  // blocks applied as local scatters and partial tables reduced down columns.
  const int q = mesh_->q();
  const index_t vq = vocab_local();
  {
    std::optional<ArenaScope> scope;
    if (ws_) scope.emplace(*ws_);
    TensorT<T> temp = ws_ ? ws_->template alloc<T>(Shape{vq, hq}) : TensorT<T>(Shape{vq, hq});
    for (int l = 0; l < q; ++l) {
      temp.zero();
      ops::embedding_backward(tokens_local_, d_x0_, temp, l * vq);
      mesh_->col_comm().reduce(temp, /*root=*/l);
      if (mesh_->row() == l) ops::add_(d_embedding_, temp);
    }
    // Positional embedding gradient: batch-sum locally, reduce to row 0.
    TensorT<T> pos_part =
        ws_ ? ws_->template alloc<T>(Shape{cfg_.seq_len, hq}) : TensorT<T>(Shape{cfg_.seq_len, hq});
    pos_part.zero();
    model::add_position_grads(d_x0_, pos_part);
    reduce_to_row0(pos_part, d_pos_embedding_);
  }
}

template <typename T>
void OptimusTransformer<T>::zero_grads() {
  if (options_.fused_update) {
    // Layer gradients alias one shared buffer; zero the distinct tensors.
    d_embedding_.zero();
    Layer& g = grads_[0];
    g.qkv_w.zero();
    g.proj_w.zero();
    g.fc1_w.zero();
    g.fc2_w.zero();
    if (on_row0()) {
      for (auto* t : {&g.ln1_g, &g.ln1_b, &g.ln2_g, &g.ln2_b, &g.qkv_b, &g.proj_b, &g.fc1_b,
                      &g.fc2_b, &d_pos_embedding_, &d_final_ln_g_, &d_final_ln_b_, &d_cls_w_,
                      &d_cls_b_}) {
        t->zero();
      }
    }
    return;
  }
  for (auto* g : gradients()) g->zero();
}

template <typename T>
std::vector<TensorT<T>*> OptimusTransformer<T>::parameters() {
  std::vector<TensorT<T>*> out{&embedding_};
  if (on_row0()) out.push_back(&pos_embedding_);
  for (auto& lp : layers_) {
    out.insert(out.end(), {&lp.qkv_w, &lp.proj_w, &lp.fc1_w, &lp.fc2_w});
    if (on_row0()) {
      out.insert(out.end(), {&lp.ln1_g, &lp.ln1_b, &lp.ln2_g, &lp.ln2_b, &lp.qkv_b, &lp.proj_b,
                             &lp.fc1_b, &lp.fc2_b});
    }
  }
  if (on_row0()) out.insert(out.end(), {&final_ln_g_, &final_ln_b_, &cls_w_, &cls_b_});
  return out;
}

template <typename T>
std::vector<TensorT<T>*> OptimusTransformer<T>::gradients() {
  OPT_CHECK(!options_.fused_update,
            "gradients() is unavailable in fused-update mode: layer gradients share one "
            "buffer and are consumed inside backward_lm_fused_update()");
  std::vector<TensorT<T>*> out{&d_embedding_};
  if (on_row0()) out.push_back(&d_pos_embedding_);
  for (auto& lg : grads_) {
    out.insert(out.end(), {&lg.qkv_w, &lg.proj_w, &lg.fc1_w, &lg.fc2_w});
    if (on_row0()) {
      out.insert(out.end(), {&lg.ln1_g, &lg.ln1_b, &lg.ln2_g, &lg.ln2_b, &lg.qkv_b, &lg.proj_b,
                             &lg.fc1_b, &lg.fc2_b});
    }
  }
  if (on_row0()) out.insert(out.end(), {&d_final_ln_g_, &d_final_ln_b_, &d_cls_w_, &d_cls_b_});
  return out;
}

template class OptimusTransformer<float>;
template class OptimusTransformer<double>;

}  // namespace optimus::core
