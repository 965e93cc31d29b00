#include "megatron/megatron_model.hpp"

#include "model/attention.hpp"
#include "model/param_init.hpp"

namespace optimus::megatron {

namespace {

using tensor::index_t;
using tensor::ITensor;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;
using model::LayerWeight;

}  // namespace

template <typename T>
MegatronTransformer<T>::MegatronTransformer(const model::TransformerConfig& cfg,
                                            comm::Communicator& comm, bool checkpoint)
    : cfg_(cfg), comm_(&comm), checkpoint_(checkpoint) {
  cfg_.validate_for_1d(comm.size());
  heads_local_ = cfg_.heads / p();
  qkv_cols_ = 3 * cfg_.hidden / p();
  ffn_local_ = cfg_.ffn_hidden() / p();
  init_parameters();
}

template <typename T>
void MegatronTransformer<T>::init_parameters() {
  const index_t h = cfg_.hidden;
  const index_t f = cfg_.ffn_hidden();
  const index_t v = cfg_.vocab;
  const index_t s = cfg_.seq_len;
  const index_t c = cfg_.num_classes;
  const int rank = comm_->rank();
  const util::CounterRng rng(cfg_.seed);
  const T scale = static_cast<T>(cfg_.init_scale);

  // Vocab-parallel embedding: rows [rank·v/p, (rank+1)·v/p).
  embedding_ = TensorT<T>(Shape{v / p(), h});
  ops::fill_counter_uniform(embedding_, rng, model::kEmbeddingStream, scale,
                            rank * (v / p()), 0, h);
  d_embedding_ = TensorT<T>::zeros(embedding_.shape());
  pos_embedding_ = TensorT<T>(Shape{s, h});
  ops::fill_counter_uniform(pos_embedding_, rng, model::kPosEmbeddingStream, scale, 0, 0, h);
  d_pos_embedding_ = TensorT<T>::zeros(pos_embedding_.shape());

  layers_.resize(cfg_.layers);
  grads_.resize(cfg_.layers);
  for (index_t l = 0; l < cfg_.layers; ++l) {
    Layer& lp = layers_[l];
    lp.ln1_g = TensorT<T>::full(Shape{h}, T{1});
    lp.ln1_b = TensorT<T>::zeros(Shape{h});
    lp.ln2_g = TensorT<T>::full(Shape{h}, T{1});
    lp.ln2_b = TensorT<T>::zeros(Shape{h});
    // Column-split QKV: global columns [rank·3h/p, (rank+1)·3h/p) — whole
    // heads thanks to the head-major layout.
    lp.qkv_w = TensorT<T>(Shape{h, qkv_cols_});
    ops::fill_counter_uniform(lp.qkv_w, rng, model::layer_weight_stream(l, LayerWeight::kQkv),
                              scale, 0, rank * qkv_cols_, 3 * h);
    lp.qkv_b = TensorT<T>::zeros(Shape{qkv_cols_});
    // Row-split projection: global rows [rank·h/p, ...).
    lp.proj_w = TensorT<T>(Shape{h / p(), h});
    ops::fill_counter_uniform(lp.proj_w, rng,
                              model::layer_weight_stream(l, LayerWeight::kProj), scale,
                              rank * (h / p()), 0, h);
    lp.proj_b = TensorT<T>::zeros(Shape{h});
    lp.fc1_w = TensorT<T>(Shape{h, ffn_local_});
    ops::fill_counter_uniform(lp.fc1_w, rng, model::layer_weight_stream(l, LayerWeight::kFc1),
                              scale, 0, rank * ffn_local_, f);
    lp.fc1_b = TensorT<T>::zeros(Shape{ffn_local_});
    lp.fc2_w = TensorT<T>(Shape{ffn_local_, h});
    ops::fill_counter_uniform(lp.fc2_w, rng, model::layer_weight_stream(l, LayerWeight::kFc2),
                              scale, rank * ffn_local_, 0, h);
    lp.fc2_b = TensorT<T>::zeros(Shape{h});

    Layer& lg = grads_[l];
    lg.ln1_g = TensorT<T>::zeros(Shape{h});
    lg.ln1_b = TensorT<T>::zeros(Shape{h});
    lg.ln2_g = TensorT<T>::zeros(Shape{h});
    lg.ln2_b = TensorT<T>::zeros(Shape{h});
    lg.qkv_w = TensorT<T>::zeros(lp.qkv_w.shape());
    lg.qkv_b = TensorT<T>::zeros(lp.qkv_b.shape());
    lg.proj_w = TensorT<T>::zeros(lp.proj_w.shape());
    lg.proj_b = TensorT<T>::zeros(lp.proj_b.shape());
    lg.fc1_w = TensorT<T>::zeros(lp.fc1_w.shape());
    lg.fc1_b = TensorT<T>::zeros(lp.fc1_b.shape());
    lg.fc2_w = TensorT<T>::zeros(lp.fc2_w.shape());
    lg.fc2_b = TensorT<T>::zeros(lp.fc2_b.shape());
  }

  final_ln_g_ = TensorT<T>::full(Shape{h}, T{1});
  final_ln_b_ = TensorT<T>::zeros(Shape{h});
  d_final_ln_g_ = TensorT<T>::zeros(Shape{h});
  d_final_ln_b_ = TensorT<T>::zeros(Shape{h});
  cls_w_ = TensorT<T>(Shape{h, c});
  ops::fill_counter_uniform(cls_w_, rng, model::kClsHeadStream, scale, 0, 0, c);
  cls_b_ = TensorT<T>::zeros(Shape{c});
  d_cls_w_ = TensorT<T>::zeros(Shape{h, c});
  d_cls_b_ = TensorT<T>::zeros(Shape{c});
}

template <typename T>
TensorT<T> MegatronTransformer<T>::embed(const ITensor& tokens,
                                         const model::KvCacheT<T>* cache) {
  cfg_.check_vocab_ids(tokens, /*labels=*/false, "embedding");
  // Each rank contributes rows for tokens in its vocab slice; the all-reduce
  // assembles the full embedding (Megatron's VocabParallelEmbedding). The
  // contributions are disjoint (one rank's row plus zeros), so any fold
  // order gives the same bits and decode rows match prefill rows.
  TensorT<T> x = TensorT<T>::zeros(Shape{tokens.numel(), cfg_.hidden});
  ops::embedding_forward(embedding_, tokens, x, vocab_begin());
  comm_->all_reduce(x);
  model::add_positions(x, pos_embedding_, cache);  // replicated table
  return x;
}

template <typename T>
TensorT<T> MegatronTransformer<T>::layer_forward(index_t l, LayerActs& a,
                                                 model::KvCacheT<T>* cache) {
  const index_t h = cfg_.hidden;
  const index_t rows = a.input.size(0);
  const T eps = static_cast<T>(cfg_.layernorm_eps);
  Layer& p = layers_[l];

  a.ln1_out = TensorT<T>(Shape{rows, h});
  a.ln1_xhat = TensorT<T>(Shape{rows, h});
  a.ln1_istd = TensorT<T>(Shape{rows});
  ops::layernorm_forward(a.input, p.ln1_g, p.ln1_b, eps, a.ln1_out, a.ln1_xhat, a.ln1_istd);

  // Column-parallel QKV: no reduce between the GEMM and its bias, so the
  // bias fuses into the GEMM epilogue.
  a.qkv = TensorT<T>(Shape{rows, qkv_cols_});
  ops::gemm_bias(a.qkv, a.ln1_out, p.qkv_w, p.qkv_b);

  a.ctx = TensorT<T>(Shape{rows, h / this->p()});
  if (cache != nullptr) {
    model::attention_decode(a.qkv, rows, heads_local_, cfg_.head_dim(), *cache, l, a.ctx);
  } else {
    a.probs = TensorT<T>(Shape{cfg_.batch * heads_local_, cfg_.seq_len, cfg_.seq_len});
    model::attention_forward(a.qkv, cfg_.batch, cfg_.seq_len, heads_local_, cfg_.head_dim(),
                             cfg_.causal, a.ctx, a.probs);
  }

  // Row-parallel projection: partial result then all-reduce (the paper's
  // forward g-operator). The bias must apply once, *after* the reduce, so it
  // cannot fuse into the local GEMM — bias+residual fuse into one pass.
  a.x1 = TensorT<T>(Shape{rows, h});
  ops::gemm(a.x1, a.ctx, p.proj_w);
  comm_->all_reduce_ordered(a.x1);  // ordered fold: decode must match prefill
  ops::bias_residual_(a.x1, p.proj_b, a.input);

  a.ln2_out = TensorT<T>(Shape{rows, h});
  a.ln2_xhat = TensorT<T>(Shape{rows, h});
  a.ln2_istd = TensorT<T>(Shape{rows});
  ops::layernorm_forward(a.x1, p.ln2_g, p.ln2_b, eps, a.ln2_out, a.ln2_xhat, a.ln2_istd);

  // Column-parallel fc1: bias+GELU fused into the GEMM epilogue (fc1_out
  // keeps the biased pre-activation for backward).
  a.fc1_out = TensorT<T>(Shape{rows, ffn_local_});
  a.gelu_out = TensorT<T>(Shape{rows, ffn_local_});
  ops::gemm_bias_gelu(a.gelu_out, a.fc1_out, a.ln2_out, p.fc1_w, p.fc1_b);

  // Row-parallel fc2: reduce first, then fused bias+residual.
  TensorT<T> out(Shape{rows, h});
  ops::gemm(out, a.gelu_out, p.fc2_w);
  comm_->all_reduce_ordered(out);  // ordered fold: decode must match prefill
  ops::bias_residual_(out, p.fc2_b, a.x1);
  a.full = true;
  return out;
}

template <typename T>
TensorT<T> MegatronTransformer<T>::layer_backward(index_t l, LayerActs& a,
                                                  const TensorT<T>& dout) {
  const index_t h = cfg_.hidden;
  const index_t bs = cfg_.tokens_per_batch();
  Layer& p = layers_[l];
  Layer& g = grads_[l];

  // MLP block.
  TensorT<T> dg(Shape{bs, ffn_local_});
  ops::gemm(dg, dout, p.fc2_w, ops::Trans::No, ops::Trans::Yes);
  ops::gemm(g.fc2_w, a.gelu_out, dout, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dout, g.fc2_b, /*accumulate=*/true);
  TensorT<T> dm1(Shape{bs, ffn_local_});
  ops::gelu_backward(a.fc1_out, dg, dm1, /*accumulate=*/false);
  TensorT<T> dln2(Shape{bs, h});
  ops::gemm(dln2, dm1, p.fc1_w, ops::Trans::No, ops::Trans::Yes);
  comm_->all_reduce(dln2);  // backward f-operator of the column-parallel fc1
  ops::gemm(g.fc1_w, a.ln2_out, dm1, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dm1, g.fc1_b, /*accumulate=*/true);
  TensorT<T> dx1(Shape{bs, h});
  ops::layernorm_backward(a.ln2_xhat, a.ln2_istd, p.ln2_g, dln2, dx1, g.ln2_g, g.ln2_b, true);
  ops::add_(dx1, dout);

  // Attention block.
  TensorT<T> dctx(Shape{bs, h / this->p()});
  ops::gemm(dctx, dx1, p.proj_w, ops::Trans::No, ops::Trans::Yes);
  ops::gemm(g.proj_w, a.ctx, dx1, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dx1, g.proj_b, /*accumulate=*/true);
  TensorT<T> dqkv(Shape{bs, qkv_cols_});
  model::attention_backward(a.qkv, a.probs, dctx, cfg_.batch, cfg_.seq_len, heads_local_,
                            cfg_.head_dim(), dqkv);
  TensorT<T> dln1(Shape{bs, h});
  ops::gemm(dln1, dqkv, p.qkv_w, ops::Trans::No, ops::Trans::Yes);
  comm_->all_reduce(dln1);  // backward f-operator of the column-parallel qkv
  ops::gemm(g.qkv_w, a.ln1_out, dqkv, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dqkv, g.qkv_b, /*accumulate=*/true);
  TensorT<T> din(Shape{bs, h});
  ops::layernorm_backward(a.ln1_xhat, a.ln1_istd, p.ln1_g, dln1, din, g.ln1_g, g.ln1_b, true);
  ops::add_(din, dx1);
  return din;
}

template <typename T>
const TensorT<T>& MegatronTransformer<T>::forward(const ITensor& tokens) {
  OPT_CHECK(tokens.numel() == cfg_.tokens_per_batch(), "tokens must be [b, s]");
  tokens_ = tokens.clone();
  x0_ = embed(tokens_, nullptr);

  acts_.clear();
  acts_.resize(cfg_.layers);
  TensorT<T> x = x0_;
  for (index_t l = 0; l < cfg_.layers; ++l) {
    acts_[l].input = x;
    x = layer_forward(l, acts_[l]);
    if (checkpoint_) {
      // Keep only the checkpointed input; drop intermediate activations.
      LayerActs fresh;
      fresh.input = acts_[l].input;
      acts_[l] = std::move(fresh);
    }
  }
  stem_out_ = x;

  const index_t bs = cfg_.tokens_per_batch();
  hidden_ = TensorT<T>(Shape{bs, cfg_.hidden});
  final_xhat_ = TensorT<T>(Shape{bs, cfg_.hidden});
  final_istd_ = TensorT<T>(Shape{bs});
  ops::layernorm_forward(stem_out_, final_ln_g_, final_ln_b_,
                         static_cast<T>(cfg_.layernorm_eps), hidden_, final_xhat_,
                         final_istd_);
  return hidden_;
}

template <typename T>
const TensorT<T>& MegatronTransformer<T>::forward_decode(
    const ITensor& tokens, model::KvCacheT<T>& cache,
    const std::vector<std::uint8_t>* active) {
  const index_t n = tokens.numel();  // cache slots
  const index_t h = cfg_.hidden;
  OPT_CHECK(n == cache.slots(), "decode tokens must be one per cache slot");
  OPT_CHECK(cache.layers() == cfg_.layers && cache.heads() == heads_local_ &&
                cache.head_dim() == cfg_.head_dim(),
            "kv cache does not match this rank's shard");

  // forward()'s embedding and layer bodies on one row per slot; the two
  // row-parallel all-reduces use the ordered fold, so decode rows match the
  // prefill rows bitwise. Nothing is retained: decode never feeds backward.
  TensorT<T> x = embed(tokens, &cache);
  for (index_t l = 0; l < cfg_.layers; ++l) {
    LayerActs a;
    a.input = x;
    x = layer_forward(l, a, &cache);
  }
  decode_hidden_ = TensorT<T>(Shape{n, h});
  TensorT<T> xhat(Shape{n, h}), istd(Shape{n});
  ops::layernorm_forward(x, final_ln_g_, final_ln_b_, static_cast<T>(cfg_.layernorm_eps),
                         decode_hidden_, xhat, istd);
  cache.advance(active);
  return decode_hidden_;
}

template <typename T>
TensorT<T> MegatronTransformer<T>::lm_logits_decode_local() {
  OPT_CHECK(decode_hidden_.defined(), "call forward_decode() first");
  return ops::matmul(decode_hidden_, embedding_, ops::Trans::No, ops::Trans::Yes);
}

template <typename T>
T MegatronTransformer<T>::lm_loss(const ITensor& labels) {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  OPT_CHECK(labels.numel() == cfg_.tokens_per_batch(), "labels must be [b, s]");
  cfg_.check_vocab_ids(labels, /*labels=*/true, "lm_loss");
  lm_ce_.set_labels(labels.clone());
  lm_active_ = model::count_labels(labels);
  // Local logits against this rank's vocab slice (tied weights).
  const TensorT<T> logits = ops::matmul(hidden_, embedding_, ops::Trans::No, ops::Trans::Yes);
  const T loss = lm_ce_.forward(logits, vocab_begin(), *comm_);
  return lm_active_ > 0 ? loss / static_cast<T>(lm_active_) : T{0};
}

template <typename T>
void MegatronTransformer<T>::backward_lm() {
  OPT_CHECK(lm_ce_.ready(), "call lm_loss() first");
  const T scale = lm_active_ > 0 ? T{1} / static_cast<T>(lm_active_) : T{0};
  TensorT<T> dlogits(Shape{cfg_.tokens_per_batch(), vocab_per_rank()});
  lm_ce_.dlogits(scale, dlogits);
  // dX partial from this vocab slice, then all-reduce.
  TensorT<T> d_hidden(Shape{cfg_.tokens_per_batch(), cfg_.hidden});
  ops::gemm(d_hidden, dlogits, embedding_);
  comm_->all_reduce(d_hidden);
  // Tied-weight gradient into the local embedding slice.
  ops::gemm(d_embedding_, dlogits, hidden_, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  backward_stem(std::move(d_hidden));
}

template <typename T>
T MegatronTransformer<T>::cls_loss(const ITensor& labels) {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  OPT_CHECK(labels.numel() == cfg_.batch, "cls labels must be [b]");
  cls_labels_ = labels.clone();
  cls_pooled_ = model::pool_first_tokens(hidden_, cfg_.seq_len);
  TensorT<T> logits(Shape{cfg_.batch, cfg_.num_classes});
  ops::gemm_bias(logits, cls_pooled_, cls_w_, cls_b_);
  cls_probs_ = TensorT<T>(logits.shape());
  return ops::cross_entropy_forward(logits, cls_labels_, cls_probs_);
}

template <typename T>
void MegatronTransformer<T>::backward_cls() {
  OPT_CHECK(cls_probs_.defined(), "call cls_loss() first");
  const index_t b = cfg_.batch;
  const index_t h = cfg_.hidden;
  TensorT<T> dlogits(cls_probs_.shape());
  ops::cross_entropy_backward(cls_probs_, cls_labels_, T{1} / static_cast<T>(b), dlogits);
  ops::gemm(d_cls_w_, cls_pooled_, dlogits, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dlogits, d_cls_b_, true);
  TensorT<T> d_pooled(Shape{b, h});
  ops::gemm(d_pooled, dlogits, cls_w_, ops::Trans::No, ops::Trans::Yes);
  backward_stem(model::scatter_first_tokens(d_pooled, cfg_.seq_len));
}

template <typename T>
void MegatronTransformer<T>::backward_stem(TensorT<T> d_hidden) {
  const index_t bs = cfg_.tokens_per_batch();
  const index_t h = cfg_.hidden;

  TensorT<T> dx(Shape{bs, h});
  ops::layernorm_backward(final_xhat_, final_istd_, final_ln_g_, d_hidden, dx, d_final_ln_g_,
                          d_final_ln_b_, true);

  for (index_t l = cfg_.layers - 1; l >= 0; --l) {
    if (!acts_[l].full) {
      // Activation checkpointing: recompute this layer's forward (including
      // its two all-reduces — the paper's 21bsh backward term).
      (void)layer_forward(l, acts_[l]);
    }
    dx = layer_backward(l, acts_[l], dx);
    if (checkpoint_) {
      LayerActs fresh;
      fresh.input = acts_[l].input;
      acts_[l] = std::move(fresh);  // free recomputed activations immediately
    }
  }
  d_x0_ = dx;

  // Embedding gradients: only this rank's vocab rows.
  ops::embedding_backward(tokens_, d_x0_, d_embedding_, vocab_begin());
  model::add_position_grads(d_x0_, d_pos_embedding_);
}

template <typename T>
void MegatronTransformer<T>::zero_grads() {
  for (auto* g : gradients()) g->zero();
}

template <typename T>
std::vector<TensorT<T>*> MegatronTransformer<T>::parameters() {
  std::vector<TensorT<T>*> out{&embedding_, &pos_embedding_};
  for (auto& lp : layers_) {
    out.insert(out.end(), {&lp.ln1_g, &lp.ln1_b, &lp.qkv_w, &lp.qkv_b, &lp.proj_w, &lp.proj_b,
                           &lp.ln2_g, &lp.ln2_b, &lp.fc1_w, &lp.fc1_b, &lp.fc2_w, &lp.fc2_b});
  }
  out.insert(out.end(), {&final_ln_g_, &final_ln_b_, &cls_w_, &cls_b_});
  return out;
}

template <typename T>
std::vector<TensorT<T>*> MegatronTransformer<T>::gradients() {
  std::vector<TensorT<T>*> out{&d_embedding_, &d_pos_embedding_};
  for (auto& lg : grads_) {
    out.insert(out.end(), {&lg.ln1_g, &lg.ln1_b, &lg.qkv_w, &lg.qkv_b, &lg.proj_w, &lg.proj_b,
                           &lg.ln2_g, &lg.ln2_b, &lg.fc1_w, &lg.fc1_b, &lg.fc2_w, &lg.fc2_b});
  }
  out.insert(out.end(), {&d_final_ln_g_, &d_final_ln_b_, &d_cls_w_, &d_cls_b_});
  return out;
}

template class MegatronTransformer<float>;
template class MegatronTransformer<double>;

}  // namespace optimus::megatron
