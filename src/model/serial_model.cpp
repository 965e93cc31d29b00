#include "model/serial_model.hpp"

#include "model/attention.hpp"
#include "model/head.hpp"
#include "model/param_init.hpp"
#include "util/rng.hpp"

namespace optimus::model {

namespace {

using tensor::index_t;
using tensor::ITensor;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;

}  // namespace

template <typename T>
SerialTransformer<T>::SerialTransformer(const TransformerConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  init_parameters();
}

template <typename T>
void SerialTransformer<T>::init_parameters() {
  const index_t h = cfg_.hidden;
  const index_t f = cfg_.ffn_hidden();
  const index_t v = cfg_.vocab;
  const index_t s = cfg_.seq_len;
  const index_t c = cfg_.num_classes;
  const util::CounterRng rng(cfg_.seed);
  const T scale = static_cast<T>(cfg_.init_scale);

  embedding_ = TensorT<T>(Shape{v, h});
  ops::fill_counter_uniform(embedding_, rng, kEmbeddingStream, scale, 0, 0, h);
  d_embedding_ = TensorT<T>::zeros(Shape{v, h});
  pos_embedding_ = TensorT<T>(Shape{s, h});
  ops::fill_counter_uniform(pos_embedding_, rng, kPosEmbeddingStream, scale, 0, 0, h);
  d_pos_embedding_ = TensorT<T>::zeros(Shape{s, h});

  layers_.resize(cfg_.layers);
  grads_.resize(cfg_.layers);
  for (index_t l = 0; l < cfg_.layers; ++l) {
    LayerParams<T>& p = layers_[l];
    p.ln1_g = TensorT<T>::full(Shape{h}, T{1});
    p.ln1_b = TensorT<T>::zeros(Shape{h});
    p.qkv_w = TensorT<T>(Shape{h, 3 * h});
    ops::fill_counter_uniform(p.qkv_w, rng, layer_weight_stream(l, LayerWeight::kQkv), scale,
                              0, 0, 3 * h);
    p.qkv_b = TensorT<T>::zeros(Shape{3 * h});
    p.proj_w = TensorT<T>(Shape{h, h});
    ops::fill_counter_uniform(p.proj_w, rng, layer_weight_stream(l, LayerWeight::kProj), scale,
                              0, 0, h);
    p.proj_b = TensorT<T>::zeros(Shape{h});
    p.ln2_g = TensorT<T>::full(Shape{h}, T{1});
    p.ln2_b = TensorT<T>::zeros(Shape{h});
    p.fc1_w = TensorT<T>(Shape{h, f});
    ops::fill_counter_uniform(p.fc1_w, rng, layer_weight_stream(l, LayerWeight::kFc1), scale,
                              0, 0, f);
    p.fc1_b = TensorT<T>::zeros(Shape{f});
    p.fc2_w = TensorT<T>(Shape{f, h});
    ops::fill_counter_uniform(p.fc2_w, rng, layer_weight_stream(l, LayerWeight::kFc2), scale,
                              0, 0, h);
    p.fc2_b = TensorT<T>::zeros(Shape{h});

    LayerParams<T>& g = grads_[l];
    g.ln1_g = TensorT<T>::zeros(Shape{h});
    g.ln1_b = TensorT<T>::zeros(Shape{h});
    g.qkv_w = TensorT<T>::zeros(Shape{h, 3 * h});
    g.qkv_b = TensorT<T>::zeros(Shape{3 * h});
    g.proj_w = TensorT<T>::zeros(Shape{h, h});
    g.proj_b = TensorT<T>::zeros(Shape{h});
    g.ln2_g = TensorT<T>::zeros(Shape{h});
    g.ln2_b = TensorT<T>::zeros(Shape{h});
    g.fc1_w = TensorT<T>::zeros(Shape{h, f});
    g.fc1_b = TensorT<T>::zeros(Shape{f});
    g.fc2_w = TensorT<T>::zeros(Shape{f, h});
    g.fc2_b = TensorT<T>::zeros(Shape{h});
  }

  final_ln_g_ = TensorT<T>::full(Shape{h}, T{1});
  final_ln_b_ = TensorT<T>::zeros(Shape{h});
  d_final_ln_g_ = TensorT<T>::zeros(Shape{h});
  d_final_ln_b_ = TensorT<T>::zeros(Shape{h});

  cls_w_ = TensorT<T>(Shape{h, c});
  ops::fill_counter_uniform(cls_w_, rng, kClsHeadStream, scale, 0, 0, c);
  cls_b_ = TensorT<T>::zeros(Shape{c});
  d_cls_w_ = TensorT<T>::zeros(Shape{h, c});
  d_cls_b_ = TensorT<T>::zeros(Shape{c});
}

template <typename T>
TensorT<T> SerialTransformer<T>::embed(const ITensor& tokens, const KvCacheT<T>* cache) const {
  cfg_.check_vocab_ids(tokens, /*labels=*/false, "embedding");
  TensorT<T> x(Shape{tokens.numel(), cfg_.hidden});
  ops::embedding_forward(embedding_, tokens, x);
  add_positions(x, pos_embedding_, cache);
  return x;
}

template <typename T>
TensorT<T> SerialTransformer<T>::layer_forward(index_t l, LayerActs& a, KvCacheT<T>* cache) {
  const index_t rows = a.input.size(0);
  const index_t h = cfg_.hidden;
  const index_t f = cfg_.ffn_hidden();
  const T eps = static_cast<T>(cfg_.layernorm_eps);
  LayerParams<T>& p = layers_[l];

  // LN1
  a.ln1_out = TensorT<T>(Shape{rows, h});
  a.ln1_xhat = TensorT<T>(Shape{rows, h});
  a.ln1_istd = TensorT<T>(Shape{rows});
  ops::layernorm_forward(a.input, p.ln1_g, p.ln1_b, eps, a.ln1_out, a.ln1_xhat, a.ln1_istd);

  // Fused QKV projection (bias applied in the GEMM epilogue).
  a.qkv = TensorT<T>(Shape{rows, 3 * h});
  ops::gemm_bias(a.qkv, a.ln1_out, p.qkv_w, p.qkv_b);

  // Local attention.
  a.ctx = TensorT<T>(Shape{rows, h});
  if (cache != nullptr) {
    attention_decode(a.qkv, rows, cfg_.heads, cfg_.head_dim(), *cache, l, a.ctx);
  } else {
    a.probs = TensorT<T>(Shape{cfg_.batch * cfg_.heads, cfg_.seq_len, cfg_.seq_len});
    attention_forward(a.qkv, cfg_.batch, cfg_.seq_len, cfg_.heads, cfg_.head_dim(),
                      cfg_.causal, a.ctx, a.probs);
  }

  // Output projection + bias + residual, one fused GEMM.
  a.x1 = TensorT<T>(Shape{rows, h});
  ops::gemm_bias_residual(a.x1, a.ctx, p.proj_w, p.proj_b, a.input);

  // LN2 + MLP + residual.
  a.ln2_out = TensorT<T>(Shape{rows, h});
  a.ln2_xhat = TensorT<T>(Shape{rows, h});
  a.ln2_istd = TensorT<T>(Shape{rows});
  ops::layernorm_forward(a.x1, p.ln2_g, p.ln2_b, eps, a.ln2_out, a.ln2_xhat, a.ln2_istd);
  // h→4h with bias+GELU fused into the GEMM epilogue (fc1_out keeps the
  // biased pre-activation for backward), then 4h→h with bias+residual.
  a.fc1_out = TensorT<T>(Shape{rows, f});
  a.gelu_out = TensorT<T>(Shape{rows, f});
  ops::gemm_bias_gelu(a.gelu_out, a.fc1_out, a.ln2_out, p.fc1_w, p.fc1_b);
  TensorT<T> out(Shape{rows, h});
  ops::gemm_bias_residual(out, a.gelu_out, p.fc2_w, p.fc2_b, a.x1);
  return out;
}

template <typename T>
const TensorT<T>& SerialTransformer<T>::forward(const ITensor& tokens) {
  const index_t bs = cfg_.tokens_per_batch();
  const index_t h = cfg_.hidden;
  const T eps = static_cast<T>(cfg_.layernorm_eps);
  OPT_CHECK(tokens.numel() == bs, "tokens must be [b, s] = " << bs << " entries");
  tokens_ = tokens.clone();
  x0_ = embed(tokens_, nullptr);

  acts_.clear();
  acts_.resize(cfg_.layers);
  TensorT<T> x = x0_;
  for (index_t l = 0; l < cfg_.layers; ++l) {
    acts_[l].input = x;
    x = layer_forward(l, acts_[l]);
  }
  stem_out_ = x;

  // Final layernorm.
  hidden_ = TensorT<T>(Shape{bs, h});
  final_xhat_ = TensorT<T>(Shape{bs, h});
  final_istd_ = TensorT<T>(Shape{bs});
  ops::layernorm_forward(stem_out_, final_ln_g_, final_ln_b_, eps, hidden_, final_xhat_,
                         final_istd_);
  return hidden_;
}

template <typename T>
tensor::TensorT<T> SerialTransformer<T>::lm_logits() {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  // Tied weights: logits = X·Eᵀ.
  return ops::matmul(hidden_, embedding_, ops::Trans::No, ops::Trans::Yes);
}

template <typename T>
const TensorT<T>& SerialTransformer<T>::forward_decode(const ITensor& tokens,
                                                       KvCacheT<T>& cache,
                                                       const std::vector<std::uint8_t>* active) {
  const index_t n = tokens.numel();  // cache slots
  const index_t h = cfg_.hidden;
  OPT_CHECK(n == cache.slots(), "decode tokens must be one per cache slot");
  OPT_CHECK(cache.layers() == cfg_.layers && cache.heads() == cfg_.heads &&
                cache.head_dim() == cfg_.head_dim(),
            "kv cache does not match model config");

  // forward()'s embedding and layer bodies on one row per slot. Every op is
  // row-decomposable (LN is per-row, each GEMM output element is one k-order
  // fold, attention is per (slot, head)), so the result matches the
  // full-prefix rows bitwise. Decode never feeds backward: nothing is kept.
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
tensor::TensorT<T> SerialTransformer<T>::lm_logits_decode() {
  OPT_CHECK(decode_hidden_.defined(), "call forward_decode() first");
  return ops::matmul(decode_hidden_, embedding_, ops::Trans::No, ops::Trans::Yes);
}

template <typename T>
T SerialTransformer<T>::lm_loss(const ITensor& labels) {
  OPT_CHECK(labels.numel() == cfg_.tokens_per_batch(), "labels must be [b, s]");
  cfg_.check_vocab_ids(labels, /*labels=*/true, "lm_loss");
  lm_labels_ = labels.clone();
  TensorT<T> logits = lm_logits();
  lm_probs_ = TensorT<T>(logits.shape());
  lm_active_ = count_labels(labels);
  return ops::cross_entropy_forward(logits, lm_labels_, lm_probs_);
}

template <typename T>
void SerialTransformer<T>::backward_lm() {
  OPT_CHECK(lm_probs_.defined(), "call lm_loss() first");
  const index_t bs = cfg_.tokens_per_batch();
  const T scale = lm_active_ > 0 ? T{1} / static_cast<T>(lm_active_) : T{0};
  TensorT<T> dlogits(lm_probs_.shape());
  ops::cross_entropy_backward(lm_probs_, lm_labels_, scale, dlogits);
  // logits = X·Eᵀ  ⇒  dX = dlogits·E, dE += dlogitsᵀ·X.
  TensorT<T> d_hidden(Shape{bs, cfg_.hidden});
  ops::gemm(d_hidden, dlogits, embedding_);
  ops::gemm(d_embedding_, dlogits, hidden_, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  backward_stem(std::move(d_hidden));
}

template <typename T>
tensor::TensorT<T> SerialTransformer<T>::cls_logits() {
  OPT_CHECK(hidden_.defined(), "call forward() first");
  cls_pooled_ = pool_first_tokens(hidden_, cfg_.seq_len);
  TensorT<T> logits(Shape{cfg_.batch, cfg_.num_classes});
  ops::gemm_bias(logits, cls_pooled_, cls_w_, cls_b_);
  return logits;
}

template <typename T>
T SerialTransformer<T>::cls_loss(const ITensor& labels) {
  OPT_CHECK(labels.numel() == cfg_.batch, "cls labels must be [b]");
  cls_labels_ = labels.clone();
  TensorT<T> logits = cls_logits();
  cls_probs_ = TensorT<T>(logits.shape());
  return ops::cross_entropy_forward(logits, cls_labels_, cls_probs_);
}

template <typename T>
void SerialTransformer<T>::backward_cls() {
  OPT_CHECK(cls_probs_.defined(), "call cls_loss() first");
  const index_t b = cfg_.batch;
  const index_t h = cfg_.hidden;
  TensorT<T> dlogits(cls_probs_.shape());
  ops::cross_entropy_backward(cls_probs_, cls_labels_, T{1} / static_cast<T>(b), dlogits);
  // logits = pooled·W + b.
  ops::gemm(d_cls_w_, cls_pooled_, dlogits, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
  ops::bias_grad(dlogits, d_cls_b_, /*accumulate=*/true);
  TensorT<T> d_pooled(Shape{b, h});
  ops::gemm(d_pooled, dlogits, cls_w_, ops::Trans::No, ops::Trans::Yes);
  backward_stem(scatter_first_tokens(d_pooled, cfg_.seq_len));
}

template <typename T>
void SerialTransformer<T>::backward_stem(TensorT<T> d_hidden) {
  const index_t b = cfg_.batch;
  const index_t s = cfg_.seq_len;
  const index_t h = cfg_.hidden;
  const index_t f = cfg_.ffn_hidden();
  const index_t bs = b * s;

  // Final layernorm.
  TensorT<T> dx(Shape{bs, h});
  ops::layernorm_backward(final_xhat_, final_istd_, final_ln_g_, d_hidden, dx, d_final_ln_g_,
                          d_final_ln_b_, /*accumulate_params=*/true);

  for (index_t l = cfg_.layers - 1; l >= 0; --l) {
    LayerParams<T>& p = layers_[l];
    LayerParams<T>& g = grads_[l];
    LayerActs& a = acts_[l];

    // MLP: x2 = x1 + fc2(gelu(fc1(ln2(x1)))).
    TensorT<T> dg(Shape{bs, f});
    ops::gemm(dg, dx, p.fc2_w, ops::Trans::No, ops::Trans::Yes);
    ops::gemm(g.fc2_w, a.gelu_out, dx, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
    ops::bias_grad(dx, g.fc2_b, /*accumulate=*/true);
    TensorT<T> dm1(Shape{bs, f});
    ops::gelu_backward(a.fc1_out, dg, dm1, /*accumulate=*/false);
    TensorT<T> dln2(Shape{bs, h});
    ops::gemm(dln2, dm1, p.fc1_w, ops::Trans::No, ops::Trans::Yes);
    ops::gemm(g.fc1_w, a.ln2_out, dm1, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
    ops::bias_grad(dm1, g.fc1_b, /*accumulate=*/true);
    TensorT<T> dx1(Shape{bs, h});
    ops::layernorm_backward(a.ln2_xhat, a.ln2_istd, p.ln2_g, dln2, dx1, g.ln2_g, g.ln2_b,
                            /*accumulate_params=*/true);
    ops::add_(dx1, dx);  // residual path

    // Attention: x1 = x0 + proj(attn(qkv(ln1(x0)))).
    TensorT<T> dctx(Shape{bs, h});
    ops::gemm(dctx, dx1, p.proj_w, ops::Trans::No, ops::Trans::Yes);
    ops::gemm(g.proj_w, a.ctx, dx1, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
    ops::bias_grad(dx1, g.proj_b, /*accumulate=*/true);
    TensorT<T> dqkv(Shape{bs, 3 * h});
    attention_backward(a.qkv, a.probs, dctx, b, s, cfg_.heads, cfg_.head_dim(), dqkv);
    TensorT<T> dln1(Shape{bs, h});
    ops::gemm(dln1, dqkv, p.qkv_w, ops::Trans::No, ops::Trans::Yes);
    ops::gemm(g.qkv_w, a.ln1_out, dqkv, ops::Trans::Yes, ops::Trans::No, T{1}, T{1});
    ops::bias_grad(dqkv, g.qkv_b, /*accumulate=*/true);
    TensorT<T> dx0(Shape{bs, h});
    ops::layernorm_backward(a.ln1_xhat, a.ln1_istd, p.ln1_g, dln1, dx0, g.ln1_g, g.ln1_b,
                            /*accumulate_params=*/true);
    ops::add_(dx0, dx1);  // residual path
    dx = dx0;
  }

  d_x0_ = dx;
  // Embedding gradients: scatter token grads, sum positional grads over batch.
  ops::embedding_backward(tokens_, d_x0_, d_embedding_);
  add_position_grads(d_x0_, d_pos_embedding_);
}

template <typename T>
void SerialTransformer<T>::zero_grads() {
  for (auto* g : gradients()) g->zero();
}

template <typename T>
std::vector<TensorT<T>*> SerialTransformer<T>::parameters() {
  std::vector<TensorT<T>*> out{&embedding_, &pos_embedding_};
  for (auto& p : layers_) {
    out.insert(out.end(), {&p.ln1_g, &p.ln1_b, &p.qkv_w, &p.qkv_b, &p.proj_w, &p.proj_b,
                           &p.ln2_g, &p.ln2_b, &p.fc1_w, &p.fc1_b, &p.fc2_w, &p.fc2_b});
  }
  out.insert(out.end(), {&final_ln_g_, &final_ln_b_, &cls_w_, &cls_b_});
  return out;
}

template <typename T>
std::vector<TensorT<T>*> SerialTransformer<T>::gradients() {
  std::vector<TensorT<T>*> out{&d_embedding_, &d_pos_embedding_};
  for (auto& g : grads_) {
    out.insert(out.end(), {&g.ln1_g, &g.ln1_b, &g.qkv_w, &g.qkv_b, &g.proj_w, &g.proj_b,
                           &g.ln2_g, &g.ln2_b, &g.fc1_w, &g.fc1_b, &g.fc2_w, &g.fc2_b});
  }
  out.insert(out.end(), {&d_final_ln_g_, &d_final_ln_b_, &d_cls_w_, &d_cls_b_});
  return out;
}

template <typename T>
std::vector<std::string> SerialTransformer<T>::parameter_names() const {
  std::vector<std::string> out{"embedding", "pos_embedding"};
  for (index_t l = 0; l < cfg_.layers; ++l) {
    const std::string prefix = "layer" + std::to_string(l) + ".";
    for (const char* n : {"ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b", "ln2_g",
                          "ln2_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b"}) {
      out.push_back(prefix + n);
    }
  }
  out.insert(out.end(), {"final_ln_g", "final_ln_b", "cls_w", "cls_b"});
  return out;
}

std::uint64_t TransformerConfig::parameter_count() const {
  const std::uint64_t h = hidden;
  const std::uint64_t f = ffn_hidden();
  const std::uint64_t per_layer = 2 * h          // ln1
                                  + h * 3 * h + 3 * h  // qkv
                                  + h * h + h          // proj
                                  + 2 * h              // ln2
                                  + h * f + f          // fc1
                                  + f * h + h;         // fc2
  return static_cast<std::uint64_t>(vocab) * h + static_cast<std::uint64_t>(seq_len) * h +
         static_cast<std::uint64_t>(layers) * per_layer + 2 * h +
         h * static_cast<std::uint64_t>(num_classes) + num_classes;
}

template class SerialTransformer<float>;
template class SerialTransformer<double>;

}  // namespace optimus::model
