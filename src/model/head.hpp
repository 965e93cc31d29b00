#pragma once

// Stem and head bodies every engine shares, each run on the engine's own
// shard: the positional add and its gradient, first-token pooling, and the
// vocab-parallel cross-entropy of the tied lm-head.
//
// The cross-entropy is the paper's §3.2.2 distributed softmax, the same
// algorithm as Megatron-LM's vocab-parallel cross-entropy: the vocabulary is
// split across the ranks of one communicator, and the row max, the exp-sum
// and the label logit are each all-reduced over it. Megatron passes its world
// communicator and all b·s rows; Optimus passes a mesh row and its batch
// block. The serial oracle keeps ops::cross_entropy_* as the reference.

#include <cstring>
#include <utility>

#include "model/kv_cache.hpp"
#include "tensor/tensor.hpp"

namespace optimus::comm {
class Communicator;
}

namespace optimus::model {

/// x[r, :] += pos[t, :], where row r sits at position t = cache->len(r) in
/// decode, or t = r mod s in prefill (s = pos.size(0)).
template <typename T>
void add_positions(tensor::TensorT<T>& x, const tensor::TensorT<T>& pos,
                   const KvCacheT<T>* cache) {
  const tensor::index_t s = pos.size(0);
  const tensor::index_t w = pos.size(1);
  OPT_CHECK(x.size(1) == w, "positional table width " << w << " != row width " << x.size(1));
  for (tensor::index_t r = 0; r < x.size(0); ++r) {
    const tensor::index_t t = cache != nullptr ? cache->len(r) : r % s;
    OPT_CHECK(t < s, "decode position " << t << " past seq_len " << s);
    for (tensor::index_t j = 0; j < w; ++j) x.data()[r * w + j] += pos.data()[t * w + j];
  }
}

/// dpos[r mod s, :] += dx[r, :] for every row r in order: the batch sum of
/// the positional-embedding gradient.
template <typename T>
void add_position_grads(const tensor::TensorT<T>& dx, tensor::TensorT<T>& dpos) {
  const tensor::index_t s = dpos.size(0);
  const tensor::index_t w = dpos.size(1);
  OPT_CHECK(dx.size(1) == w, "positional grad width " << w << " != row width " << dx.size(1));
  for (tensor::index_t r = 0; r < dx.size(0); ++r) {
    for (tensor::index_t j = 0; j < w; ++j) dpos.data()[(r % s) * w + j] += dx.data()[r * w + j];
  }
}

/// The first token of each length-s sequence of x [b·s, w], as [b, w].
template <typename T>
tensor::TensorT<T> pool_first_tokens(const tensor::TensorT<T>& x, tensor::index_t s) {
  const tensor::index_t w = x.size(1);
  tensor::TensorT<T> pooled(tensor::Shape{x.size(0) / s, w});
  for (tensor::index_t b = 0; b < pooled.size(0); ++b) {
    std::memcpy(pooled.data() + b * w, x.data() + b * s * w, sizeof(T) * w);
  }
  return pooled;
}

/// Backward of pool_first_tokens: a zero [b·s, w] gradient holding row i of
/// d_pooled at row i·s.
template <typename T>
tensor::TensorT<T> scatter_first_tokens(const tensor::TensorT<T>& d_pooled, tensor::index_t s) {
  const tensor::index_t w = d_pooled.size(1);
  auto dx = tensor::TensorT<T>::zeros(tensor::Shape{d_pooled.size(0) * s, w});
  for (tensor::index_t b = 0; b < d_pooled.size(0); ++b) {
    std::memcpy(dx.data() + b * s * w, d_pooled.data() + b * w, sizeof(T) * w);
  }
  return dx;
}

/// Number of unmasked (>= 0) labels: the lm loss is their mean.
inline tensor::index_t count_labels(const tensor::ITensor& labels) {
  tensor::index_t n = 0;
  for (tensor::index_t i = 0; i < labels.numel(); ++i) n += labels[i] >= 0 ? 1 : 0;
  return n;
}

/// Cross-entropy over logits whose vocabulary is split across the ranks of a
/// communicator. Keeps exp(logits − max) and 1/Σexp of its last forward()
/// for dlogits().
template <typename T>
class VocabParallelCrossEntropy {
 public:
  /// Keeps this rank's labels [rows] (global vocab ids; < 0 masks a row) for
  /// the next forward() and dlogits(). Engines set them before computing the
  /// logits, so the last step's labels are freed first.
  void set_labels(tensor::ITensor labels) { labels_ = std::move(labels); }

  /// Collective over `vocab_comm`. `logits` is this rank's [rows, v_local]
  /// slice, whose column j is global vocab id v_begin + j. Returns the sum of
  /// −log softmax[label] over the unmasked local rows, identical on every
  /// rank of `vocab_comm`.
  T forward(const tensor::TensorT<T>& logits, tensor::index_t v_begin,
            comm::Communicator& vocab_comm);

  /// out [rows, v_local] = scale·(softmax − onehot(label)) on this rank's
  /// slice; masked rows get zeros.
  void dlogits(T scale, tensor::TensorT<T>& out) const;

  bool ready() const { return exp_.defined(); }

 private:
  tensor::ITensor labels_;
  tensor::index_t v_begin_ = 0;
  tensor::TensorT<T> exp_;    // [rows, v_local] exp(logits − max)
  tensor::TensorT<T> inv_z_;  // [rows] 1 / Σ exp over the whole vocabulary
};

}  // namespace optimus::model
