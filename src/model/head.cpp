#include "model/head.hpp"

#include <algorithm>
#include <cmath>

#include "comm/communicator.hpp"
#include "tensor/parallel.hpp"

namespace optimus::model {

namespace {

using tensor::index_t;
using tensor::Shape;
using tensor::TensorT;

}  // namespace

template <typename T>
T VocabParallelCrossEntropy<T>::forward(const TensorT<T>& logits, index_t v_begin,
                                        comm::Communicator& vocab_comm) {
  const index_t rows = logits.size(0);
  const index_t vl = logits.size(1);
  OPT_CHECK(labels_.numel() == rows, "labels size " << labels_.numel() << " != rows " << rows);
  v_begin_ = v_begin;
  const T* lp = logits.data();

  TensorT<T> m(Shape{rows});
  tensor::parallel_rows(rows, vl, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      T mx = lp[r * vl];
      for (index_t j = 1; j < vl; ++j) mx = std::max(mx, lp[r * vl + j]);
      m[r] = mx;
    }
  });
  vocab_comm.all_reduce_max(m);
  exp_ = TensorT<T>(logits.shape());
  TensorT<T> z(Shape{rows});
  tensor::parallel_rows(rows, vl, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      T sum{0};
      for (index_t j = 0; j < vl; ++j) {
        const T e = std::exp(lp[r * vl + j] - m[r]);
        exp_[r * vl + j] = e;
        sum += e;
      }
      z[r] = sum;
    }
  });
  vocab_comm.all_reduce(z);
  // Label term: exactly one rank owns each label's column.
  TensorT<T> xl = TensorT<T>::zeros(Shape{rows});
  for (index_t r = 0; r < rows; ++r) {
    const index_t label = labels_[r];
    if (label >= v_begin && label < v_begin + vl) xl[r] = lp[r * vl + (label - v_begin)];
  }
  vocab_comm.all_reduce(xl);

  inv_z_ = TensorT<T>(Shape{rows});
  T loss{0};
  for (index_t r = 0; r < rows; ++r) {
    inv_z_[r] = T{1} / z[r];
    if (labels_[r] >= 0) loss += std::log(z[r]) + m[r] - xl[r];
  }
  return loss;
}

template <typename T>
void VocabParallelCrossEntropy<T>::dlogits(T scale, TensorT<T>& out) const {
  OPT_CHECK(ready(), "dlogits needs a forward() first");
  const index_t rows = exp_.size(0);
  const index_t vl = exp_.size(1);
  OPT_CHECK(out.numel() == exp_.numel(), "dlogits buffer mismatch");
  tensor::parallel_rows(rows, vl, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t label = labels_[r];
      T* row = out.data() + r * vl;
      if (label < 0) {
        std::fill(row, row + vl, T{0});
        continue;
      }
      const T* erow = exp_.data() + r * vl;
      for (index_t j = 0; j < vl; ++j) row[j] = scale * erow[j] * inv_z_[r];
      if (label >= v_begin_ && label < v_begin_ + vl) row[label - v_begin_] -= scale;
    }
  });
}

template class VocabParallelCrossEntropy<float>;
template class VocabParallelCrossEntropy<double>;

}  // namespace optimus::model
