// Tests for the stem and head bodies every engine shares (model/head.hpp):
// the vocab-parallel cross-entropy against the dense ops::cross_entropy_*
// reference at group sizes 1–4, and the positional add, its gradient and
// first-token pooling on hand-computed rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "comm/cluster.hpp"
#include "model/head.hpp"
#include "model/kv_cache.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "testing/equivalence.hpp"
#include "testing/fuzz_config.hpp"
#include "util/rng.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ops = optimus::tensor::ops;
namespace ots = optimus::testing;

using optimus::tensor::DTensor;
using optimus::tensor::index_t;
using optimus::tensor::ITensor;
using optimus::tensor::Shape;
using optimus::tensor::TensorT;

namespace {

/// Logits [2g+2, g·vl] and labels that put every row's max in the slice of
/// the next rank (another rank's, once g > 1), mask row 0, and label the
/// first and last id of every slice.
template <typename T>
void vocab_case(int g, index_t vl, TensorT<T>& logits, ITensor& labels) {
  const index_t v = g * vl;
  const index_t rows = 2 * g + 2;
  optimus::util::Rng rng(ots::test_seed(31) + static_cast<std::uint64_t>(g));
  logits = TensorT<T>(Shape{rows, v});
  for (index_t i = 0; i < logits.numel(); ++i) logits[i] = static_cast<T>(rng.uniform(-2, 2));
  labels = ITensor(Shape{rows});
  labels[0] = -1;
  for (index_t k = 0; k < g; ++k) {
    labels[1 + 2 * k] = static_cast<std::int32_t>(k * vl);
    labels[2 + 2 * k] = static_cast<std::int32_t>(k * vl + vl - 1);
  }
  labels[rows - 1] = 1;
  for (index_t r = 0; r < rows; ++r) {
    const index_t owner = (r + 1) % g;
    logits[r * v + owner * vl + 1] = static_cast<T>(4 + 0.1 * static_cast<double>(r));
  }
}

template <typename T>
void check_vocab_parallel_ce(int g) {
  SCOPED_TRACE(::testing::Message() << "group size " << g << ", " << sizeof(T) * 8 << "-bit");
  const index_t vl = 3;
  const index_t v = g * vl;
  TensorT<T> logits;
  ITensor labels;
  vocab_case(g, vl, logits, labels);
  const index_t rows = logits.size(0);

  TensorT<T> probs(logits.shape());
  const T ref_loss = ops::cross_entropy_forward(logits, labels, probs);
  const index_t active = om::count_labels(labels);
  ASSERT_EQ(active, rows - 1);
  const T scale = T{1} / static_cast<T>(active);
  TensorT<T> ref_d(logits.shape());
  ops::cross_entropy_backward(probs, labels, scale, ref_d);

  std::vector<T> loss(static_cast<std::size_t>(g));
  std::vector<TensorT<T>> dlogits(static_cast<std::size_t>(g));
  std::mutex mu;
  oc::run_cluster(g, [&](oc::Context& ctx) {
    TensorT<T> local(Shape{rows, vl});
    for (index_t r = 0; r < rows; ++r) {
      for (index_t j = 0; j < vl; ++j) local[r * vl + j] = logits[r * v + ctx.rank * vl + j];
    }
    om::VocabParallelCrossEntropy<T> ce;
    ce.set_labels(labels.clone());
    const T l = ce.forward(local, ctx.rank * vl, ctx.world);
    TensorT<T> d(Shape{rows, vl});
    ce.dlogits(scale, d);
    std::lock_guard<std::mutex> lock(mu);
    loss[static_cast<std::size_t>(ctx.rank)] = l;
    dlogits[static_cast<std::size_t>(ctx.rank)] = d;
  });

  ots::FuzzConfig fc;
  fc.dtype = sizeof(T) == 8 ? ots::Dtype::kF64 : ots::Dtype::kF32;
  const ots::Tolerance tol = ots::tolerance_for(fc);
  for (int k = 0; k < g; ++k) {
    EXPECT_EQ(loss[static_cast<std::size_t>(k)], loss[0]) << "rank " << k << " disagrees";
  }
  const T mean = loss[0] / static_cast<T>(active);
  EXPECT_TRUE(tol.within(mean, ref_loss)) << mean << " vs reference " << ref_loss;
  for (int k = 0; k < g; ++k) {
    for (index_t r = 0; r < rows; ++r) {
      for (index_t j = 0; j < vl; ++j) {
        const T got = dlogits[static_cast<std::size_t>(k)][r * vl + j];
        const T want = ref_d[r * v + k * vl + j];
        EXPECT_TRUE(tol.within(got, want))
            << "dlogits row " << r << " id " << k * vl + j << ": " << got << " vs " << want;
      }
    }
  }
}

}  // namespace

TEST(VocabParallelCrossEntropy, MatchesDenseReferenceAtGroupSizesOneToFour) {
  for (int g = 1; g <= 4; ++g) {
    check_vocab_parallel_ce<float>(g);
    check_vocab_parallel_ce<double>(g);
  }
}

TEST(VocabParallelCrossEntropy, DlogitsNeedsAForward) {
  om::VocabParallelCrossEntropy<double> ce;
  DTensor out(Shape{1, 1});
  EXPECT_FALSE(ce.ready());
  EXPECT_THROW(ce.dlogits(1.0, out), optimus::util::CheckError);
}

TEST(Head, PositionsFollowRowsInPrefillAndCacheLengthsInDecode) {
  const DTensor pos = DTensor::from_vector(Shape{3, 2}, {1, 2, 10, 20, 100, 200});
  DTensor x = DTensor::zeros(Shape{4, 2});
  om::add_positions<double>(x, pos, nullptr);
  EXPECT_EQ(x.to_vector(), (std::vector<double>{1, 2, 10, 20, 100, 200, 1, 2}));

  om::KvCacheT<double> cache(/*layers=*/1, /*slots=*/3, /*capacity=*/3, /*heads=*/1,
                             /*head_dim=*/1);
  const std::vector<std::uint8_t> active{1, 0, 1};
  cache.advance(&active);
  cache.advance(&active);
  DTensor y = DTensor::zeros(Shape{3, 2});
  om::add_positions(y, pos, &cache);
  EXPECT_EQ(y.to_vector(), (std::vector<double>{100, 200, 1, 2, 100, 200}));
}

TEST(Head, PositionGradsSumTheBatchInRowOrder) {
  const DTensor dx = DTensor::from_vector(Shape{4, 1}, {1, 2, 3, 4});
  DTensor dpos = DTensor::full(Shape{2, 1}, 0.5);
  om::add_position_grads(dx, dpos);
  EXPECT_EQ(dpos.to_vector(), (std::vector<double>{(0.5 + 1) + 3, (0.5 + 2) + 4}));
}

TEST(Head, FirstTokenPoolAndScatterAreInverse) {
  const DTensor x = DTensor::from_vector(Shape{6, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  const DTensor pooled = om::pool_first_tokens(x, 3);
  EXPECT_EQ(pooled.to_vector(), (std::vector<double>{1, 2, 7, 8}));
  const DTensor back = om::scatter_first_tokens(pooled, 3);
  EXPECT_EQ(back.to_vector(), (std::vector<double>{1, 2, 0, 0, 0, 0, 7, 8, 0, 0, 0, 0}));
}
