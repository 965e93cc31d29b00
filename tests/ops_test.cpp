// Tests for the dense kernels: GEMM against a naive reference in all
// transpose forms, and finite-difference validation of every backward pass.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using optimus::testing::check_gradient;
using optimus::testing::random_dtensor;
using ot::DTensor;
using ot::ITensor;
using ot::Shape;
using ot::Tensor;
using ops::Trans;

namespace {

// Naive O(mnk) reference independent of the blocked implementation.
DTensor naive_matmul(const DTensor& A, const DTensor& B, Trans ta, Trans tb) {
  const auto m = ta == Trans::No ? A.size(0) : A.size(1);
  const auto k = ta == Trans::No ? A.size(1) : A.size(0);
  const auto n = tb == Trans::No ? B.size(1) : B.size(0);
  DTensor C = DTensor::zeros(Shape{m, n});
  for (ot::index_t i = 0; i < m; ++i) {
    for (ot::index_t j = 0; j < n; ++j) {
      double acc = 0;
      for (ot::index_t kk = 0; kk < k; ++kk) {
        const double a = ta == Trans::No ? A.at(i, kk) : A.at(kk, i);
        const double b = tb == Trans::No ? B.at(kk, j) : B.at(j, kk);
        acc += a * b;
      }
      C.at(i, j) = acc;
    }
  }
  return C;
}

struct GemmCase {
  ot::index_t m, n, k;
  Trans ta, tb;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

}  // namespace

TEST_P(GemmSweep, MatchesNaiveReference) {
  const GemmCase c = GetParam();
  optimus::util::Rng rng(1000 + c.m * 7 + c.n * 13 + c.k * 29 +
                         static_cast<int>(c.ta) * 2 + static_cast<int>(c.tb));
  const Shape a_shape = c.ta == Trans::No ? Shape{c.m, c.k} : Shape{c.k, c.m};
  const Shape b_shape = c.tb == Trans::No ? Shape{c.k, c.n} : Shape{c.n, c.k};
  DTensor A = random_dtensor(a_shape, rng);
  DTensor B = random_dtensor(b_shape, rng);
  DTensor C = ops::matmul(A, B, c.ta, c.tb);
  DTensor ref = naive_matmul(A, B, c.ta, c.tb);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllForms, GemmSweep,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::No, Trans::No}, GemmCase{5, 7, 3, Trans::No, Trans::No},
        GemmCase{64, 48, 33, Trans::No, Trans::No},
        GemmCase{100, 65, 70, Trans::No, Trans::No},  // crosses all block edges
        GemmCase{5, 7, 3, Trans::No, Trans::Yes}, GemmCase{33, 65, 40, Trans::No, Trans::Yes},
        GemmCase{5, 7, 3, Trans::Yes, Trans::No}, GemmCase{33, 65, 40, Trans::Yes, Trans::No},
        GemmCase{5, 7, 3, Trans::Yes, Trans::Yes},
        GemmCase{17, 19, 23, Trans::Yes, Trans::Yes}));

TEST(Gemm, AlphaBetaAccumulate) {
  optimus::util::Rng rng(2);
  DTensor A = random_dtensor(Shape{4, 3}, rng);
  DTensor B = random_dtensor(Shape{3, 5}, rng);
  DTensor C = DTensor::full(Shape{4, 5}, 2.0);
  ops::gemm(C, A, B, Trans::No, Trans::No, 3.0, 0.5);
  DTensor expected = naive_matmul(A, B, Trans::No, Trans::No);
  for (ot::index_t i = 0; i < expected.numel(); ++i) {
    EXPECT_NEAR(C[i], 3.0 * expected[i] + 1.0, 1e-12);
  }
}

TEST(Gemm, CountsMultiplicationsInPaperUnits) {
  ot::DeviceContext ctx;
  ot::ScopedDevice scoped(ctx);
  Tensor A = Tensor::zeros(Shape{8, 16});
  Tensor B = Tensor::zeros(Shape{16, 4});
  ctx.take_mults();
  Tensor C = ops::matmul(A, B);
  EXPECT_EQ(ctx.take_mults(), 8u * 16u * 4u);
}

TEST(Gemm, ShapeMismatchThrows) {
  DTensor A(Shape{2, 3}), B(Shape{4, 5}), C(Shape{2, 5});
  EXPECT_THROW(ops::gemm(C, A, B), optimus::util::CheckError);
}

TEST(Elementwise, AddSubAxpyScale) {
  DTensor a = DTensor::full(Shape{4}, 2.0);
  DTensor b = DTensor::full(Shape{4}, 3.0);
  ops::add_(a, b);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  ops::sub_(a, b);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
  ops::axpy_(a, 0.5, b);
  EXPECT_DOUBLE_EQ(a[2], 3.5);
  ops::scale_(a, 2.0);
  EXPECT_DOUBLE_EQ(a[3], 7.0);
  DTensor c = ops::add(a, b);
  EXPECT_DOUBLE_EQ(c[0], 10.0);
}

TEST(Elementwise, BiasAddAndGrad) {
  optimus::util::Rng rng(3);
  DTensor y = DTensor::zeros(Shape{3, 4});
  DTensor bias = random_dtensor(Shape{4}, rng);
  ops::add_bias_(y, bias);
  for (int r = 0; r < 3; ++r) {
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(y.at(r, j), bias[j]);
  }
  DTensor dy = DTensor::full(Shape{3, 4}, 1.0);
  DTensor dbias = DTensor::zeros(Shape{4});
  ops::bias_grad(dy, dbias, /*accumulate=*/false);
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(dbias[j], 3.0);
  ops::bias_grad(dy, dbias, /*accumulate=*/true);
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(dbias[j], 6.0);
}

TEST(Gelu, KnownValuesAndMonotoneTail) {
  DTensor x = DTensor::from_vector(Shape{3}, {0.0, 5.0, -5.0});
  DTensor y(Shape{3});
  ops::gelu_forward(x, y);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 5.0, 1e-3);   // ≈ identity for large x
  EXPECT_NEAR(y[2], 0.0, 1e-3);   // ≈ 0 for very negative x
}

TEST(Gelu, GradientMatchesFiniteDifference) {
  optimus::util::Rng rng(4);
  DTensor x = random_dtensor(Shape{2, 5}, rng, 2.0);
  DTensor dy = random_dtensor(Shape{2, 5}, rng);
  DTensor dx = DTensor::zeros(Shape{2, 5});
  ops::gelu_backward(x, dy, dx, /*accumulate=*/false);
  auto loss = [&] {
    DTensor y(x.shape());
    ops::gelu_forward(x, y);
    double acc = 0;
    for (ot::index_t i = 0; i < y.numel(); ++i) acc += y[i] * dy[i];
    return acc;
  };
  check_gradient(x, loss, dx);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  optimus::util::Rng rng(5);
  DTensor x = random_dtensor(Shape{4, 9}, rng, 3.0);
  DTensor y(x.shape());
  ops::softmax_lastdim(x, y);
  for (int r = 0; r < 4; ++r) {
    double sum = 0;
    for (int j = 0; j < 9; ++j) sum += y.at(r, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, StableForLargeLogits) {
  DTensor x = DTensor::from_vector(Shape{1, 3}, {1000.0, 1000.0, 900.0});
  DTensor y(x.shape());
  ops::softmax_lastdim(x, y);
  EXPECT_NEAR(y[0], 0.5, 1e-12);
  EXPECT_NEAR(y[1], 0.5, 1e-12);
  EXPECT_NEAR(y[2], 0.0, 1e-12);
}

TEST(Softmax, GradientMatchesFiniteDifference) {
  optimus::util::Rng rng(6);
  DTensor x = random_dtensor(Shape{3, 6}, rng, 2.0);
  DTensor dy = random_dtensor(Shape{3, 6}, rng);
  DTensor y(x.shape()), dx(x.shape());
  ops::softmax_lastdim(x, y);
  ops::softmax_backward_lastdim(y, dy, dx);
  auto loss = [&] {
    DTensor yy(x.shape());
    ops::softmax_lastdim(x, yy);
    double acc = 0;
    for (ot::index_t i = 0; i < yy.numel(); ++i) acc += yy[i] * dy[i];
    return acc;
  };
  check_gradient(x, loss, dx);
}

TEST(LayerNorm, NormalisesRows) {
  optimus::util::Rng rng(7);
  const int rows = 5, h = 16;
  DTensor x = random_dtensor(Shape{rows, h}, rng, 4.0);
  DTensor gamma = DTensor::full(Shape{h}, 1.0);
  DTensor beta = DTensor::zeros(Shape{h});
  DTensor y(x.shape()), xhat(x.shape()), inv_std(Shape{rows});
  ops::layernorm_forward(x, gamma, beta, 1e-8, y, xhat, inv_std);
  for (int r = 0; r < rows; ++r) {
    double sum = 0, sum_sq = 0;
    for (int j = 0; j < h; ++j) {
      sum += y.at(r, j);
      sum_sq += y.at(r, j) * y.at(r, j);
    }
    EXPECT_NEAR(sum / h, 0.0, 1e-9);
    EXPECT_NEAR(sum_sq / h, 1.0, 1e-6);
  }
}

TEST(LayerNorm, GradientsMatchFiniteDifference) {
  optimus::util::Rng rng(8);
  const int rows = 3, h = 8;
  DTensor x = random_dtensor(Shape{rows, h}, rng, 2.0);
  DTensor gamma = random_dtensor(Shape{h}, rng, 1.0);
  DTensor beta = random_dtensor(Shape{h}, rng, 1.0);
  DTensor dy = random_dtensor(Shape{rows, h}, rng);
  const double eps = 1e-6;

  DTensor y(x.shape()), xhat(x.shape()), inv_std(Shape{rows});
  ops::layernorm_forward(x, gamma, beta, eps, y, xhat, inv_std);
  DTensor dx(x.shape()), dgamma(Shape{h}), dbeta(Shape{h});
  ops::layernorm_backward(xhat, inv_std, gamma, dy, dx, dgamma, dbeta, false);

  auto loss = [&] {
    DTensor yy(x.shape()), hh(x.shape()), ss(Shape{rows});
    ops::layernorm_forward(x, gamma, beta, eps, yy, hh, ss);
    double acc = 0;
    for (ot::index_t i = 0; i < yy.numel(); ++i) acc += yy[i] * dy[i];
    return acc;
  };
  check_gradient(x, loss, dx, 1e-5, 1e-5);
  check_gradient(gamma, loss, dgamma, 1e-5, 1e-5);
  check_gradient(beta, loss, dbeta, 1e-5, 1e-5);
}

TEST(CrossEntropy, MatchesHandComputedLoss) {
  DTensor logits = DTensor::from_vector(Shape{1, 3}, {1.0, 2.0, 3.0});
  ITensor labels = ITensor::from_vector(Shape{1}, {2});
  DTensor probs(logits.shape());
  const double loss = ops::cross_entropy_forward(logits, labels, probs);
  // H = log(sum exp(x)) - x_label
  const double lse = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(loss, lse - 3.0, 1e-12);
}

TEST(CrossEntropy, MaskedRowsExcluded) {
  DTensor logits = DTensor::from_vector(Shape{2, 2}, {5.0, 1.0, 0.0, 0.0});
  ITensor labels = ITensor::from_vector(Shape{2}, {0, -1});
  DTensor probs(logits.shape());
  const double loss = ops::cross_entropy_forward(logits, labels, probs);
  const double expected = std::log(std::exp(5.0) + std::exp(1.0)) - 5.0;
  EXPECT_NEAR(loss, expected, 1e-12);  // only row 0 contributes
  DTensor dlogits(logits.shape());
  ops::cross_entropy_backward(probs, labels, 1.0, dlogits);
  EXPECT_DOUBLE_EQ(dlogits.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(dlogits.at(1, 1), 0.0);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  optimus::util::Rng rng(9);
  const int rows = 4, v = 7;
  DTensor logits = random_dtensor(Shape{rows, v}, rng, 2.0);
  std::vector<std::int32_t> raw{0, 3, 6, 2};
  ITensor labels = ITensor::from_vector(Shape{rows}, raw);
  DTensor probs(logits.shape()), dlogits(logits.shape());
  (void)ops::cross_entropy_forward(logits, labels, probs);
  ops::cross_entropy_backward(probs, labels, 1.0 / rows, dlogits);
  auto loss = [&] {
    DTensor pp(logits.shape());
    return ops::cross_entropy_forward(logits, labels, pp);
  };
  check_gradient(logits, loss, dlogits, 1e-5, 1e-6);
}

TEST(Embedding, ForwardGathersRows) {
  DTensor table = DTensor::from_vector(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
  ITensor tokens = ITensor::from_vector(Shape{4}, {2, 0, 1, 2});
  DTensor y(Shape{4, 2});
  ops::embedding_forward(table, tokens, y);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 20);
  EXPECT_DOUBLE_EQ(y.at(1, 1), 1);
  EXPECT_DOUBLE_EQ(y.at(3, 1), 21);
}

TEST(Embedding, BackwardScattersAndAccumulates) {
  ITensor tokens = ITensor::from_vector(Shape{3}, {1, 1, 0});
  DTensor dy = DTensor::from_vector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  DTensor dtable = DTensor::zeros(Shape{2, 2});
  ops::embedding_backward(tokens, dy, dtable);
  EXPECT_DOUBLE_EQ(dtable.at(1, 0), 4.0);  // 1 + 3
  EXPECT_DOUBLE_EQ(dtable.at(1, 1), 6.0);  // 2 + 4
  EXPECT_DOUBLE_EQ(dtable.at(0, 0), 5.0);
}

TEST(Embedding, SliceGatherLeavesOutOfSliceRowsUntouched) {
  // The table holds global ids [2, 4); ids 1 and 4 sit just outside it.
  DTensor table = DTensor::from_vector(Shape{2, 2}, {20, 21, 30, 31});
  ITensor tokens = ITensor::from_vector(Shape{5}, {1, 2, 4, 3, 0});
  DTensor y = DTensor::full(Shape{5, 2}, -7.0);
  ops::embedding_forward(table, tokens, y, /*v_begin=*/2);
  const std::vector<double> want{-7, -7, 20, 21, -7, -7, 30, 31, -7, -7};
  EXPECT_EQ(y.to_vector(), want);
}

TEST(Embedding, SliceScatterTouchesOnlyInSliceRowsInOrder) {
  ITensor tokens = ITensor::from_vector(Shape{5}, {3, 1, 2, 4, 3});
  DTensor dy = DTensor::from_vector(Shape{5, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  DTensor dtable = DTensor::full(Shape{2, 2}, 0.5);  // ids [2, 4)
  ops::embedding_backward(tokens, dy, dtable, /*v_begin=*/2);
  const std::vector<double> want{0.5 + 5, 0.5 + 6, (0.5 + 1) + 9, (0.5 + 2) + 10};
  EXPECT_EQ(dtable.to_vector(), want);
}

TEST(Reductions, SumMaxNormDiff) {
  DTensor a = DTensor::from_vector(Shape{4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(ops::sum_all(a), -2.0);
  EXPECT_DOUBLE_EQ(ops::max_abs(a), 4.0);
  EXPECT_DOUBLE_EQ(ops::l2_norm(a), std::sqrt(30.0));
  DTensor b = DTensor::from_vector(Shape{4}, {1, -2, 3.5, -4});
  EXPECT_DOUBLE_EQ(ops::max_abs_diff(a, b), 0.5);
}

TEST(Transpose, RoundTrip) {
  optimus::util::Rng rng(10);
  DTensor a = random_dtensor(Shape{3, 5}, rng);
  DTensor t = ops::transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{5, 3}));
  DTensor tt = ops::transpose2d(t);
  EXPECT_LT(ops::max_abs_diff(a, tt), 1e-15);
}

TEST(CounterInit, BlockFillMatchesGlobalFill) {
  optimus::util::CounterRng rng(77);
  const int R = 8, C = 12, q = 2;
  DTensor global(Shape{R, C});
  ops::fill_counter_uniform(global, rng, /*stream=*/5, 0.1, 0, 0, C);
  // Each block, filled independently with its global offsets, must equal the
  // corresponding region of the globally-filled matrix.
  for (int bi = 0; bi < q; ++bi) {
    for (int bj = 0; bj < q; ++bj) {
      DTensor block(Shape{R / q, C / q});
      ops::fill_counter_uniform(block, rng, 5, 0.1, bi * R / q, bj * C / q, C);
      for (int r = 0; r < R / q; ++r) {
        for (int c = 0; c < C / q; ++c) {
          EXPECT_DOUBLE_EQ(block.at(r, c), global.at(bi * R / q + r, bj * C / q + c));
        }
      }
    }
  }
}

TEST(Cast, FloatDoubleRoundTrip) {
  Tensor f = Tensor::from_vector(Shape{3}, {1.5f, -2.25f, 0.0f});
  auto d = ops::cast<float, double>(f);
  EXPECT_DOUBLE_EQ(d[1], -2.25);
  auto f2 = ops::cast<double, float>(d);
  EXPECT_FLOAT_EQ(f2[0], 1.5f);
}
