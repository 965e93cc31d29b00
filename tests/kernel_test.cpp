// Tests for the dense kernel layer (src/kernel/): packed GEMM correctness
// across all transpose forms / odd shapes / alpha-beta combinations, bitwise
// determinism across thread counts, the k-order rounding contract, beta==0
// store semantics over poisoned memory, the vectorized tanh/GELU special
// values and lane independence, the shared thread budget, and the pool
// itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "kernel/elementwise.hpp"
#include "kernel/gemm.hpp"
#include "kernel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "testing/ulp.hpp"
#include "util/rng.hpp"

namespace {

namespace ok = optimus::kernel;
namespace ops = optimus::tensor::ops;
using index_t = ok::index_t;

template <typename T>
std::vector<T> random_buffer(index_t n, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  return v;
}

// Textbook reference: C = alpha·op(A)·op(B) + beta·C, beta == 0 stores.
template <typename T>
void gemm_reference(T* C, const T* A, const T* B, index_t m, index_t n, index_t k,
                    index_t lda, index_t ldb, index_t ldc, ok::Trans ta, ok::Trans tb,
                    T alpha, T beta) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T acc{0};
      for (index_t p = 0; p < k; ++p) {
        const T a = ta == ok::Trans::No ? A[i * lda + p] : A[p * lda + i];
        const T b = tb == ok::Trans::No ? B[p * ldb + j] : B[j * ldb + p];
        acc += a * b;
      }
      T& c = C[i * ldc + j];
      c = beta == T{0} ? alpha * acc : alpha * acc + beta * c;
    }
  }
}

template <typename T>
T tolerance(index_t k);
template <>
float tolerance<float>(index_t k) {
  return 1e-5f * static_cast<float>(k + 1);
}
template <>
double tolerance<double>(index_t k) {
  return 1e-12 * static_cast<double>(k + 1);
}

// Runs one (m, n, k, ta, tb, alpha, beta) case against the reference, on both
// the packed single-thread path and the threaded entry point, with padded row
// strides to exercise non-contiguous layouts.
template <typename T>
void check_case(index_t m, index_t n, index_t k, ok::Trans ta, ok::Trans tb, T alpha,
                T beta) {
  const index_t pad = 3;
  const index_t lda = (ta == ok::Trans::No ? k : m) + pad;
  const index_t ldb = (tb == ok::Trans::No ? n : k) + pad;
  const index_t ldc = n + pad;
  const index_t a_rows = ta == ok::Trans::No ? m : k;
  const index_t b_rows = tb == ok::Trans::No ? k : n;

  auto A = random_buffer<T>(a_rows * lda, 11);
  auto B = random_buffer<T>(b_rows * ldb, 22);
  auto C0 = random_buffer<T>(m * ldc, 33);

  std::vector<T> want = C0;
  gemm_reference(want.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha,
                 beta);

  const T tol = tolerance<T>(k) * (std::abs(alpha) + std::abs(beta) + T{1});
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " n=" << n << " k=" << k << " ta=" << int(ta)
               << " tb=" << int(tb) << " alpha=" << alpha << " beta=" << beta);

  std::vector<T> got = C0;
  ok::gemm_packed(got.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha,
                  beta);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_NEAR(got[i * ldc + j], want[i * ldc + j], tol) << "packed at " << i << "," << j;
    }
  }
  // Padding bytes must be untouched.
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = n; j < ldc; ++j) {
      ASSERT_EQ(got[i * ldc + j], C0[i * ldc + j]) << "padding clobbered at " << i << "," << j;
    }
  }

  ok::set_threads(4);
  std::vector<T> got_mt = C0;
  ok::gemm(got_mt.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha, beta);
  ok::set_threads(0);
  EXPECT_EQ(0, std::memcmp(got_mt.data(), got.data(), got.size() * sizeof(T)))
      << "threaded result differs from packed";
}

TEST(KernelGemm, SmallShapeSweepF32) {
  const index_t sizes[] = {1, 2, 3, 5, 8, 13, 17, 33};
  const ok::Trans forms[] = {ok::Trans::No, ok::Trans::Yes};
  int case_idx = 0;
  for (index_t m : sizes) {
    for (index_t n : sizes) {
      for (index_t k : sizes) {
        // Rotate through transpose forms and alpha/beta pairs so the sweep
        // stays fast but every combination appears many times across shapes.
        const ok::Trans ta = forms[case_idx % 2];
        const ok::Trans tb = forms[(case_idx / 2) % 2];
        const float alphas[] = {1.0f, -0.5f, 0.0f};
        const float betas[] = {0.0f, 1.0f, -0.5f};
        const float alpha = alphas[case_idx % 3];
        const float beta = betas[(case_idx / 3) % 3];
        check_case<float>(m, n, k, ta, tb, alpha, beta);
        ++case_idx;
      }
    }
  }
}

TEST(KernelGemm, AllTransposeFormsAllAlphaBetaF32) {
  // One fixed odd shape, the full 4×9 cross product.
  for (ok::Trans ta : {ok::Trans::No, ok::Trans::Yes}) {
    for (ok::Trans tb : {ok::Trans::No, ok::Trans::Yes}) {
      for (float alpha : {0.0f, 1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f, -0.5f}) {
          check_case<float>(13, 19, 29, ta, tb, alpha, beta);
        }
      }
    }
  }
}

TEST(KernelGemm, AllTransposeFormsF64) {
  for (ok::Trans ta : {ok::Trans::No, ok::Trans::Yes}) {
    for (ok::Trans tb : {ok::Trans::No, ok::Trans::Yes}) {
      check_case<double>(17, 23, 31, ta, tb, 1.0, 0.0);
      check_case<double>(5, 67, 7, ta, tb, -0.5, 1.0);
    }
  }
}

TEST(KernelGemm, LargerThanOnePanel) {
  // Crosses the kMC/kKC/kNC panel boundaries (and the microkernel edge
  // handling) in one go.
  check_case<float>(131, 1031, 261, ok::Trans::No, ok::Trans::No, 1.0f, 0.0f);
  check_case<float>(70, 90, 300, ok::Trans::Yes, ok::Trans::Yes, -0.5f, 1.0f);
}

TEST(KernelGemm, DeterministicAcrossThreadCounts) {
  // Bitwise identical output for 1 vs 4 threads (DESIGN.md §5).
  const index_t m = 137, n = 93, k = 211;
  auto A = random_buffer<float>(m * k, 7);
  auto B = random_buffer<float>(k * n, 8);
  std::vector<float> c1(static_cast<std::size_t>(m * n)), c4 = c1;

  ok::set_threads(1);
  ok::gemm(c1.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
           1.0f, 0.0f);
  ok::set_threads(4);
  ok::gemm(c4.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
           1.0f, 0.0f);
  ok::set_threads(0);
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

TEST(KernelGemm, CooperativeBitwiseForThreads1Through4EdgeShapes) {
  // The cooperative scheduler claims pack work and MC×NR tiles dynamically;
  // the contract is that ownership never changes arithmetic. Every thread
  // count must reproduce the 1-thread result bit for bit, including shapes
  // that are not multiples of the register tile (gemm_tile_rows/cols) or
  // kKC=256 — the microkernel edge paths and partial K panels.
  struct Shape3 {
    index_t m, n, k;
  };
  const Shape3 shapes[] = {
      {130, 1037, 519},  // crosses kMC/kNC/kKC with remainders everywhere
      {67, 45, 300},     // partial K panel, edge tiles both dims
      {3, 17, 257},      // below one microtile in M, K just past a panel
      {257, 31, 5},      // tall & skinny, tiny K
  };
  auto run = [](auto tag, const Shape3& s) {
    using T = decltype(tag);
    auto A = random_buffer<T>(s.m * s.k, 71);
    auto B = random_buffer<T>(s.k * s.n, 72);
    std::vector<T> base(static_cast<std::size_t>(s.m * s.n));
    ok::set_threads(1);
    ok::gemm(base.data(), A.data(), B.data(), s.m, s.n, s.k, s.k, s.n, s.n,
             ok::Trans::No, ok::Trans::No, T{1}, T{0});
    for (int t : {2, 3, 4}) {
      ok::set_threads(t);
      std::vector<T> got(static_cast<std::size_t>(s.m * s.n));
      ok::gemm(got.data(), A.data(), B.data(), s.m, s.n, s.k, s.k, s.n, s.n,
               ok::Trans::No, ok::Trans::No, T{1}, T{0});
      EXPECT_EQ(0, std::memcmp(base.data(), got.data(), base.size() * sizeof(T)))
          << "threads=" << t << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
    ok::set_threads(0);
  };
  for (const auto& s : shapes) {
    run(float{}, s);
    run(double{}, s);
  }
}

// The rounding contract (kernel/gemm.hpp): each C element is one fold in
// k-order starting from beta·C, so its bits depend on neither how K is split
// into beta = 1 calls, nor m, nor the thread count. K = 600 crosses two
// kKC = 256 panel boundaries, and the K splits land mid-panel.
template <typename T>
void check_k_order_contract(ok::Trans ta, ok::Trans tb) {
  const index_t m = 70, n = 90, k = 600;
  const index_t lda = ta == ok::Trans::No ? k : m;
  const index_t ldb = tb == ok::Trans::No ? n : k;
  auto A = random_buffer<T>((ta == ok::Trans::No ? m : k) * lda, 91);
  auto B = random_buffer<T>((tb == ok::Trans::No ? k : n) * ldb, 92);
  // op(A)[:, k0:] and op(B)[k0:, :] as offsets into the stored matrices.
  const auto a_at = [&](index_t i, index_t k0) {
    return A.data() + (ta == ok::Trans::No ? i * lda + k0 : k0 * lda + i);
  };
  const auto b_at = [&](index_t k0) {
    return B.data() + (tb == ok::Trans::No ? k0 * ldb : k0);
  };
  SCOPED_TRACE(::testing::Message() << "ta=" << int(ta) << " tb=" << int(tb)
                                    << " bytes=" << sizeof(T));
  const auto bits_equal = [](const std::vector<T>& x, const std::vector<T>& y) {
    return std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
  };

  ok::set_threads(1);
  std::vector<T> whole(static_cast<std::size_t>(m * n));
  ok::gemm(whole.data(), A.data(), B.data(), m, n, k, lda, ldb, n, ta, tb, T{1}, T{0});

  // (a) K split into beta = 1 calls, as SUMMA's k-steps issue it.
  std::vector<T> split(whole.size());
  const index_t cuts[] = {0, 100, 357, 420, k};
  for (int s = 0; s + 1 < 5; ++s) {
    ok::gemm(split.data(), a_at(0, cuts[s]), b_at(cuts[s]), m, n, cuts[s + 1] - cuts[s], lda,
             ldb, n, ta, tb, T{1}, s == 0 ? T{0} : T{1});
  }
  EXPECT_TRUE(bits_equal(split, whole)) << "K split into beta = 1 calls";

  // (b) Row i alone, as decode computes it with m = 1; also from a nonzero
  // C with beta ∉ {0, 1}.
  for (const T beta : {T{0}, T{0.5}}) {
    const auto c0 = random_buffer<T>(m * n, 93);
    std::vector<T> full = c0, rows = c0;
    ok::gemm(full.data(), A.data(), B.data(), m, n, k, lda, ldb, n, ta, tb, T{1}, beta);
    for (index_t i = 0; i < m; ++i) {
      ok::gemm(rows.data() + i * n, a_at(i, 0), b_at(0), 1, n, k, lda, ldb, n, ta, tb, T{1},
               beta);
    }
    EXPECT_TRUE(bits_equal(rows, full)) << "1×n products of each row, beta=" << beta;
  }

  // (c) The cooperative path at 4 threads.
  ok::set_threads(4);
  std::vector<T> threaded(whole.size());
  ok::gemm(threaded.data(), A.data(), B.data(), m, n, k, lda, ldb, n, ta, tb, T{1}, T{0});
  ok::set_threads(0);
  EXPECT_TRUE(bits_equal(threaded, whole)) << "4 threads vs 1";
}

TEST(KernelGemm, EachElementIsOneFoldInKOrder) {
  for (ok::Trans ta : {ok::Trans::No, ok::Trans::Yes}) {
    for (ok::Trans tb : {ok::Trans::No, ok::Trans::Yes}) {
      check_k_order_contract<float>(ta, tb);
      check_k_order_contract<double>(ta, tb);
    }
  }
}

// Whether the kernel's build fuses `acc + a·b` into one rounding (an FMA
// unit under -march=native) or rounds the product first. Probed on a case
// that tells them apart: with a = b = 1 + ε and c = −(1 + 2ε), where ε² is
// below half an ulp of 1, a fused step keeps the ε² that a rounded product
// drops.
template <typename T>
bool kernel_fuses_multiply_add() {
  const T eps = std::ldexp(T{1}, -(std::numeric_limits<T>::digits + 1) / 2);
  const T a = T{1} + eps;
  T c = -(T{1} + T{2} * eps);
  ok::gemm_packed(&c, &a, &a, 1, 1, 1, 1, 1, 1, ok::Trans::No, ok::Trans::No, T{1}, T{1});
  return c != T{0};
}

// The rounding contract's fold for C(i, j), computed without the kernel: the
// accumulator starts from beta·C (zero when beta == 0), then takes one
// multiply-add of (alpha·op(A)(i, l))·op(B)(l, j) per l in ascending order.
template <typename T>
T reference_fold(const T* A, const T* B, index_t i, index_t j, index_t k, index_t lda,
                 index_t ldb, ok::Trans ta, ok::Trans tb, T alpha, T beta, T c, bool fused) {
  T acc = beta == T{0} ? T{0} : beta == T{1} ? c : c * beta;
  for (index_t l = 0; l < k; ++l) {
    const T a = alpha * (ta == ok::Trans::No ? A[i * lda + l] : A[l * lda + i]);
    const T b = tb == ok::Trans::No ? B[l * ldb + j] : B[j * ldb + l];
    if (fused) {
      acc = std::fma(a, b, acc);
    } else {
      const volatile T p = a * b;  // rounded on its own, never contracted
      acc = acc + p;
    }
  }
  return acc;
}

// Every edge tile: m and n on both sides of one and two register tiles, K
// within one panel and across a panel boundary, each beta form. C's live
// region starts as NaN when beta == 0 and its ldc padding holds sentinel
// bytes. Each element must be the reference fold bit for bit, each row must
// equal its own 1×n product, and the padding must come back untouched.
template <typename T>
void check_edge_tiles() {
  const index_t MR = ok::gemm_tile_rows<T>();
  const index_t NR = ok::gemm_tile_cols<T>();
  std::vector<index_t> ms, ns;
  for (index_t m = 1; m <= MR + 1; ++m) ms.push_back(m);
  ms.insert(ms.end(), {2 * MR - 1, 2 * MR + 1});
  for (index_t n = 1; n <= NR + 1; ++n) ns.push_back(n);
  ns.push_back(2 * NR - 1);
  const bool fused = kernel_fuses_multiply_add<T>();
  const index_t pad = 3;
  const unsigned char sentinel = 0xA5;
  int case_idx = 0;
  for (const index_t k : {index_t{1}, index_t{17}, index_t{257}}) {
    for (const index_t m : ms) {
      for (const index_t n : ns) {
        for (const T beta : {T{0}, T{1}, T{0.5}}) {
          // Rotate the transpose forms and alpha so every packing path meets
          // every edge shape somewhere in the sweep.
          const ok::Trans ta = case_idx % 2 == 0 ? ok::Trans::No : ok::Trans::Yes;
          const ok::Trans tb = case_idx % 4 < 2 ? ok::Trans::No : ok::Trans::Yes;
          const T alpha = case_idx % 3 == 0 ? T{-0.5} : T{1};
          ++case_idx;
          const index_t lda = ta == ok::Trans::No ? k : m;
          const index_t ldb = tb == ok::Trans::No ? n : k;
          const index_t ldc = n + pad;
          const auto A = random_buffer<T>(m * k, 101 + case_idx);
          const auto B = random_buffer<T>(k * n, 202 + case_idx);
          std::vector<T> c0 = random_buffer<T>(m * ldc, 303 + case_idx);
          for (index_t i = 0; i < m; ++i) {
            if (beta == T{0}) {
              std::fill_n(c0.data() + i * ldc, n, std::numeric_limits<T>::quiet_NaN());
            }
            std::memset(c0.data() + i * ldc + n, sentinel, pad * sizeof(T));
          }
          SCOPED_TRACE(::testing::Message()
                       << "bytes=" << sizeof(T) << " m=" << m << " n=" << n << " k=" << k
                       << " beta=" << beta << " alpha=" << alpha << " ta=" << int(ta)
                       << " tb=" << int(tb));

          std::vector<T> full = c0;
          ok::gemm_packed(full.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb,
                          alpha, beta);
          std::vector<T> rows = c0;
          for (index_t i = 0; i < m; ++i) {
            const T* a_row = ta == ok::Trans::No ? A.data() + i * lda : A.data() + i;
            ok::gemm_packed(rows.data() + i * ldc, a_row, B.data(), 1, n, k, lda, ldb, ldc, ta,
                            tb, alpha, beta);
          }
          ASSERT_EQ(0, std::memcmp(rows.data(), full.data(), full.size() * sizeof(T)))
              << "a row differs from its own 1×n product";
          for (index_t i = 0; i < m; ++i) {
            for (index_t j = 0; j < n; ++j) {
              const T want = reference_fold(A.data(), B.data(), i, j, k, lda, ldb, ta, tb,
                                            alpha, beta, c0[i * ldc + j], fused);
              const T got = full[i * ldc + j];
              ASSERT_EQ(0, std::memcmp(&want, &got, sizeof(T)))
                  << "at " << i << "," << j << ": " << got << " vs fold " << want;
            }
            ASSERT_EQ(0, std::memcmp(full.data() + i * ldc + n, c0.data() + i * ldc + n,
                                     pad * sizeof(T)))
                << "ldc padding of row " << i << " written";
          }
        }
      }
    }
  }
}

TEST(KernelGemm, EdgeTilesMatchTheFoldInPlace) {
  check_edge_tiles<float>();
  check_edge_tiles<double>();
}

// Unfused two-pass reference for each epilogue: gemm, then the elementwise op
// over the full C — exactly the pre-fusion model-layer sequence. The fused
// path must match it bitwise (same scalar ops, same order, just tile-hot).
template <typename T>
void epilogue_reference(ok::Epilogue op, T* C, const T* bias, const T* res, T* pre,
                        index_t m, index_t n) {
  for (index_t i = 0; i < m; ++i) {
    T* row = C + i * n;
    switch (op) {
      case ok::Epilogue::BiasAdd:
        for (index_t j = 0; j < n; ++j) row[j] += bias[j];
        break;
      case ok::Epilogue::BiasGelu:
        for (index_t j = 0; j < n; ++j) {
          row[j] += bias[j];
          pre[i * n + j] = row[j];
        }
        ok::gelu(row, row, n);
        break;
      case ok::Epilogue::ResidualAdd:
        for (index_t j = 0; j < n; ++j) row[j] = (row[j] + bias[j]) + res[i * n + j];
        break;
      case ok::Epilogue::None:
        break;
    }
  }
}

template <typename T>
void check_epilogue_bitwise(ok::Epilogue op, index_t m, index_t n, index_t k) {
  auto A = random_buffer<T>(m * k, 81);
  auto B = random_buffer<T>(k * n, 82);
  auto bias = random_buffer<T>(n, 83);
  auto res = random_buffer<T>(m * n, 84);

  std::vector<T> want(static_cast<std::size_t>(m * n));
  std::vector<T> want_pre(static_cast<std::size_t>(m * n), T{0});
  ok::set_threads(1);
  ok::gemm(want.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
           ok::Trans::No, T{1}, T{0});
  epilogue_reference<T>(op, want.data(), bias.data(), res.data(), want_pre.data(), m, n);

  ok::EpilogueArgs<T> ep;
  ep.op = op;
  ep.bias = bias.data();
  if (op == ok::Epilogue::ResidualAdd) {
    ep.residual = res.data();
    ep.ldr = n;
  }
  std::vector<T> got_pre(static_cast<std::size_t>(m * n), T{0});
  if (op == ok::Epilogue::BiasGelu) {
    ep.pre = got_pre.data();
    ep.ldp = n;
  }
  for (int t : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "op=" << int(op) << " threads=" << t
                                      << " m=" << m << " n=" << n << " k=" << k);
    ok::set_threads(t);
    std::vector<T> got(static_cast<std::size_t>(m * n));
    std::fill(got_pre.begin(), got_pre.end(), T{0});
    ok::gemm_ex(got.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                ok::Trans::No, T{1}, T{0}, ep);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(T)))
        << "fused output differs from unfused reference";
    if (op == ok::Epilogue::BiasGelu) {
      EXPECT_EQ(0, std::memcmp(want_pre.data(), got_pre.data(),
                               want_pre.size() * sizeof(T)))
          << "pre-activation differs from unfused reference";
    }
  }
  ok::set_threads(0);
}

TEST(KernelGemmEpilogue, FusedBitwiseVsUnfusedReference) {
  const ok::Epilogue ops_[] = {ok::Epilogue::BiasAdd, ok::Epilogue::BiasGelu,
                               ok::Epilogue::ResidualAdd};
  for (ok::Epilogue op : ops_) {
    // Edge shape (no dimension a multiple of MR/NR/KC) and a multi-panel one.
    check_epilogue_bitwise<float>(op, 67, 45, 300);
    check_epilogue_bitwise<float>(op, 130, 517, 260);
    check_epilogue_bitwise<double>(op, 67, 45, 300);
  }
  // The decode shape: a few slot rows, one tile edge in each dimension.
  check_epilogue_bitwise<float>(ok::Epilogue::BiasGelu, 4, 16, 64);
  check_epilogue_bitwise<double>(ok::Epilogue::BiasGelu, 4, 16, 64);
}

TEST(KernelGemmEpilogue, DegenerateKStillAppliesEpilogue) {
  // k == 0 with beta == 0 zero-fills C and must still run the epilogue tail
  // (bias over zeros), matching the unfused sequence.
  const index_t m = 9, n = 21;
  auto bias = random_buffer<float>(n, 5);
  ok::EpilogueArgs<float> ep;
  ep.op = ok::Epilogue::BiasAdd;
  ep.bias = bias.data();
  std::vector<float> C(static_cast<std::size_t>(m * n),
                       std::numeric_limits<float>::quiet_NaN());
  const float* null_ab = nullptr;
  ok::gemm_ex(C.data(), null_ab, null_ab, m, n, /*k=*/0, 1, n, n, ok::Trans::No,
              ok::Trans::No, 1.0f, 0.0f, ep);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) ASSERT_EQ(C[i * n + j], bias[j]);
}

// A rows×cols matrix stored with row stride ld > cols: the padding holds NaN,
// so a padding element that reaches a stored element of C shows up, and the
// buffer ends exactly at the last live element, so the ASan pass catches any
// read past it.
template <typename T>
std::vector<T> padded_matrix(index_t rows, index_t cols, index_t ld, std::uint64_t seed) {
  std::vector<T> v(static_cast<std::size_t>((rows - 1) * ld + cols),
                   std::numeric_limits<T>::quiet_NaN());
  const auto live = random_buffer<T>(rows * cols, seed);
  for (index_t r = 0; r < rows; ++r) {
    std::copy_n(live.data() + r * cols, cols, v.data() + r * ld);
  }
  return v;
}

// A product one register strip tall (m ≤ MR) with B not transposed reads B in
// place. For every such m, n within one strip, across strips and across the
// 1024-column panel, k within one KC panel and across two, 1 and 4 threads
// and every epilogue, each element must be the reference fold followed by
// the unfused epilogue, bit for bit.
template <typename T>
void check_in_place_b() {
  const index_t MR = ok::gemm_tile_rows<T>();
  const index_t NR = ok::gemm_tile_cols<T>();
  const bool fused = kernel_fuses_multiply_add<T>();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (const index_t k : {index_t{7}, index_t{513}}) {
    for (const index_t n : {index_t{1}, NR + 3, index_t{1100}}) {
      const index_t ldb = n + 5;
      const auto B = padded_matrix<T>(k, n, ldb, 500 + n + k);
      const auto bias = random_buffer<T>(n, 501);
      for (index_t m = 1; m <= MR; ++m) {
        const auto A = random_buffer<T>(m * k, 502 + m);
        const auto res = random_buffer<T>(m * n, 503 + m);
        const T alpha = m % 2 == 0 ? T{-0.5} : T{1};
        const T beta = m % 3 == 0 ? T{0.5} : T{0};
        const std::vector<T> c0 = beta == T{0}
                                      ? std::vector<T>(static_cast<std::size_t>(m * n), nan)
                                      : random_buffer<T>(m * n, 504 + m);
        std::vector<T> fold(c0.size());
        for (index_t i = 0; i < m; ++i) {
          for (index_t j = 0; j < n; ++j) {
            fold[i * n + j] = reference_fold(A.data(), B.data(), i, j, k, k, ldb, ok::Trans::No,
                                             ok::Trans::No, alpha, beta, c0[i * n + j], fused);
          }
        }
        for (const ok::Epilogue op : {ok::Epilogue::None, ok::Epilogue::BiasAdd,
                                      ok::Epilogue::BiasGelu, ok::Epilogue::ResidualAdd}) {
          std::vector<T> want = fold;
          std::vector<T> want_pre(c0.size(), T{0});
          epilogue_reference<T>(op, want.data(), bias.data(), res.data(), want_pre.data(), m, n);
          std::vector<T> got_pre(c0.size(), T{0});
          ok::EpilogueArgs<T> ep;
          ep.op = op;
          ep.bias = bias.data();
          if (op == ok::Epilogue::ResidualAdd) {
            ep.residual = res.data();
            ep.ldr = n;
          }
          if (op == ok::Epilogue::BiasGelu) {
            ep.pre = got_pre.data();
            ep.ldp = n;
          }
          for (const int threads : {1, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << "bytes=" << sizeof(T) << " m=" << m << " n=" << n << " k=" << k
                         << " op=" << int(op) << " threads=" << threads);
            ok::set_threads(threads);
            std::vector<T> got = c0;
            std::fill(got_pre.begin(), got_pre.end(), T{0});
            ok::gemm_ex(got.data(), A.data(), B.data(), m, n, k, k, ldb, n, ok::Trans::No,
                        ok::Trans::No, alpha, beta, ep);
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(T)))
                << "differs from the fold + unfused epilogue";
            if (op == ok::Epilogue::BiasGelu) {
              ASSERT_EQ(0, std::memcmp(want_pre.data(), got_pre.data(),
                                       want_pre.size() * sizeof(T)))
                  << "pre-activation differs";
            }
          }
        }
      }
    }
  }
  ok::set_threads(0);
}

TEST(KernelGemm, OneStripProductsReadBInPlace) {
  check_in_place_b<float>();
  check_in_place_b<double>();
}

// Transposed B is packed W×W blocks at a time through an in-register
// transpose. With n not a multiple of the vector width, k on both sides of
// it and across a KC panel, and B's rows ldb > k apart with NaN padding,
// each element must be the reference fold bit for bit, on 1 and 4 threads.
template <typename T>
void check_transposed_pack() {
  const index_t MR = ok::gemm_tile_rows<T>();
  const index_t NR = ok::gemm_tile_cols<T>();
  const bool fused = kernel_fuses_multiply_add<T>();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  int case_idx = 0;
  for (const index_t k : {index_t{1}, index_t{7}, index_t{9}, index_t{16}, index_t{17},
                          index_t{257}}) {
    for (const index_t n : {index_t{1}, index_t{3}, index_t{17}, NR - 1, NR + 5, 2 * NR + 9}) {
      for (const index_t m : {index_t{1}, index_t{4}, MR + 1}) {
        ++case_idx;
        const index_t ldb = k + 3;
        const auto B = padded_matrix<T>(n, k, ldb, 600 + case_idx);
        const auto A = random_buffer<T>(m * k, 700 + case_idx);
        const T beta = case_idx % 2 == 0 ? T{1} : T{0};
        const std::vector<T> c0 = beta == T{0}
                                      ? std::vector<T>(static_cast<std::size_t>(m * n), nan)
                                      : random_buffer<T>(m * n, 800 + case_idx);
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message() << "bytes=" << sizeof(T) << " m=" << m << " n="
                                            << n << " k=" << k << " threads=" << threads);
          ok::set_threads(threads);
          std::vector<T> got = c0;
          ok::gemm(got.data(), A.data(), B.data(), m, n, k, k, ldb, n, ok::Trans::No,
                   ok::Trans::Yes, T{1}, beta);
          for (index_t i = 0; i < m; ++i) {
            for (index_t j = 0; j < n; ++j) {
              const T want = reference_fold(A.data(), B.data(), i, j, k, k, ldb, ok::Trans::No,
                                            ok::Trans::Yes, T{1}, beta, c0[i * n + j], fused);
              ASSERT_EQ(0, std::memcmp(&want, &got[i * n + j], sizeof(T)))
                  << "at " << i << "," << j << ": " << got[i * n + j] << " vs fold " << want;
            }
          }
        }
      }
    }
  }
  ok::set_threads(0);
}

TEST(KernelGemm, TransposedPackMatchesTheFold) {
  check_transposed_pack<float>();
  check_transposed_pack<double>();
}

TEST(KernelGemm, BetaZeroStoresOverNaN) {
  // beta == 0 must *store*, never scale: a C buffer full of NaN (as carved
  // from an uninitialised Arena) must come out finite.
  const index_t m = 37, n = 41, k = 53;
  auto A = random_buffer<float>(m * k, 1);
  auto B = random_buffer<float>(k * n, 2);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  gemm_reference(want.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                 ok::Trans::No, 1.0f, 0.0f);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (auto* path : {"packed", "threaded", "ops"}) {
    std::vector<float> C(static_cast<std::size_t>(m * n), nan);
    if (std::string(path) == "packed") {
      ok::gemm_packed(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                      ok::Trans::No, 1.0f, 0.0f);
    } else if (std::string(path) == "threaded") {
      ok::set_threads(4);
      ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
               1.0f, 0.0f);
      ok::set_threads(0);
    } else {
      ops::gemm_raw(C.data(), A.data(), B.data(), m, n, k, k, n, n, ops::Trans::No,
                    ops::Trans::No, 1.0f, 0.0f);
    }
    for (std::size_t i = 0; i < C.size(); ++i) {
      ASSERT_TRUE(std::isfinite(C[i])) << path << " left non-finite at " << i;
      ASSERT_NEAR(C[i], want[i], 1e-4f) << path << " wrong at " << i;
    }
  }
  // Degenerate k == 0 with beta == 0 must also store zeros, not NaN·0.
  std::vector<float> C(static_cast<std::size_t>(m * n), nan);
  ok::gemm_packed(C.data(), A.data(), B.data(), m, n, /*k=*/0, k, n, n, ok::Trans::No,
                  ok::Trans::No, 1.0f, 0.0f);
  for (float v : C) ASSERT_EQ(v, 0.0f);
}

// The reference tanh, rounded once to T: double for f32, long double for f64.
float tanh_reference(float x) { return static_cast<float>(std::tanh(static_cast<double>(x))); }
double tanh_reference(double x) {
  return static_cast<double>(std::tanh(static_cast<long double>(x)));
}

template <typename T>
T kernel_tanh(T x) {
  T y{};
  ok::tanh(&x, &y, 1);
  return y;
}

template <typename T>
void check_tanh_special_values() {
  using L = std::numeric_limits<T>;
  SCOPED_TRACE(sizeof(T) == 4 ? "f32" : "f64");
  // ±0 keep their sign.
  const T pz = kernel_tanh(T{0});
  const T nz = kernel_tanh(-T{0});
  EXPECT_TRUE(pz == T{0} && !std::signbit(pz));
  EXPECT_TRUE(nz == T{0} && std::signbit(nz));
  // NaN propagates, whatever its sign.
  EXPECT_TRUE(std::isnan(kernel_tanh(L::quiet_NaN())));
  EXPECT_TRUE(std::isnan(kernel_tanh(-L::quiet_NaN())));
  // ±inf and everything from the saturation clamp (10 in f32, 20 in f64) on
  // give exactly ±1.
  const T clamp = sizeof(T) == 4 ? T{10} : T{20};
  for (const T x : {L::infinity(), L::max(), T{1e30}, T{25}, clamp}) {
    EXPECT_EQ(kernel_tanh(x), T{1}) << x;
    EXPECT_EQ(kernel_tanh(-x), T{-1}) << -x;
  }
  // Subnormals (and the smallest normal) return themselves.
  for (const T x : {L::denorm_min(), T{3} * L::denorm_min(), L::min() - L::denorm_min(),
                    L::min()}) {
    EXPECT_EQ(kernel_tanh(x), x) << x;
    EXPECT_EQ(kernel_tanh(-x), -x) << -x;
  }
  // Both sides of the polynomial/exp split at 0.625 and of the f32 (10) and
  // f64 (20) clamps: within 1 ULP of the reference, and monotone across each.
  for (const T edge : {T{0.625}, T{10}, T{20}}) {
    const T below = std::nextafter(edge, T{0});
    const T above = std::nextafter(edge, T{100});
    T prev = kernel_tanh(std::nextafter(below, T{0}));
    for (const T x : {below, edge, above}) {
      const T got = kernel_tanh(x);
      EXPECT_LE(optimus::testing::ulp_distance(got, tanh_reference(x)), 1u) << x;
      EXPECT_EQ(kernel_tanh(-x), -got) << x;
      EXPECT_GE(got, prev) << x;
      prev = got;
    }
  }
}

TEST(KernelTanh, SpecialValues) {
  check_tanh_special_values<float>();
  check_tanh_special_values<double>();
}

TEST(KernelGelu, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float x : {nan, -nan}) {
    float y = 0, dx = 0;
    const float dy = 1;
    ok::gelu(&x, &y, 1);
    ok::gelu_backward(&x, &dy, &dx, 1, /*accumulate=*/false);
    EXPECT_TRUE(std::isnan(y));
    EXPECT_TRUE(std::isnan(dx));
  }
}

// An element's bits depend on its own value only: for every n up to two full
// AVX-512 vectors plus one and several misalignments, a call over n elements
// equals n one-element calls, bitwise, for tanh, GELU forward and GELU
// backward (plain and accumulating).
template <typename T>
void check_elementwise_lanes() {
  constexpr index_t kMaxLanes = 64 / sizeof(T);
  optimus::util::Rng rng(17);
  std::vector<T> x(3 * kMaxLanes + 8), dy(x.size()), dx0(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Magnitudes from 1e-4 to 1e2, both branches of tanh and its clamp.
    x[i] = static_cast<T>(rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-4, 2)));
    dy[i] = static_cast<T>(rng.uniform(-1, 1));
    dx0[i] = static_cast<T>(rng.uniform(-1, 1));
  }
  x[1] = T{0};
  x[2] = -T{0};
  for (index_t n = 1; n <= 2 * kMaxLanes + 1; ++n) {
    for (const index_t off : {index_t{0}, index_t{1}, index_t{3}, kMaxLanes - 1}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " offset=" << off);
      const T* xs = x.data() + off;
      std::vector<T> t(n), g(n), gb(n), ga(dx0.begin() + off, dx0.begin() + off + n);
      ok::tanh(xs, t.data(), n);
      ok::gelu(xs, g.data(), n);
      ok::gelu_backward(xs, dy.data() + off, gb.data(), n, /*accumulate=*/false);
      ok::gelu_backward(xs, dy.data() + off, ga.data(), n, /*accumulate=*/true);
      for (index_t i = 0; i < n; ++i) {
        T t1{}, g1{}, gb1{}, ga1 = dx0[off + i];
        ok::tanh(xs + i, &t1, 1);
        ok::gelu(xs + i, &g1, 1);
        ok::gelu_backward(xs + i, dy.data() + off + i, &gb1, 1, false);
        ok::gelu_backward(xs + i, dy.data() + off + i, &ga1, 1, true);
        ASSERT_EQ(0, std::memcmp(&t[i], &t1, sizeof(T))) << "tanh at " << i;
        ASSERT_EQ(0, std::memcmp(&g[i], &g1, sizeof(T))) << "gelu at " << i;
        ASSERT_EQ(0, std::memcmp(&gb[i], &gb1, sizeof(T))) << "gelu_backward at " << i;
        ASSERT_EQ(0, std::memcmp(&ga[i], &ga1, sizeof(T))) << "accumulating at " << i;
      }
    }
  }
}

TEST(KernelGelu, EachElementIndependentOfLaneAndLength) {
  check_elementwise_lanes<float>();
  check_elementwise_lanes<double>();
}

TEST(KernelRowOps, DeterministicAcrossThreadCounts) {
  // A row-parallel kernel (softmax) and a column-parallel reduction
  // (bias_grad) must both be bitwise thread-count independent.
  using optimus::tensor::Shape;
  using optimus::tensor::TensorT;
  const index_t rows = 97, cols = 201;
  TensorT<float> x(Shape{rows, cols});
  optimus::util::Rng rng(3);
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform(-4, 4));

  TensorT<float> y1(Shape{rows, cols}), y4(Shape{rows, cols});
  TensorT<float> g1(Shape{cols}), g4(Shape{cols});

  ok::set_threads(1);
  ops::softmax_lastdim(x, y1);
  ops::bias_grad(x, g1, /*accumulate=*/false);
  ok::set_threads(4);
  ops::softmax_lastdim(x, y4);
  ops::bias_grad(x, g4, /*accumulate=*/false);
  ok::set_threads(0);

  EXPECT_EQ(0, std::memcmp(y1.data(), y4.data(), sizeof(float) * y1.numel()));
  EXPECT_EQ(0, std::memcmp(g1.data(), g4.data(), sizeof(float) * g1.numel()));
}

TEST(KernelThreadBudget, SharedWithDevices) {
  ok::set_threads(8);
  EXPECT_EQ(ok::configured_threads(), 8);
  EXPECT_EQ(ok::effective_threads(), 8);
  {
    ok::ActiveDevicesGuard guard(4);
    EXPECT_EQ(ok::active_devices(), 4);
    EXPECT_EQ(ok::effective_threads(), 2);  // 8 / 4
    {
      ok::ActiveDevicesGuard nested(12);
      EXPECT_EQ(ok::active_devices(), 16);
      EXPECT_EQ(ok::effective_threads(), 1);  // floor at 1
    }
    EXPECT_EQ(ok::active_devices(), 4);
  }
  EXPECT_EQ(ok::active_devices(), 0);
  ok::set_threads(0);
  EXPECT_GE(ok::configured_threads(), 1);
}

TEST(KernelThreadPool, CoversEveryChunkExactlyOnce) {
  ok::set_threads(4);
  const index_t n = 1000, grain = 7;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  ok::ThreadPool::global().parallel_for(n, grain, [&](index_t b, index_t e) {
    EXPECT_LT(b, e);
    EXPECT_LE(e - b, grain);
    for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  ok::set_threads(0);
}

TEST(KernelThreadPool, PropagatesExceptions) {
  ok::set_threads(4);
  EXPECT_THROW(
      ok::ThreadPool::global().parallel_for(100, 1,
                                            [&](index_t b, index_t) {
                                              if (b == 57) throw std::runtime_error("boom");
                                            }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  ok::ThreadPool::global().parallel_for(10, 1, [&](index_t, index_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
  ok::set_threads(0);
}

TEST(KernelThreadPool, ParallelRegionTidsAndBarrier) {
  // SPMD contract: each participant sees a distinct tid in [0, nthreads), all
  // agree on nthreads, and a barrier separates phases — every participant's
  // phase-1 write must be visible to every participant's phase-2 read.
  ok::set_threads(4);
  std::vector<std::atomic<int>> seen(8);
  for (auto& s : seen) s.store(0);
  std::atomic<int> phase1_sum{0};
  std::atomic<bool> ok_flag{true};
  const int actual =
      ok::ThreadPool::global().parallel_region(4, [&](ok::Region& r) {
        EXPECT_GE(r.tid(), 0);
        EXPECT_LT(r.tid(), r.nthreads());
        seen[static_cast<std::size_t>(r.tid())].fetch_add(1);
        phase1_sum.fetch_add(r.tid() + 1);
        r.barrier();
        // Everyone contributed before anyone passed the barrier.
        const int want = r.nthreads() * (r.nthreads() + 1) / 2;
        if (phase1_sum.load() != want) ok_flag.store(false);
        r.barrier();
      });
  EXPECT_GE(actual, 1);
  EXPECT_LE(actual, 4);
  EXPECT_TRUE(ok_flag.load());
  for (int t = 0; t < actual; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].load(), 1) << "tid " << t;
  for (std::size_t t = static_cast<std::size_t>(actual); t < seen.size(); ++t)
    EXPECT_EQ(seen[t].load(), 0) << "tid " << t;
  ok::set_threads(0);
}

TEST(KernelThreadPool, ParallelRegionReusableBackToBack) {
  // The persistent region must be cheap to re-enter: many consecutive regions
  // (the SUMMA k-loop pattern) with claim counters, all covered exactly once.
  ok::set_threads(4);
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits) h.store(0);
    std::atomic<std::size_t> next{0};
    ok::ThreadPool::global().parallel_region(4, [&](ok::Region& r) {
      (void)r;
      for (std::size_t i = next.fetch_add(1); i < hits.size(); i = next.fetch_add(1))
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
  }
  ok::set_threads(0);
}

TEST(KernelThreadPool, NestedRegionsRunInline) {
  // A nested region on a worker thread may be collapsed to a single inline
  // body(0, n) call, so count *covered indices*, not invocations: the range
  // must be covered exactly once either way, with no deadlock.
  ok::set_threads(4);
  std::atomic<int> total{0};
  ok::ThreadPool::global().parallel_for(8, 1, [&](index_t, index_t) {
    ok::ThreadPool::global().parallel_for(
        5, 1, [&](index_t b, index_t e) { total += static_cast<int>(e - b); });
  });
  EXPECT_EQ(total.load(), 40);
  ok::set_threads(0);
}

}  // namespace
