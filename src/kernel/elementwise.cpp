#include "kernel/elementwise.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "kernel/simd.hpp"

namespace optimus::kernel {

namespace {

using simd::IVec;
using simd::Vec;

// Coefficients of the tanh construction, one table per dtype; the body below
// is the same for both.
//
//   |x| < 0.625:   tanh(x) = x + x·z·P(z)/Q(z), z = x² (Cephes: tanhf's odd
//                  polynomial, Q = 1, and tanh's rational).
//   otherwise:     tanh(|x|) = 1 − 2/(exp(2|x|) + 1), with |x| clamped to
//                  kSaturate, past which tanh rounds to 1.
//
// exp(y) = 2ᵏ·exp(r), k = round(y/ln2), r = y − k·ln2 (ln2 split Cody–Waite
// style so k·kLn2Hi is exact), |r| ≤ ln2/2, and exp(r) its Taylor polynomial
// Σ rʲ/j! up to kExpDegree: the first omitted term is below 1e-8 of the sum in
// f32 and 1e-17 in f64.
template <typename T>
struct TanhTable;

template <>
struct TanhTable<float> {
  static constexpr std::array<float, 5> P = {-5.70498872745e-3f, 2.06390887954e-2f,
                                             -5.37397155531e-2f, 1.33314422036e-1f,
                                             -3.33332819422e-1f};
  static constexpr std::array<float, 1> Q = {1.0f};
  static constexpr float kSaturate = 10.0f;
  static constexpr int kExpDegree = 7;
  static constexpr float kLn2Hi = 0.693359375f;
  static constexpr float kLn2Lo = -2.12194440e-4f;
};

template <>
struct TanhTable<double> {
  static constexpr std::array<double, 3> P = {-9.64399179425052238628e-1,
                                              -9.92877231001918586564e1,
                                              -1.61468768441708447952e3};
  static constexpr std::array<double, 4> Q = {1.0, 1.12811678491632931402e2,
                                              2.23548839060100448583e3,
                                              4.84406305325125486048e3};
  static constexpr double kSaturate = 20.0;
  static constexpr int kExpDegree = 13;
  static constexpr double kLn2Hi = 6.93145751953125e-1;
  static constexpr double kLn2Lo = 1.42860682030941723212e-6;
};

constexpr double kTanhSplit = 0.625;

// Σ c[i]·z^(N−1−i), highest degree first.
template <typename T, std::size_t N>
inline Vec<T> horner(Vec<T> z, const std::array<T, N>& c) {
  Vec<T> acc = Vec<T>{} + c[0];
  for (std::size_t i = 1; i < N; ++i) acc = acc * z + c[i];
  return acc;
}

// 1/j! for j = D, D−1, …, 0 (j! is exact in T for the degrees used).
template <typename T, int D>
constexpr std::array<T, D + 1> inverse_factorials() {
  std::array<T, D + 1> c{};
  T fact = 1;
  for (int j = 0; j <= D; ++j) {
    if (j > 0) fact *= static_cast<T>(j);
    c[static_cast<std::size_t>(D - j)] = T{1} / fact;
  }
  return c;
}

// exp(y) for 0 <= y <= 2·kSaturate.
template <typename T>
inline Vec<T> exp_reduced(Vec<T> y) {
  using Tab = TanhTable<T>;
  using I = typename simd::IntOf<T>::type;
  constexpr T kLog2e = static_cast<T>(1.44269504088896340736);
  constexpr int kMantissaBits = std::numeric_limits<T>::digits - 1;
  constexpr I kBias = std::numeric_limits<T>::max_exponent - 1;
  static constexpr auto kTaylor = inverse_factorials<T, Tab::kExpDegree>();
  // y >= 0, so truncation rounds y/ln2 + 1/2 down: k is the nearest integer.
  const IVec<T> k = simd::to_int<T>(y * kLog2e + T{0.5});
  const Vec<T> kf = simd::from_int<T>(k);
  const Vec<T> r = (y - kf * Tab::kLn2Hi) - kf * Tab::kLn2Lo;
  const Vec<T> two_k = simd::from_bits<T>((k + kBias) << kMantissaBits);
  return horner(r, kTaylor) * two_k;
}

template <typename T>
inline Vec<T> tanh_vec(Vec<T> x) {
  using Tab = TanhTable<T>;
  using I = typename simd::IntOf<T>::type;
  constexpr I kSign = std::numeric_limits<I>::min();
  const IVec<T> xb = simd::bits<T>(x);
  const Vec<T> ax = simd::from_bits<T>(xb & ~kSign);
  // NaN and ±inf read as the clamp here; NaN is restored at the end.
  const Vec<T> a = ax < Tab::kSaturate ? ax : Vec<T>{} + Tab::kSaturate;
  const Vec<T> z = a * a;
  const Vec<T> small = a + a * (z * (horner(z, Tab::P) / horner(z, Tab::Q)));
  const Vec<T> big = T{1} - T{2} / (exp_reduced<T>(a + a) + T{1});
  const Vec<T> mag = a < static_cast<T>(kTanhSplit) ? small : big;
  const Vec<T> r = simd::from_bits<T>(simd::bits<T>(mag) | (xb & kSign));
  return x == x ? r : x;
}

// The GELU argument √(2/π)·(x + 0.044715·x³), shared by forward and backward.
template <typename T>
inline Vec<T> gelu_inner(Vec<T> x) {
  return T{0.7978845608028654} * (x + T{0.044715} * x * x * x);
}

}  // namespace

template <typename T>
void tanh(const T* x, T* y, index_t n) {
  simd::for_each_vector<T>(n, [&](index_t i, int w) {
    simd::store_n(y + i, tanh_vec<T>(simd::load_n(x + i, w)), w);
  });
}

template <typename T>
void gelu(const T* x, T* y, index_t n) {
  simd::for_each_vector<T>(n, [&](index_t i, int w) {
    const Vec<T> v = simd::load_n(x + i, w);
    const Vec<T> t = tanh_vec<T>(gelu_inner<T>(v));
    simd::store_n(y + i, T{0.5} * v * (T{1} + t), w);
  });
}

template <typename T>
void gelu_backward(const T* x, const T* dy, T* dx, index_t n, bool accumulate) {
  simd::for_each_vector<T>(n, [&](index_t i, int w) {
    const Vec<T> v = simd::load_n(x + i, w);
    const Vec<T> t = tanh_vec<T>(gelu_inner<T>(v));
    const Vec<T> dinner = T{0.7978845608028654} * (T{1} + T{3} * T{0.044715} * v * v);
    const Vec<T> grad = T{0.5} * (T{1} + t) + T{0.5} * v * (T{1} - t * t) * dinner;
    Vec<T> out = grad * simd::load_n(dy + i, w);
    if (accumulate) out = simd::load_n(dx + i, w) + out;
    simd::store_n(dx + i, out, w);
  });
}

template <typename T>
void adam_update(T* __restrict p, const T* __restrict g, T* __restrict m, T* __restrict v,
                 index_t n, const AdamCoefficients<T>& c) {
  // A plain loop the compiler vectorizes: every operation is IEEE-exact per
  // lane (√ included; this file is built without errno-setting math and
  // without contraction), so the vector code rounds as the scalar one does.
  // The local copy tells the compiler the coefficients alias no array.
  const AdamCoefficients<T> k = c;
  for (index_t i = 0; i < n; ++i) {
    m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g[i];
    v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g[i] * g[i];
    const T mhat = m[i] / k.bias1;
    const T vhat = v[i] / k.bias2;
    p[i] -= k.lr * (mhat / (std::sqrt(vhat) + k.eps) + k.weight_decay * p[i]);
  }
}

#define OPTIMUS_INSTANTIATE_ELEMENTWISE(T)                                        \
  template void tanh<T>(const T*, T*, index_t);                                   \
  template void gelu<T>(const T*, T*, index_t);                                   \
  template void gelu_backward<T>(const T*, const T*, T*, index_t, bool);          \
  template void adam_update<T>(T*, const T*, T*, T*, index_t, const AdamCoefficients<T>&);

OPTIMUS_INSTANTIATE_ELEMENTWISE(float)
OPTIMUS_INSTANTIATE_ELEMENTWISE(double)

#undef OPTIMUS_INSTANTIATE_ELEMENTWISE

}  // namespace optimus::kernel
