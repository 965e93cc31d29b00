#pragma once

// The kernel layer's SIMD vector type (internal to src/kernel/).
//
// Vec<T> is a vector of W = kLanes<T> elements written with plain operators,
// sized to the ISA the compiler targets (-march), chosen by its predefined
// macros: 64-byte zmm under AVX-512, 32-byte ymm under AVX, 16-byte xmm/NEON
// otherwise. IVec<T> is the integer vector of the same lane count and lane
// width (int32 lanes for float, int64 for double), for bit manipulation. Only
// the width and the partial (first n lanes) loads and stores differ per ISA.
// transpose() turns W vectors into their W×W transpose in registers.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "kernel/gemm.hpp"

namespace optimus::kernel::simd {

template <typename T>
struct IntOf;
template <>
struct IntOf<float> {
  using type = std::int32_t;
};
template <>
struct IntOf<double> {
  using type = std::int64_t;
};

#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;
#endif
template <typename T>
struct VecOf {
  typedef T type __attribute__((vector_size(kVecBytes)));
  // The same vector as an lvalue over plain, element-aligned T arrays.
  typedef T memory __attribute__((vector_size(kVecBytes), aligned(alignof(T)), may_alias));
};
#else
// Portable scalar fallback: one-lane "vectors".
template <typename T>
struct VecOf {
  using type = T;
  using memory = T;
};
#endif

template <typename T>
using Vec = typename VecOf<T>::type;
template <typename T>
using IVec = typename VecOf<typename IntOf<T>::type>::type;
template <typename T>
constexpr int kLanes = static_cast<int>(sizeof(Vec<T>) / sizeof(T));

// Whole-vector loads and stores; callers' buffers are only element-aligned.
template <typename T>
inline Vec<T> load(const T* p) {
  return *reinterpret_cast<const typename VecOf<T>::memory*>(p);
}
template <typename T>
inline void store(T* p, Vec<T> v) {
  *reinterpret_cast<typename VecOf<T>::memory*>(p) = v;
}

// The first n lanes (1 <= n <= W); a partial load zero-fills the rest, a
// partial store leaves the memory past p[n-1] untouched.
#if defined(__AVX512F__)
inline Vec<float> load_n(const float* p, int n) {
  return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1u), p);
}
inline Vec<double> load_n(const double* p, int n) {
  return _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << n) - 1u), p);
}
inline void store_n(float* p, Vec<float> v, int n) {
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1u), v);
}
inline void store_n(double* p, Vec<double> v, int n) {
  _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << n) - 1u), v);
}
#elif defined(__AVX__)
// Lane i of a mask is all ones iff i < n: a window into a run of W ones
// followed by W zeros.
inline constexpr std::int32_t kOnes32[16] = {-1, -1, -1, -1, -1, -1, -1, -1};
inline constexpr std::int64_t kOnes64[8] = {-1, -1, -1, -1};
inline __m256i lane_mask32(int n) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kOnes32 + 8 - n));
}
inline __m256i lane_mask64(int n) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kOnes64 + 4 - n));
}
inline Vec<float> load_n(const float* p, int n) {
  return _mm256_maskload_ps(p, lane_mask32(n));
}
inline Vec<double> load_n(const double* p, int n) {
  return _mm256_maskload_pd(p, lane_mask64(n));
}
inline void store_n(float* p, Vec<float> v, int n) {
  _mm256_maskstore_ps(p, lane_mask32(n), v);
}
inline void store_n(double* p, Vec<double> v, int n) {
  _mm256_maskstore_pd(p, lane_mask64(n), v);
}
#else
template <typename T>
inline Vec<T> load_n(const T* p, int n) {
  if (n == kLanes<T>) return load(p);
  T lanes[kLanes<T>] = {};
  std::copy_n(p, n, lanes);
  return load(lanes);
}
template <typename T>
inline void store_n(T* p, Vec<T> v, int n) {
  if (n == kLanes<T>) return store(p, v);
  T lanes[kLanes<T>];
  store(lanes, v);
  std::copy_n(lanes, n, p);
}
#endif

// Lane-wise conversions between Vec<T> and IVec<T>: values (truncating toward
// zero) and raw bits.
template <typename T>
inline IVec<T> to_int(Vec<T> v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_convertvector(v, IVec<T>);
#else
  return static_cast<IVec<T>>(v);
#endif
}
template <typename T>
inline Vec<T> from_int(IVec<T> v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_convertvector(v, Vec<T>);
#else
  return static_cast<Vec<T>>(v);
#endif
}
template <typename T>
inline IVec<T> bits(Vec<T> v) {
  return std::bit_cast<IVec<T>>(v);
}
template <typename T>
inline Vec<T> from_bits(IVec<T> v) {
  return std::bit_cast<Vec<T>>(v);
}

// In-register transpose of a W×W block held as W vectors: afterwards lane j
// of rows[i] holds what lane i of rows[j] held. Stage H (W/2, …, 2, 1)
// exchanges bit H of the row index with bit H of the lane index: each pair
// of rows (i, i + H), bit H of i clear, swaps its off-diagonal H-lane halves
// with two two-source shuffles. Only values move, so no bit changes.
#if defined(__GNUC__) || defined(__clang__)
constexpr int low_lane(int j, int h, int w) { return (j & h) != 0 ? w + j - h : j; }
constexpr int high_lane(int j, int h, int w) { return (j & h) != 0 ? w + j : j + h; }

template <typename T, int H, std::size_t... J>
inline void swap_off_diagonal(Vec<T>& a, Vec<T>& b, std::index_sequence<J...>) {
  constexpr int W = kLanes<T>;
  const Vec<T> lo = __builtin_shufflevector(a, b, low_lane(static_cast<int>(J), H, W)...);
  const Vec<T> hi = __builtin_shufflevector(a, b, high_lane(static_cast<int>(J), H, W)...);
  a = lo;
  b = hi;
}

template <typename T, int H>
inline void transpose_stage(Vec<T>* rows) {
  for (int i = 0; i < kLanes<T>; ++i) {
    if ((i & H) == 0) {
      swap_off_diagonal<T, H>(rows[i], rows[i + H], std::make_index_sequence<kLanes<T>>{});
    }
  }
  if constexpr (H > 1) transpose_stage<T, H / 2>(rows);
}

template <typename T>
inline void transpose(Vec<T>* rows) {
  transpose_stage<T, kLanes<T> / 2>(rows);
}
#else
template <typename T>
inline void transpose(Vec<T>*) {}  // one-lane vectors: a 1×1 block
#endif

// Covers [0, n) one vector at a time, the last one possibly partial:
// body(i, w) handles elements i .. i+w-1 with 1 <= w <= W. Callers load and
// store through load_n/store_n, so one vector body serves every element.
template <typename T, typename Body>
inline void for_each_vector(index_t n, Body&& body) {
  for (index_t i = 0; i < n; i += kLanes<T>) {
    body(i, static_cast<int>(std::min<index_t>(kLanes<T>, n - i)));
  }
}

}  // namespace optimus::kernel::simd
