#pragma once

// Vectorized elementwise routines: tanh, the GELU forward and backward built
// on it, and the Adam update.
//
// Every GELU in the program — the fused BiasGelu GEMM epilogue,
// ops::bias_gelu_, ops::gelu_forward and ops::gelu_backward — runs these two
// GELU routines, so every engine computes the same bits for the same input.
//
// Lane independence: y[i] depends on x[i] alone. Full vectors and the last
// partial vector run one vector body (the partial one through masked loads
// and stores, never a scalar tail loop), so an element's bits depend neither
// on where it sits in the buffer, nor on n, nor on how a caller chunks the
// buffer across threads. In-place calls (y == x, dx == dy) are allowed.
//
// The routines are compiled without floating-point contraction: each
// operation rounds as written. That is what keeps adam_update bitwise equal
// to its scalar formulation, and it makes the tanh bits independent of
// whether the target has fused multiply-add. No operation crosses lanes, so
// the vector width does not change them either.
//
// tanh accuracy (tools/tanh_ulp_sweep, gated at 2 ULP): at most 1 ULP from
// the correctly rounded result over all 2³² f32 inputs and 10⁸ log-uniform
// f64 samples; ±0 keep their sign, NaN propagates, ±inf give ±1, subnormals
// return themselves.

#include "kernel/gemm.hpp"

namespace optimus::kernel {

/// y[i] = tanh(x[i]) for i < n.
template <typename T>
void tanh(const T* x, T* y, index_t n);

/// GELU, tanh approximation: y[i] = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
template <typename T>
void gelu(const T* x, T* y, index_t n);

/// GELU backward: dx[i] = gelu'(x[i])·dy[i], or dx[i] += gelu'(x[i])·dy[i]
/// when `accumulate`. gelu' uses the same tanh value the forward computes.
template <typename T>
void gelu_backward(const T* x, const T* dy, T* dx, index_t n, bool accumulate);

/// Per-step constants of an Adam update (bias corrections included).
template <typename T>
struct AdamCoefficients {
  T beta1, one_minus_beta1;  // first-moment decay and its complement
  T beta2, one_minus_beta2;  // second-moment decay and its complement
  T bias1, bias2;            // 1 − β₁ᵗ and 1 − β₂ᵗ
  T eps, weight_decay, lr;
};

/// One Adam step over n elements; per element, in this order:
///   m = β₁·m + (1−β₁)·g
///   v = β₂·v + ((1−β₂)·g)·g
///   p −= lr·((m / bias1) / (√(v / bias2) + eps) + wd·p)
/// Vectorized, but every element rounds exactly as this scalar sequence does.
/// p, g, m and v must not overlap.
template <typename T>
void adam_update(T* p, const T* g, T* m, T* v, index_t n, const AdamCoefficients<T>& c);

}  // namespace optimus::kernel
