// Explicit AVX2+FMA microkernels, compiled with per-function target
// attributes so the translation unit itself builds at the baseline ISA —
// the binary only executes these after dispatch.cpp has verified the CPU
// reports avx2+fma.
//
// Rounding-order contract (see kernels.h): axpy4 is a chain of four FMAs
// rooted at c[j], which is bit-identical to calling axpy1 four times — so
// on this tier the fused GEMM groups and any sequential fallback agree
// exactly. Horizontal reductions fix one lane-combination order:
// (lo128 + hi128), then lane0 + lane1.
#include "tensor/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#define DIAGNET_AVX2 __attribute__((target("avx2,fma")))

namespace diagnet::tensor::detail {

namespace {

DIAGNET_AVX2 inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

DIAGNET_AVX2 inline double hmax(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_max_pd(lo, hi);
  return std::max(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)));
}

DIAGNET_AVX2 void avx2_axpy4(double* c, const double* b0, const double* b1,
                             const double* b2, const double* b3, double a0,
                             double a1, double a2, double a3,
                             std::size_t n) {
  const __m256d va0 = _mm256_set1_pd(a0), va1 = _mm256_set1_pd(a1);
  const __m256d va2 = _mm256_set1_pd(a2), va3 = _mm256_set1_pd(a3);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_loadu_pd(c + j);
    acc = _mm256_fmadd_pd(va0, _mm256_loadu_pd(b0 + j), acc);
    acc = _mm256_fmadd_pd(va1, _mm256_loadu_pd(b1 + j), acc);
    acc = _mm256_fmadd_pd(va2, _mm256_loadu_pd(b2 + j), acc);
    acc = _mm256_fmadd_pd(va3, _mm256_loadu_pd(b3 + j), acc);
    _mm256_storeu_pd(c + j, acc);
  }
  for (; j < n; ++j) {
    // Same FMA chain as the vector body, one lane at a time.
    double acc = c[j];
    acc = std::fma(a0, b0[j], acc);
    acc = std::fma(a1, b1[j], acc);
    acc = std::fma(a2, b2[j], acc);
    acc = std::fma(a3, b3[j], acc);
    c[j] = acc;
  }
}

DIAGNET_AVX2 void avx2_axpy1(double* c, const double* b, double alpha,
                             std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm256_storeu_pd(
        c + j,
        _mm256_fmadd_pd(va, _mm256_loadu_pd(b + j), _mm256_loadu_pd(c + j)));
  for (; j < n; ++j) c[j] = std::fma(alpha, b[j], c[j]);
}

/// Single-row product in the exact fused-group structure of the tiled
/// GEMM row loop (groups of four ascending k via axpy4, remainder via
/// axpy1) — streaming B in memory order keeps the prefetcher happy, and
/// bit-equality with the batch path is by construction. (A register-
/// blocked column variant was measured slower here: its 4 KiB row stride
/// per k step defeats prefetch on the 1.3 MB weight panels.)
DIAGNET_AVX2 void avx2_gemv(double* c, const double* a, const double* b,
                            std::size_t k, std::size_t n, std::size_t ldb) {
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    avx2_axpy4(c, b + kk * ldb, b + (kk + 1) * ldb, b + (kk + 2) * ldb,
               b + (kk + 3) * ldb, a[kk], a[kk + 1], a[kk + 2], a[kk + 3],
               n);
  for (; kk < k; ++kk) avx2_axpy1(c, b + kk * ldb, a[kk], n);
}

/// Four independent accumulators for ILP; the lane-combination order
/// ((acc0+acc1)+(acc2+acc3), then hsum) is fixed, so the same input always
/// reduces the same way on this tier.
DIAGNET_AVX2 double avx2_dot(const double* a, const double* b,
                             std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 8),
                           _mm256_loadu_pd(b + j + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 12),
                           _mm256_loadu_pd(b + j + 12), acc3);
  }
  for (; j + 4 <= n; j += 4)
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
  double s = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                _mm256_add_pd(acc2, acc3)));
  for (; j < n; ++j) s = std::fma(a[j], b[j], s);
  return s;
}

/// Below this span the vector reductions lose to a plain loop: the
/// broadcast/horizontal-combine overhead is fixed while the work shrinks.
/// LandPooling reduces over the available landmarks (~10), so its single-
/// sample path lives entirely under this threshold — measured, the vector
/// body made pooling *slower* than the scalar tier there. The short path
/// runs the identical sequential order the scalar tier uses, so the
/// choice is still a pure function of n (deterministic per tier).
constexpr std::size_t kSmallReduce = 16;

DIAGNET_AVX2 double avx2_reduce_sum(const double* v, std::size_t n) {
  if (n < kSmallReduce) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += v[j];
    return s;
  }
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + j));
  double s = hsum(acc);
  for (; j < n; ++j) s += v[j];
  return s;
}

DIAGNET_AVX2 double avx2_reduce_sq_dev(const double* v, std::size_t n,
                                       double mean) {
  if (n < kSmallReduce) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = v[j] - mean;
      s += d * d;
    }
    return s;
  }
  const __m256d vm = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + j), vm);
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double s = hsum(acc);
  for (; j < n; ++j) {
    const double d = v[j] - mean;
    s = std::fma(d, d, s);
  }
  return s;
}

DIAGNET_AVX2 double avx2_reduce_max(const double* v, std::size_t n) {
  double m = -std::numeric_limits<double>::infinity();
  if (n < kSmallReduce) {
    for (std::size_t j = 0; j < n; ++j) m = std::max(m, v[j]);
    return m;
  }
  __m256d acc = _mm256_set1_pd(m);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(v + j));
  m = hmax(acc);
  for (; j < n; ++j) m = std::max(m, v[j]);
  return m;
}

DIAGNET_AVX2 void avx2_scale_div(double* v, double denom, std::size_t n) {
  const __m256d vd = _mm256_set1_pd(denom);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm256_storeu_pd(v + j, _mm256_div_pd(_mm256_loadu_pd(v + j), vd));
  for (; j < n; ++j) v[j] /= denom;
}

}  // namespace

const Kernels* avx2_kernels() {
  static const Kernels table = {
      "avx2",          avx2_axpy4,      avx2_axpy1,
      avx2_gemv,       avx2_dot,        avx2_reduce_sum,
      avx2_reduce_sq_dev, avx2_reduce_max, avx2_scale_div,
  };
  return &table;
}

}  // namespace diagnet::tensor::detail

#else  // non-x86 (or unsupported compiler): no AVX2 tier in this binary.

namespace diagnet::tensor::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace diagnet::tensor::detail

#endif
