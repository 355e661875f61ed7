// Portable microkernel tier: the exact loop shapes the tensor ops used
// before runtime dispatch existed, factored behind the Kernels table. With
// OpenMP these auto-vectorize to whatever the *baseline* target ISA offers
// (SSE2 on x86-64 unless DIAGNET_NATIVE is re-enabled); correctness never
// depends on that, only throughput.
#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.h"

namespace diagnet::tensor::detail {

namespace {

void scalar_axpy4(double* c, const double* b0, const double* b1,
                  const double* b2, const double* b3, double a0, double a1,
                  double a2, double a3, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j)
    c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
}

void scalar_axpy1(double* c, const double* b, double alpha, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) c[j] += alpha * b[j];
}

// Same fused-group structure as the tiled GEMM row loop (groups of four
// ascending k, remainder one at a time), so scalar gemv == scalar gemm on
// a 1-row operand bit-for-bit whatever the compiler does to either loop.
void scalar_gemv(double* c, const double* a, const double* b, std::size_t k,
                 std::size_t n, std::size_t ldb) {
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    scalar_axpy4(c, b + kk * ldb, b + (kk + 1) * ldb, b + (kk + 2) * ldb,
                 b + (kk + 3) * ldb, a[kk], a[kk + 1], a[kk + 2], a[kk + 3],
                 n);
  for (; kk < k; ++kk) scalar_axpy1(c, b + kk * ldb, a[kk], n);
}

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) s += a[j] * b[j];
  return s;
}

double scalar_reduce_sum(const double* v, std::size_t n) {
  double s = 0.0;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) s += v[j];
  return s;
}

double scalar_reduce_sq_dev(const double* v, std::size_t n, double mean) {
  double s = 0.0;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) {
    const double d = v[j] - mean;
    s += d * d;
  }
  return s;
}

double scalar_reduce_max(const double* v, std::size_t n) {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) m = std::max(m, v[j]);
  return m;
}

void scalar_scale_div(double* v, double denom, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) v[j] /= denom;
}

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels table = {
      "scalar",          scalar_axpy4,      scalar_axpy1,
      scalar_gemv,       scalar_dot,        scalar_reduce_sum,
      scalar_reduce_sq_dev, scalar_reduce_max, scalar_scale_div,
  };
  return table;
}

}  // namespace diagnet::tensor::detail
