// The microkernel table behind tensor::dispatch. Each tier fills one
// `Kernels` struct with raw-pointer primitives; ops.cpp (GEMM/GEMV/
// reductions), nn::LandPooling and nn::softmax call through the active
// table. The indirection sits at the row-block / fused-group level, never
// inside an innermost loop, so the function-pointer cost is amortised over
// hundreds of multiply-adds per call.
//
// Contract every tier must honour (bit-exactness within a tier):
//  * axpy4(c, b0..b3, a0..a3, n) must equal axpy1 applied four times in
//    order (a0 first) *for that tier's own rounding*. The AVX2 tier keeps
//    this structurally (a chain of four FMAs rooted at c[j]); the scalar
//    tier keeps it by being the only implementation both paths compile to.
//  * reduce_* and dot fix their own lane-combination order, so the same
//    input always yields the same bits on the same tier.
#pragma once

#include <cstddef>

namespace diagnet::tensor::detail {

struct Kernels {
  const char* name;

  /// c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
  void (*axpy4)(double* c, const double* b0, const double* b1,
                const double* b2, const double* b3, double a0, double a1,
                double a2, double a3, std::size_t n);
  /// c[j] += alpha * b[j]
  void (*axpy1)(double* c, const double* b, double alpha, std::size_t n);
  /// c[j] += sum_k a[k] * b[k*ldb + j] — the single-row product. Each tier
  /// must produce the same bits here as its own axpy4/axpy1 groups would
  /// (ascending k), so a 1-row GEMM can take this fast path and still match
  /// the row it would have been inside a batch.
  void (*gemv)(double* c, const double* a, const double* b, std::size_t k,
               std::size_t n, std::size_t ldb);
  /// sum_j a[j] * b[j]
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// sum_j v[j]
  double (*reduce_sum)(const double* v, std::size_t n);
  /// sum_j (v[j] - mean)^2
  double (*reduce_sq_dev)(const double* v, std::size_t n, double mean);
  /// max_j v[j]; -inf when n == 0
  double (*reduce_max)(const double* v, std::size_t n);
  /// v[j] /= denom
  void (*scale_div)(double* v, double denom, std::size_t n);
};

/// The portable tier (plain loops + `#pragma omp simd`, whatever the
/// baseline ISA auto-vectorizes to). Always available.
const Kernels& scalar_kernels();

/// The AVX2+FMA tier, or nullptr when not compiled in (non-x86 builds).
/// Runtime CPU support is dispatch.cpp's problem, not this function's.
const Kernels* avx2_kernels();

/// The table selected by tensor::dispatch (cheap relaxed atomic load).
const Kernels& active_kernels();

}  // namespace diagnet::tensor::detail
