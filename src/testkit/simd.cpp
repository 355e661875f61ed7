#include "testkit/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "tensor/dispatch.h"
#include "tensor/kernels.h"
#include "testkit/gen.h"

namespace diagnet::testkit {

namespace {

using tensor::detail::Kernels;

// Same-precision reordering tolerance as the GEMM oracle suites.
constexpr double kSumTol = 1e-10;

/// Spans that cross every kernel regime: empty, below the 4-lane width,
/// exactly at it, the avx2 small-reduce threshold (16) and its neighbours,
/// and a couple of long random spans for the unrolled bodies.
std::vector<std::size_t> spans(util::Rng& rng) {
  return {0,  1,  3,  4,  5,  15, 16, 17,
          gen::dim(rng, 33, 96), gen::dim(rng, 200, 600)};
}

std::vector<double> vec(util::Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal() * scale;
  return v;
}

/// Every tier this binary can actually run here. Scalar is always first.
std::vector<const Kernels*> runnable_tiers() {
  std::vector<const Kernels*> tiers = {&tensor::detail::scalar_kernels()};
  if (tensor::kernel_tier_supported(tensor::KernelTier::kAvx2))
    tiers.push_back(tensor::detail::avx2_kernels());
  return tiers;
}

void check_one_tier(CaseContext& ctx, const Kernels& K, std::size_t n,
                    util::Rng& rng) {
  const std::string tag =
      std::string(" [") + K.name + " n=" + std::to_string(n) + "]";

  const std::vector<double> a = vec(rng, n);
  const std::vector<double> b = vec(rng, n);

  // dot vs long-double reference.
  long double want_dot = 0.0L;
  for (std::size_t j = 0; j < n; ++j)
    want_dot += static_cast<long double>(a[j]) * b[j];
  ctx.check_near(K.dot(a.data(), b.data(), n),
                 static_cast<double>(want_dot), kSumTol, "dot" + tag);

  // reduce_sum / reduce_sq_dev.
  long double want_sum = 0.0L;
  for (double x : a) want_sum += x;
  ctx.check_near(K.reduce_sum(a.data(), n), static_cast<double>(want_sum),
                 kSumTol, "reduce_sum" + tag);
  const double mean = n > 0 ? static_cast<double>(want_sum) / n : 0.0;
  long double want_sq = 0.0L;
  for (double x : a) {
    const long double d = static_cast<long double>(x) - mean;
    want_sq += d * d;
  }
  ctx.check_near(K.reduce_sq_dev(a.data(), n, mean),
                 static_cast<double>(want_sq), kSumTol,
                 "reduce_sq_dev" + tag);

  // reduce_max is exact (no rounding), and the n == 0 edge is part of the
  // contract: -inf.
  double want_max = -std::numeric_limits<double>::infinity();
  for (double x : a) want_max = std::max(want_max, x);
  ctx.check(K.reduce_max(a.data(), n) == want_max, "reduce_max" + tag);

  // axpy1 vs reference (fma-per-lane tolerance is still within kSumTol).
  const double alpha = rng.normal();
  std::vector<double> c = vec(rng, n);
  std::vector<double> c1 = c;
  K.axpy1(c1.data(), b.data(), alpha, n);
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double want = static_cast<double>(
        static_cast<long double>(c[j]) + static_cast<long double>(alpha) * b[j]);
    worst = std::max(worst, std::fabs(c1[j] - want) /
                                std::max(std::fabs(want), 1.0));
  }
  ctx.check_near(worst, 0.0, kSumTol, "axpy1" + tag);

  // axpy4 vs long-double reference. On the AVX2 tier the fused group is
  // additionally bit-identical to four ordered axpy1 calls (its FMA chain
  // is rooted at c[j]); the scalar tier sums the four products in one
  // expression, so there it only has to be *near* the sequential result —
  // its batch/single equality comes from both paths calling this same
  // axpy4, which the gemv-composition check below pins.
  const std::vector<double> b0 = vec(rng, n), b1 = vec(rng, n);
  const std::vector<double> b2 = vec(rng, n), b3 = vec(rng, n);
  const double a0 = rng.normal(), a1 = rng.normal();
  const double a2 = rng.normal(), a3 = rng.normal();
  std::vector<double> fused = c;
  K.axpy4(fused.data(), b0.data(), b1.data(), b2.data(), b3.data(), a0, a1,
          a2, a3, n);
  double worst4 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double want = static_cast<double>(
        static_cast<long double>(c[j]) + static_cast<long double>(a0) * b0[j] +
        static_cast<long double>(a1) * b1[j] +
        static_cast<long double>(a2) * b2[j] +
        static_cast<long double>(a3) * b3[j]);
    worst4 = std::max(worst4, std::fabs(fused[j] - want) /
                                  std::max(std::fabs(want), 1.0));
  }
  ctx.check_near(worst4, 0.0, kSumTol, "axpy4" + tag);
  if (std::string(K.name) == "avx2") {
    std::vector<double> seq = c;
    K.axpy1(seq.data(), b0.data(), a0, n);
    K.axpy1(seq.data(), b1.data(), a1, n);
    K.axpy1(seq.data(), b2.data(), a2, n);
    K.axpy1(seq.data(), b3.data(), a3, n);
    ctx.check(fused == seq, "axpy4 == 4x axpy1 bitwise" + tag);
  }

  // scale_div vs plain division (exact: same single fp op per lane).
  const double denom = 1.0 + std::fabs(rng.normal()) * 3.0;
  std::vector<double> scaled = c;
  K.scale_div(scaled.data(), denom, n);
  bool div_exact = true;
  for (std::size_t j = 0; j < n; ++j)
    div_exact = div_exact && scaled[j] == c[j] / denom;
  ctx.check(div_exact, "scale_div" + tag);
}

void check_gemv_tier(CaseContext& ctx, const Kernels& K, std::size_t k,
                     std::size_t n, util::Rng& rng) {
  const std::string tag = std::string(" [") + K.name + " k=" +
                          std::to_string(k) + " n=" + std::to_string(n) +
                          "]";
  const std::vector<double> a = vec(rng, k);
  const std::vector<double> b = vec(rng, k * n);
  std::vector<double> c0 = vec(rng, n);

  // Zero-row (k == 0) and zero-col (n == 0) must be well-defined no-ops.
  std::vector<double> c = c0;
  K.gemv(c.data(), a.data(), b.data(), k, n, n);
  if (k == 0 || n == 0) {
    ctx.check(c == c0, "gemv zero-shape is a no-op" + tag);
    return;
  }

  long double worst = 0.0L;
  for (std::size_t j = 0; j < n; ++j) {
    long double want = c0[j];
    for (std::size_t kk = 0; kk < k; ++kk)
      want += static_cast<long double>(a[kk]) * b[kk * n + j];
    const long double w = std::fabs(static_cast<long double>(c[j]) - want) /
                          std::max<long double>(std::fabs(want), 1.0L);
    worst = std::max(worst, w);
  }
  ctx.check_near(static_cast<double>(worst), 0.0, kSumTol, "gemv" + tag);

  // gemv must equal its own tier's grouped axpy composition bitwise — the
  // 1-row GEMM fast path depends on this.
  std::vector<double> grouped = c0;
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    K.axpy4(grouped.data(), &b[kk * n], &b[(kk + 1) * n], &b[(kk + 2) * n],
            &b[(kk + 3) * n], a[kk], a[kk + 1], a[kk + 2], a[kk + 3], n);
  for (; kk < k; ++kk) K.axpy1(grouped.data(), &b[kk * n], a[kk], n);
  ctx.check(c == grouped, "gemv == grouped axpy bitwise" + tag);
}

}  // namespace

void check_kernel_tiers(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  const std::vector<const Kernels*> tiers = runnable_tiers();

  for (std::size_t n : spans(rng)) {
    ctx.begin_case();
    for (const Kernels* K : tiers) check_one_tier(ctx, *K, n, rng);

    // Cross-tier agreement: FMA reorders rounding, so scalar vs avx2 only
    // match to the oracle tolerance — but both must be near the truth, so
    // they must be near each other.
    if (tiers.size() > 1 && n > 0) {
      const std::vector<double> a = vec(rng, n), b = vec(rng, n);
      ctx.check_near(tiers[0]->dot(a.data(), b.data(), n),
                     tiers[1]->dot(a.data(), b.data(), n), kSumTol,
                     "scalar vs avx2 dot n=" + std::to_string(n));
    }
  }

  // gemv shapes: zero-row, zero-col, tiny, and one realistic FC panel.
  const std::size_t k_rand = gen::dim(rng, 5, 40);
  const std::size_t n_rand = gen::dim(rng, 5, 40);
  const struct { std::size_t k, n; } shapes[] = {
      {0, 7}, {7, 0}, {0, 0}, {1, 1}, {3, 9}, {k_rand, n_rand}, {64, 96}};
  for (const auto& s : shapes) {
    ctx.begin_case();
    for (const Kernels* K : tiers) check_gemv_tier(ctx, *K, s.k, s.n, rng);
  }
}

}  // namespace diagnet::testkit
