// Shared helpers for the test suite: finite-difference gradient checking,
// random fixtures (delegated to the testkit generators), and the gtest
// front end over the testkit property suites.
#pragma once

#include <cmath>
#include <functional>
#include <string>

#include "nn/coarse_net.h"
#include "nn/land_pooling.h"
#include "tensor/matrix.h"
#include "testkit/gen.h"
#include "testkit/harness.h"
#include "util/rng.h"

namespace diagnet::test {

inline tensor::Matrix random_matrix(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  return testkit::gen::matrix(rng, rows, cols, scale);
}

/// Logits of one forward pass through a fresh workspace.
inline tensor::Matrix logits(const nn::CoarseNet& net,
                             const nn::LandBatch& batch) {
  nn::CoarseWorkspace ws;
  return net.forward(batch, ws);
}

/// Pooled output of one forward pass through a fresh context.
inline tensor::Matrix pool_forward(const nn::LandPooling& pool,
                                   const tensor::Matrix& land,
                                   const tensor::Matrix& mask) {
  nn::LandPooling::PoolContext ctx;
  tensor::Matrix out;
  pool.forward(land, mask, ctx, out);
  return out;
}

/// Central finite difference of a scalar function w.r.t. one entry of a
/// matrix owned elsewhere (the function must read the matrix each call).
inline double finite_difference(const std::function<double()>& f, double& x,
                                double eps = 1e-6) {
  const double saved = x;
  x = saved + eps;
  const double fp = f();
  x = saved - eps;
  const double fm = f();
  x = saved;
  return (fp - fm) / (2.0 * eps);
}

/// Relative error tolerant of tiny magnitudes.
inline double rel_error(double a, double b) {
  const double denom = std::max({std::abs(a), std::abs(b), 1e-8});
  return std::abs(a - b) / denom;
}

/// Run one registered testkit suite under the CI-overridable seed/iters
/// (DIAGNET_PROPTEST_SEED / DIAGNET_PROPTEST_ITERS) and return its result.
/// Assert on .ok() with << testkit::describe(result) for the repro line.
inline testkit::SuiteResult run_property_suite(const std::string& name,
                                               std::size_t default_iters = 50,
                                               std::uint64_t default_seed = 1) {
  testkit::SuiteResult result;
  result.name = name;
  const testkit::Suite* suite = testkit::find_suite(name);
  if (suite == nullptr) {
    result.failed_iterations = 1;
    result.messages.push_back("unknown testkit suite: " + name);
    return result;
  }
  const testkit::PropertyRunner runner(
      testkit::env_seed(default_seed), testkit::env_iters(default_iters));
  return runner.run(suite->name, suite->fn);
}

}  // namespace diagnet::test
