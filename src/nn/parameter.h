// Trainable tensors of the coarse-prediction network.
//
// The network has one forward/backward path and no tape: layers cache
// nothing. Each forward pass writes its activations into a caller-owned
// workspace (nn::CoarseWorkspace, LandPooling::PoolContext) and the
// backward passes read them back from there, so any number of threads can
// run one const network at once. Every layer has two backward passes over
// the same gradient routing: a parameter-gradient pass for training and an
// input-gradient pass for inference — the DiagNet attention mechanism
// (paper §III-E) differentiates the loss with respect to the *features*,
// not just the weights.
#pragma once

#include <utility>

#include "tensor/matrix.h"

namespace diagnet::nn {

using tensor::Matrix;

/// A trainable tensor: value, gradient accumulator, and a freeze flag used
/// by service specialisation (paper §IV-F freezes the convolution and first
/// hidden layer when deriving per-service models).
struct Parameter {
  Matrix value;
  Matrix grad;
  bool frozen = false;

  explicit Parameter(Matrix v) : value(std::move(v)), grad(value.rows(), value.cols()) {}
  void zero_grad() { grad.fill(0.0); }
};

}  // namespace diagnet::nn
