// Row-wise softmax and the fused softmax + cross-entropy loss used to train
// the coarse classifier (c fault-family classes, paper Fig. 2 step 4).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.h"

namespace diagnet::nn {

using tensor::Matrix;

/// Numerically-stable row-wise softmax.
Matrix softmax(const Matrix& logits);

/// Mean cross-entropy of softmax(logits) against integer labels.
/// If grad != nullptr it receives dLoss/dLogits = (softmax - onehot) / B.
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::size_t>& labels,
                             Matrix* grad);

/// Allocation-free shard variant of softmax_cross_entropy: returns the SUM
/// (not mean) of the per-row cross-entropies over the `n` labels, and when
/// grad != nullptr writes dLoss/dLogits * grad_scale into it with a
/// capacity-aware resize. Sharded training passes grad_scale = 1/B of the
/// *full* minibatch so per-shard gradients add up to exactly the minibatch
/// mean, and reduces the returned per-shard sums in fixed shard order.
double softmax_cross_entropy_sum(const Matrix& logits,
                                 const std::size_t* labels, std::size_t n,
                                 Matrix* grad, double grad_scale);

/// Gradient of the "ideal label" loss the attention mechanism
/// backpropagates (paper §III-E, L* with y* = onehot(argmax y)): row r gets
/// the gradient of -log softmax(logits_r)[targets[r]] w.r.t. the logits.
/// Softmax is row-wise, so each row's bits do not depend on the batch size.
Matrix ideal_label_grads(const Matrix& logits,
                         const std::vector<std::size_t>& targets);

}  // namespace diagnet::nn
